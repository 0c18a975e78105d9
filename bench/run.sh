#!/usr/bin/env bash
# Builds the host-cost benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload gups-thp --seed 3 --seconds 12 --trace 0
#   bash bench/run.sh                      # all workloads, both phases
#
# Every file the Go toolchain writes (build cache, module cache, config)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
# VCS stamping looks for a repository at the checkout's root, not above it.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

cd "$root/bench"
# VCS stamping records the revision in results.json; it needs a readable
# git checkout, so fall back to an unstamped build outside one.
go build -o "$build/mtmbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$build/mtmbench" .
exec "$build/mtmbench" "$@"
