package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mtm"
	"mtm/internal/sim"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pin.json from this run's CLI digests")

// pinFile maps each pinned command line's name to the SHA-256 of what the
// run produced: exit code, stdout, stderr and every file it wrote.
const pinFile = "testdata/pin.json"

// pinRun is one pinned command line. Its args name output files as
// "@file"; the test points them into a directory of their own.
type pinRun struct {
	name string
	args []string
}

// pinFlagSets are the flag sets every workload × solution pair runs
// under: the plain JSON result; a dying DIMM with the audit, the
// Prometheus export and the JSONL trace; a flaky CXL tier with learned
// admission, lanes, the fidelity oracle and the Chrome trace.
var pinFlagSets = []pinRun{
	{"json", []string{"-json"}},
	{"dimm-death", []string{"-faults", "dimm-death", "-audit", "-json",
		"-metrics", "@metrics.prom", "-metrics-format", "prom",
		"-spans", "@spans.jsonl", "-spans-format", "jsonl"}},
	{"cxl-flaky", []string{"-faults", "cxl-flaky", "-admission-learn", "-admission-lanes", "default",
		"-fidelity", "-json", "-spans", "@spans.chrome.json", "-spans-format", "chrome"}},
}

// pinScenarios are the determinism job's mtmsim scenarios at seed 7 and
// the default scale and length, soak runs and the Chrome export
// included.
var pinScenarios = []pinRun{
	{"gups.mtm", []string{"-workload", "gups", "-solution", "mtm", "-json"}},
	{"gups.hemem", []string{"-workload", "gups", "-solution", "hemem", "-json"}},
	{"gups.tiered-autonuma", []string{"-workload", "gups", "-solution", "tiered-autonuma", "-json"}},
	{"gups.nomad", []string{"-workload", "gups", "-solution", "nomad", "-json"}},
	{"gups.spans", []string{"-workload", "gups", "-solution", "mtm", "-spans", "@gups.jsonl"}},
	{"gups.metrics", []string{"-workload", "gups", "-solution", "mtm", "-metrics", "@gups.metrics.json"}},
	{"nomad.spans", []string{"-workload", "pingpong", "-solution", "nomad", "-audit", "-spans", "@nomad.jsonl"}},
	{"adm", []string{"-workload", "pingpong", "-solution", "mtm", "-faults", "cxl-flaky",
		"-admission", "-audit", "-json"}},
	{"learn", []string{"-workload", "pingpong", "-solution", "mtm", "-faults", "cxl-flaky",
		"-admission-learn", "-admission-lanes", "default", "-audit",
		"-spans", "@learn.jsonl", "-metrics", "@learn.metrics.json", "-json"}},
	{"fid", []string{"-workload", "pingpong", "-solution", "mtm", "-faults", "cxl-flaky",
		"-fidelity", "-admission", "-audit", "-json"}},
	{"soak.dimm-death", []string{"-workload", "gups", "-solution", "mtm", "-scale", "256", "-ops", "0.25",
		"-faults", "dimm-death", "-audit", "-json"}},
	{"soak.cxl-flaky", []string{"-workload", "gups", "-solution", "mtm", "-scale", "256", "-ops", "0.25",
		"-faults", "cxl-flaky", "-audit", "-json"}},
	{"chrome", []string{"-workload", "gups", "-solution", "mtm", "-spans", "@trace.chrome.json", "-spans-format", "chrome"}},
}

// pinRuns lists every pinned command line. Under trim only the gups and
// pingpong rows of the workload sweep run.
func pinRuns(trim bool) []pinRun {
	var runs []pinRun
	for _, wl := range mtm.WorkloadNames() {
		if trim && wl != "gups" && wl != "pingpong" {
			continue
		}
		base := []string{"-workload", wl, "-ops", "0.1"}
		for _, fs := range pinFlagSets {
			for _, sol := range mtm.SolutionNames() {
				args := append(append(append([]string{}, base...), "-solution", sol), fs.args...)
				runs = append(runs, pinRun{fs.name + "/" + wl + "/" + sol, args})
			}
		}
		runs = append(runs, pinRun{"text/" + wl, append(base, "-solution", "mtm")})
	}
	for _, sc := range pinScenarios {
		runs = append(runs, pinRun{"scenario/" + sc.name, append(sc.args, "-seed", "7")})
	}
	return runs
}

// pinDigest runs one command line in process and hashes its exit code,
// stdout, stderr and the files it wrote, in name order. The run's
// directory is replaced by "@" in the streams, so a message that names a
// file hashes the same wherever the test runs.
func pinDigest(t *testing.T, r pinRun) string {
	dir := t.TempDir()
	args := make([]string, len(r.args))
	for i, a := range r.args {
		if strings.HasPrefix(a, "@") {
			a = filepath.Join(dir, a[1:])
		}
		args[i] = a
	}
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	h := sha256.New()
	field := func(name string, b []byte) {
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	field("exit", []byte(fmt.Sprint(code)))
	field("stdout", bytes.ReplaceAll(stdout.Bytes(), []byte(dir), []byte("@")))
	field("stderr", bytes.ReplaceAll(stderr.Bytes(), []byte(dir), []byte("@")))
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		field(f.Name(), b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCLIPin pins what mtmsim prints and writes, byte for byte: every
// workload × solution pair under three flag sets at -ops 0.1, one text
// report per workload, and the determinism job's scenarios. The root
// golden digests cover mtm.Run's Result; this covers the CLI on top of
// it: flag parsing, the text report, the error envelope and the prom,
// JSONL and Chrome writers. Under -short and -race only the gups and
// pingpong rows run. A change that alters the output on purpose
// regenerates the file with
//
//	go test -run TestCLIPin ./cmd/mtmsim -update-pin
//
// Digests are recorded on linux/amd64 only: other platforms may round
// floating point differently.
func TestCLIPin(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("CLI digests are recorded on linux/amd64 only")
	}
	want := map[string]string{}
	if b, err := os.ReadFile(pinFile); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", pinFile, err)
		}
	} else if !*updatePin {
		t.Fatalf("%v (regenerate with -update-pin)", err)
	}
	trim := (testing.Short() || sim.RaceEnabled) && !*updatePin
	runs := pinRuns(trim)
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("runs", func(t *testing.T) {
		for _, r := range runs {
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				d := pinDigest(t, r)
				mu.Lock()
				got[r.name] = d
				mu.Unlock()
				if *updatePin {
					return
				}
				if w, ok := want[r.name]; !ok {
					t.Errorf("no pinned digest (regenerate with -update-pin)")
				} else if d != w {
					t.Errorf("digest %.12s, pinned %.12s (mtmsim %s)", d, w, strings.Join(r.args, " "))
				}
			})
		}
	})
	if *updatePin {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if n := len(pinRuns(false)); len(want) != n {
		t.Errorf("%s has %d digests, want %d (regenerate with -update-pin)", pinFile, len(want), n)
	}
}
