package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mtm/internal/span"
)

// TestSpansJSONLOutput: -spans writes a self-describing JSONL stream whose
// header parses and whose span count matches the body.
func TestSpansJSONLOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var errs bytes.Buffer
	if code := run(small("-spans", path), io.Discard, &errs); code != 0 {
		t.Fatalf("spans run exited %d: %s", code, errs.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	meta, spans, dropped, err := span.ReadJSONL(f, path, func(b []byte) error {
		if !json.Valid(b) {
			t.Fatalf("invalid JSON line: %s", b)
		}
		lines++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta["solution"] == "" || meta["workload"] == "" {
		t.Errorf("header meta missing run identity: %v", meta)
	}
	if dropped != 0 {
		t.Errorf("small run dropped %d spans", dropped)
	}
	if lines != spans {
		t.Errorf("header says %d spans, body has %d lines", spans, lines)
	}
	if lines == 0 {
		t.Error("trace has no spans")
	}
}

// TestSpansChromeOutput: -spans-format chrome writes a single JSON object
// with a traceEvents array (the Perfetto/chrome://tracing input shape).
func TestSpansChromeOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var errs bytes.Buffer
	if code := run(small("-spans", path, "-spans-format", "chrome"), io.Discard, &errs); code != 0 {
		t.Fatalf("spans run exited %d: %s", code, errs.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	var complete, meta bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete = true
		case "M":
			meta = true
		}
	}
	if !complete || !meta {
		t.Errorf("chrome trace lacks complete (%v) or metadata (%v) events", complete, meta)
	}
}

// TestInvalidSpansFormatRejected: a bad -spans-format is a usage error,
// caught before any simulation runs.
func TestInvalidSpansFormatRejected(t *testing.T) {
	var errs bytes.Buffer
	if code := run(small("-spans", "x", "-spans-format", "xml"), io.Discard, &errs); code != 2 {
		t.Fatalf("bad format exited %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "spans-format") {
		t.Fatalf("unhelpful error: %s", errs.String())
	}
}

// TestPprofProfiles: -cpuprofile and -memprofile write non-empty pprof
// files, and `go tool pprof -top` can read them when go is available.
func TestPprofProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	var errs bytes.Buffer
	if code := run(small("-cpuprofile", cpu, "-memprofile", mem), io.Discard, &errs); code != 0 {
		t.Fatalf("profiled run exited %d: %s", code, errs.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH; skipping pprof parse check")
	}
	for _, path := range []string{cpu, mem} {
		out, err := exec.Command(goBin, "tool", "pprof", "-top", path).CombinedOutput()
		if err != nil {
			t.Errorf("go tool pprof -top %s: %v\n%s", path, err, out)
		}
	}
}

// TestMemProfileSeesLiveEngine: -memprofile is written while the engine
// is still reachable, so the profile names newVMA and attributes in-use
// space to the page records it allocated.
func TestMemProfileSeesLiveEngine(t *testing.T) {
	// Sample every allocation: this run's VMAs are far smaller than the
	// default 512 KB sampling interval.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	path := filepath.Join(t.TempDir(), "mem.pb.gz")
	var errs bytes.Buffer
	if code := run(small("-memprofile", path), io.Discard, &errs); code != 0 {
		t.Fatalf("profiled run exited %d: %s", code, errs.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	const fn = "mtm/internal/vm.newVMA"
	if !bytes.Contains(raw, []byte(fn)) {
		t.Fatalf("heap profile does not name %s", fn)
	}
	// The name alone also appears in a profile taken after the engine
	// died, through its allocation samples; only in-use space tells the
	// two apart.
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH; skipping the in-use space check")
	}
	out, err := exec.Command(goBin, "tool", "pprof", "-sample_index=inuse_space", "-top", "-nodefraction=0", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte(fn)) {
		t.Fatalf("no in-use space under %s: the engine was not live when the profile was written\n%s", fn, out)
	}
}
