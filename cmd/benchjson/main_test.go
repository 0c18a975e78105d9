package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: mtm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGUPSInterval 	       1	   5339979 ns/op
BenchmarkGUPSInterval 	       1	   5100000 ns/op
BenchmarkGUPSInterval 	       1	   5200000 ns/op
BenchmarkProfilePass-4   	       1	   1500000 ns/op	  204800 B/op	     123 allocs/op
BenchmarkProfilePass-4   	       1	   1700000 ns/op	  204800 B/op	     456 allocs/op
BenchmarkMigrate2MBRegion/nimble-8 	       1	   4000000 ns/op	     100 B/op	       2 allocs/op
BenchmarkScanSteady           	     100	    700000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mtm	0.077s
`

func TestParseKeepsMinAndStripsSuffix(t *testing.T) {
	s, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	gups := s.Benchmarks["BenchmarkGUPSInterval"]
	if gups.NsPerOp != 5100000 || gups.Runs != 3 {
		t.Fatalf("GUPS entry %+v, want min 5100000 over 3 runs", gups)
	}
	prof, ok := s.Benchmarks["BenchmarkProfilePass"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if prof.NsPerOp != 1500000 || prof.Runs != 2 {
		t.Fatalf("profile-pass entry %+v", prof)
	}
	// -benchmem columns: allocs/op comes from the min-ns/op line; lines
	// without the columns leave it at zero.
	if prof.AllocsPerOp != 123 {
		t.Fatalf("allocs/op = %v, want 123 (from the min ns/op line)", prof.AllocsPerOp)
	}
	if gups.AllocsPerOp != 0 {
		t.Fatalf("allocs/op = %v for plain lines, want 0", gups.AllocsPerOp)
	}
	// Sub-benchmark names keep their /name suffix; only the GOMAXPROCS tag
	// is stripped.
	if _, ok := s.Benchmarks["BenchmarkMigrate2MBRegion/nimble"]; !ok {
		t.Fatal("sub-benchmark name mangled")
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok mtm 0.1s\n")); err == nil {
		t.Fatal("no-benchmark input accepted")
	}
}

// TestCompareGate: ns/op drift is reported, not gated — a run whose
// benchmarks match the baseline's names passes however much slower it
// is, since raw timings do not compare across runners.
func TestCompareGate(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Entry{"BenchmarkProfilePass": {NsPerOp: 1e6, Runs: 3}}}
	slow := &Summary{Benchmarks: map[string]Entry{"BenchmarkProfilePass": {NsPerOp: 1e7, Runs: 3}}}
	if err := compare(slow, base, nil); err != nil {
		t.Fatalf("10x ns/op drift failed the gate: %v", err)
	}
}

// TestCompareAllocsGate: -max-allocs caps allocs/op per named benchmark
// and fails when the named benchmark is absent from the run.
func TestCompareAllocsGate(t *testing.T) {
	base := &Summary{
		Benchmarks: map[string]Entry{"BenchmarkScanSteady": {NsPerOp: 7e5, Runs: 1}},
	}
	cur := &Summary{
		Benchmarks: map[string]Entry{"BenchmarkScanSteady": {NsPerOp: 7e5, AllocsPerOp: 0, Runs: 1}},
	}
	if err := compare(cur, base, map[string]float64{"BenchmarkScanSteady": 0}); err != nil {
		t.Fatalf("zero-alloc benchmark rejected at cap 0: %v", err)
	}
	cur.Benchmarks["BenchmarkScanSteady"] = Entry{NsPerOp: 7e5, AllocsPerOp: 3, Runs: 1}
	err := compare(cur, base, map[string]float64{"BenchmarkScanSteady": 0})
	if err == nil {
		t.Fatal("3 allocs/op passed a cap of 0")
	}
	if !strings.Contains(err.Error(), "BenchmarkScanSteady") {
		t.Fatalf("error does not name the benchmark: %v", err)
	}
	if err := compare(cur, base, map[string]float64{"BenchmarkMissing": 0}); err == nil {
		t.Fatal("-max-allocs naming an absent benchmark passed")
	}
}

func TestParseMaxAllocs(t *testing.T) {
	caps, err := parseMaxAllocs("BenchmarkScanSteady=0, BenchmarkOther=12")
	if err != nil {
		t.Fatal(err)
	}
	if caps["BenchmarkScanSteady"] != 0 || caps["BenchmarkOther"] != 12 {
		t.Fatalf("caps = %v", caps)
	}
	for _, bad := range []string{"NoEquals", "Bench=-1", "Bench=abc"} {
		if _, err := parseMaxAllocs(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	if caps, err := parseMaxAllocs(""); err != nil || caps != nil {
		t.Fatalf("empty spec: caps=%v err=%v", caps, err)
	}
}

// TestCompareMissingBaselineEntry: a benchmark present in the run but
// absent from the baseline must fail the gate with a clear error naming
// the benchmark, not silently skip it.
func TestCompareMissingBaselineEntry(t *testing.T) {
	cur := &Summary{
		Benchmarks: map[string]Entry{
			"BenchmarkProfilePass": {NsPerOp: 5e6, Runs: 3},
			"BenchmarkNewHotness":  {NsPerOp: 1e6, Runs: 3},
		},
	}
	base := &Summary{
		Benchmarks: map[string]Entry{
			"BenchmarkProfilePass": {NsPerOp: 5e6, Runs: 3},
		},
	}
	err := compare(cur, base, nil)
	if err == nil {
		t.Fatal("missing baseline entry passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkNewHotness") {
		t.Fatalf("error does not name the missing benchmark: %v", err)
	}
	if !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("error does not advise regenerating the baseline: %v", err)
	}
}

// TestCompareStaleBaselineEntry: the reverse of the test above — a
// baseline entry for a benchmark the current run no longer produces
// (renamed or deleted) must fail the gate naming the stale entry, not be
// silently ignored.
func TestCompareStaleBaselineEntry(t *testing.T) {
	cur := &Summary{
		Benchmarks: map[string]Entry{
			"BenchmarkProfilePass": {NsPerOp: 5e6, Runs: 3},
		},
	}
	base := &Summary{
		Benchmarks: map[string]Entry{
			"BenchmarkProfilePass": {NsPerOp: 5e6, Runs: 3},
			"BenchmarkRenamedAway": {NsPerOp: 1e6, Runs: 3},
		},
	}
	err := compare(cur, base, nil)
	if err == nil {
		t.Fatal("stale baseline entry passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkRenamedAway") {
		t.Fatalf("error does not name the stale benchmark: %v", err)
	}
	if !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("error does not advise regenerating the baseline: %v", err)
	}
}

// TestCompareZeroBaselineNsPerOp: a zero/missing ns/op in the baseline
// must produce a clear error instead of a divide-by-zero Inf in the
// drift report.
func TestCompareZeroBaselineNsPerOp(t *testing.T) {
	cur := &Summary{
		Benchmarks: map[string]Entry{
			"BenchmarkProfilePass": {NsPerOp: 5e6, Runs: 3},
		},
	}
	base := &Summary{
		Benchmarks: map[string]Entry{
			"BenchmarkProfilePass": {NsPerOp: 0, Runs: 3},
		},
	}
	err := compare(cur, base, nil)
	if err == nil {
		t.Fatal("zero baseline ns/op passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkProfilePass") {
		t.Fatalf("error does not name the corrupt entry: %v", err)
	}
}
