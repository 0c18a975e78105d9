package mtm_test

import (
	"testing"

	"mtm/internal/migrate"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/tier"
)

// TestScanSteadyZeroAlloc pins the zero-allocation property of the
// scan-steady profiling path: with fixed regions, an MTM profiling
// interval after warm-up reuses the engine scratch (RNG, membership
// bitset) and per-region Samples/Observed capacity — so it never touches
// the heap. CI enforces the same bound on BenchmarkScanSteady via the
// benchjson -max-allocs gate; this test catches regressions without
// running benchmarks.
//
// Adaptive region formation is excluded on purpose: merge/split churn
// creates regions, which must allocate.
func TestScanSteadyZeroAlloc(t *testing.T) {
	e := sim.NewEngine(tier.OptaneTopology(64), 1)
	e.SetSolution(policy.NewFirstTouch())
	e.Interval = 10 * 1e9 / 64
	e.AS.THP = false
	v := e.AS.Alloc("b", 256<<20)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, uint32(1+i%97), 0, 0)
	}
	pc := profiler.DefaultMTMConfig()
	pc.UsePEBS = false
	pc.AdaptiveRegions = false
	m := profiler.NewMTM(pc)
	m.Attach(e)
	for i := 0; i < 3; i++ {
		m.Profile(e) // warm-up: size scratch and region buffers
	}
	if got := testing.AllocsPerRun(20, func() { m.Profile(e) }); got != 0 {
		t.Errorf("scan-steady Profile allocates %.1f objects per interval, want 0", got)
	}
}

// TestFidelitySampleZeroAlloc pins the zero-allocation property of the
// fidelity oracle's steady-state sample: with planes and rank-agreement
// buffers sized by warm-up samples, one FidelitySample — truth histogram,
// estimate grading, rank agreement, lag transitions, heat row — never
// touches the heap. CI enforces the
// same bound on BenchmarkIntervalFidelitySample via the benchjson
// -max-allocs gate; this test catches regressions without benchmarks.
//
// The solution is MTM with fixed regions so the estimate path (the
// profiler's region table) is exercised, not skipped.
func TestFidelitySampleZeroAlloc(t *testing.T) {
	e := sim.NewEngine(tier.OptaneTopology(64), 1)
	e.Interval = 10 * 1e9 / 64
	e.AS.THP = false
	pc := profiler.DefaultMTMConfig()
	pc.UsePEBS = false
	pc.AdaptiveRegions = false
	sol := policy.NewMTMVariant("mtm-fixed", profiler.NewMTM(pc), migrate.NewAdaptive())
	e.SetSolution(sol)
	e.EnableFidelity()
	v := e.AS.Alloc("b", 256<<20)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, uint32(1+i%97), 0, 0)
	}
	sol.Prof.Attach(e)
	sol.Prof.Profile(e) // populate the region table the oracle grades
	for i := 0; i < 3; i++ {
		e.FidelitySample() // warm-up: size planes and buffers
	}
	if got := testing.AllocsPerRun(20, func() { e.FidelitySample() }); got != 0 {
		t.Errorf("fidelity sample allocates %.1f objects per interval, want 0", got)
	}
}
