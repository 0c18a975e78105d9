package profiler

import (
	"testing"
	"time"

	"mtm/internal/pebs"
	"mtm/internal/sim"
	"mtm/internal/tier"
)

// TestMTMSurvivesTinyPEBSBuffer injects a pathologically small PEBS
// buffer: samples are dropped on interrupt storms, but profiling must
// degrade gracefully — regions still get hotness, the budget still holds.
func TestMTMSurvivesTinyPEBSBuffer(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, w := hotColdEngine(t, 64, 13, 2, m)
	interval(e, w) // attaches and installs the default buffer
	// Replace with a 4-entry buffer mid-run.
	small := pebs.NewBuffer(len(e.Sys.Topo.Nodes), 4)
	*mtmBuffer(m) = *small
	for i := 0; i < 5; i++ {
		interval(e, w)
	}
	if e.PEBS.Interrupts() == 0 {
		t.Fatal("tiny buffer never overflowed; injection ineffective")
	}
	hot := 0
	for _, r := range m.Regions() {
		if r.WHI > 0 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("profiler found nothing with a degraded PEBS buffer")
	}
	perInterval := e.TotalProf / time.Duration(e.Intervals)
	if perInterval > time.Duration(float64(e.Interval)*0.08) {
		t.Fatalf("overhead broke under degraded PEBS: %v/interval", perInterval)
	}
}

// mtmBuffer reaches the profiler's buffer for fault injection.
func mtmBuffer(m *MTM) *pebs.Buffer { return m.buf }

// TestMTMBeatsDAMONAcrossSeeds hardens the Figure 1 shape claim: over
// several seeds, MTM's average detection quality must exceed DAMON's.
func TestMTMBeatsDAMONAcrossSeeds(t *testing.T) {
	var mtmSum, damonSum float64
	for seed := int64(1); seed <= 3; seed++ {
		run := func(p Profiler) float64 {
			e := sim.NewEngine(tier.OptaneTopology(256), seed)
			e.Interval = 40 * time.Millisecond
			e.SetSolution(&profSolution{p: p, node: 2})
			w := &hotColdWorkload{pages: 128, hot: 26}
			w.Init(e)
			for i := 0; i < 6; i++ {
				e.RunInterval(w)
			}
			r, a := hotDetection(p, w.v, 26)
			return r + a
		}
		mtmSum += run(NewMTM(DefaultMTMConfig()))
		damonSum += run(NewDAMON(DefaultDAMONConfig()))
	}
	if mtmSum <= damonSum {
		t.Fatalf("across seeds: MTM %.2f <= DAMON %.2f", mtmSum, damonSum)
	}
}

// TestProfilersNeverExceedAddressSpace fuzzes region sampling against a
// mixed 4K/huge address space: no profiler may index past a VMA.
func TestProfilersNeverExceedAddressSpace(t *testing.T) {
	for _, mk := range []func() Profiler{
		func() Profiler { return NewMTM(DefaultMTMConfig()) },
		func() Profiler { return NewDAMON(DefaultDAMONConfig()) },
		func() Profiler { return NewThermostat() },
		func() Profiler { return NewRandomChunk() },
		func() Profiler { return NewSequentialScan(true) },
	} {
		p := mk()
		e := sim.NewEngine(tier.OptaneTopology(512), 7)
		e.Interval = 20 * time.Millisecond
		e.SetSolution(&profSolution{p: p, node: 2})
		e.AS.THP = false // 4 KB pages stress alignment paths
		w := &hotColdWorkload{pages: 1024, hot: 128}
		// hotColdWorkload allocates in huge units; with THP off the VMA
		// has 4 KB pages, so NPages is 512x larger — RunInterval still
		// indexes by NPages, which is the point of the stress.
		w.Init(e)
		// A panic here (out-of-range) fails the test.
		for i := 0; i < 3; i++ {
			e.RunInterval(w)
		}
	}
}
