package mtm_test

import (
	"math/rand"
	"testing"
	"time"

	"mtm"

	"mtm/internal/experiments"
	"mtm/internal/migrate"
	"mtm/internal/pebs"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
	"mtm/internal/workload"
)

// Every figure and table of the paper's evaluation has a benchmark that
// regenerates it. `go test -bench Fig4 -v` prints the same rows the paper
// reports (b.Log output appears with -v); timings measure the full
// experiment driver. Experiment scale is kept small so the whole suite
// runs in minutes; cmd/experiments -full produces the paper-length runs.

func benchOpts() experiments.Options {
	return experiments.Options{Scale: 256, OpsFactor: 0.25, Seed: 1}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	o := benchOpts()
	run := experiments.All[id]
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = run(o)
	}
	b.Log("\n" + out)
}

func BenchmarkFig1ProfilingQuality(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig3MigrationBreakdown(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4Overall(b *testing.B)            { benchExperiment(b, "fig4") }
func BenchmarkFig5Breakdown(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6Heatmap(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7Ablations(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8OverheadSweep(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9Thresholds(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10Alpha(b *testing.B)             { benchExperiment(b, "fig10") }
func BenchmarkFig11Mechanisms(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12TwoTier(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkTab3HotPages(b *testing.B)           { benchExperiment(b, "tab3") }
func BenchmarkTab4InitialPlacement(b *testing.B)   { benchExperiment(b, "tab4") }
func BenchmarkTab5MemoryOverhead(b *testing.B)     { benchExperiment(b, "tab5") }
func BenchmarkTab6TierAccesses(b *testing.B)       { benchExperiment(b, "tab6") }
func BenchmarkTab7RegionStats(b *testing.B)        { benchExperiment(b, "tab7") }

// --- substrate micro-benchmarks ---

// BenchmarkRun measures whole simulations end to end under MTM at a fixed
// scale and op count: gups and pingpong are access-stream bound, bfs
// mixes sequential graph ranges with profiling and migration, and
// cassandra times the zipfian key sampler beside its accesses.
func BenchmarkRun(b *testing.B) {
	for _, wl := range []string{"gups", "pingpong", "bfs", "cassandra"} {
		b.Run(wl+"/mtm", func(b *testing.B) {
			cfg := mtm.DefaultConfig()
			cfg.Scale = 256
			cfg.OpsFactor = 0.25
			for i := 0; i < b.N; i++ {
				if _, err := mtm.Run(cfg, wl, "mtm"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineAccess measures the simulator's hot path: one batched
// application access through fault-free TouchN + latency accounting.
func BenchmarkEngineAccess(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(256), 1)
	e.SetSolution(policy.NewFirstTouch())
	v := e.AS.Alloc("b", 64*vm.HugePageSize)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	e.Sys.ResetWindow(e.Interval)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Access(v, i&63, 4, 2, 0)
	}
}

// BenchmarkAccessBatch measures accesses issued up to 256 to a batch; an
// op is one ref. huge issues BenchmarkEngineAccess's accesses to 64 huge
// pages, whose records stay in cache. pebs issues them with a PEBS buffer
// armed on every node, so each ref feeds the sampler. random-4k issues
// seeded random refs over a 2^21-page 4 KB VMA, so nearly every ref misses
// cache until the batch's warm pass has loaded it. single issues random
// refs to the 64 huge pages one Access call each, the shape of Cassandra's
// per-operation calls. fault first-touches fresh 4 KB pages, the shape of
// a workload's set-up.
func BenchmarkAccessBatch(b *testing.B) {
	hugeRefs := func() (*sim.Engine, *vm.VMA, []sim.Ref) {
		e := sim.NewEngine(tier.OptaneTopology(256), 1)
		e.SetSolution(policy.NewFirstTouch())
		v := e.AS.Alloc("b", 64*vm.HugePageSize)
		refs := make([]sim.Ref, 256)
		for i := range refs {
			refs[i] = sim.Ref{Idx: i & 63, N: 4, NW: 2}
		}
		return e, v, refs
	}
	b.Run("huge", func(b *testing.B) {
		e, v, refs := hugeRefs()
		benchBatches(b, e, v, refs)
	})
	b.Run("pebs", func(b *testing.B) {
		e, v, refs := hugeRefs()
		e.PEBS = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 0)
		e.PEBS.Arm(0, 1, 2, 3)
		benchBatches(b, e, v, refs)
	})
	b.Run("random-4k", func(b *testing.B) {
		// Scale 64 holds the VMA's 8 GB.
		e := sim.NewEngine(tier.OptaneTopology(64), 1)
		e.SetSolution(policy.NewFirstTouch())
		e.AS.THP = false
		v := e.AS.Alloc("b", (1<<21)*vm.BasePageSize)
		rng := rand.New(rand.NewSource(1))
		refs := make([]sim.Ref, 1<<20)
		for i := range refs {
			refs[i] = sim.Ref{Idx: rng.Intn(v.NPages), N: 4, NW: 2}
		}
		benchBatches(b, e, v, refs)
	})
	b.Run("single", func(b *testing.B) {
		e := sim.NewEngine(tier.OptaneTopology(256), 1)
		e.SetSolution(policy.NewFirstTouch())
		v := e.AS.Alloc("b", 64*vm.HugePageSize)
		for i := 0; i < v.NPages; i++ {
			e.Access(v, i, 1, 0, 0)
		}
		rng := rand.New(rand.NewSource(1))
		refs := make([]sim.Ref, 1024)
		for i := range refs {
			refs[i] = sim.Ref{Idx: rng.Intn(v.NPages), N: uint32(1 + i&1), NW: uint32(i >> 1 & 1)}
		}
		e.Sys.ResetWindow(e.Interval)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := refs[i&1023]
			e.Access(v, r.Idx, r.N, r.NW, 0)
		}
	})
	b.Run("fault", func(b *testing.B) {
		var e *sim.Engine
		var v *vm.VMA
		next := 0
		for i := 0; i < b.N; i++ {
			if v == nil || next == v.NPages {
				// A fresh engine and VMA once every page has been touched;
				// scale 64 holds the VMA's 4 GB.
				b.StopTimer()
				e = sim.NewEngine(tier.OptaneTopology(64), 1)
				e.SetSolution(policy.NewFirstTouch())
				e.AS.THP = false
				v = e.AS.Alloc("b", (1<<20)*vm.BasePageSize)
				e.Sys.ResetWindow(e.Interval)
				next = 0
				b.StartTimer()
			}
			e.Access(v, next, 1, 1, 0)
			next++
		}
	})
}

// benchBatches faults in every page of v, then times b.N refs issued in
// order from refs, cycling, at most 256 to a batch.
func benchBatches(b *testing.B, e *sim.Engine, v *vm.VMA, refs []sim.Ref) {
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	e.Sys.ResetWindow(e.Interval)
	b.ResetTimer()
	off := 0
	for n := b.N; n > 0; {
		k := min(n, 256, len(refs)-off)
		e.AccessBatch(v, refs[off:off+k], 0)
		n -= k
		if off += k; off == len(refs) {
			off = 0
		}
	}
}

// BenchmarkFlipDemote measures Nomad's per-page move path on a 2^21-page
// 4 KB VMA with shadows and admission on: an op flip-demotes one random
// shadowed page to its slow-tier frame, checking and stamping its
// cool-down, then promotes it back, retaining a fresh shadow. 2^18 pages
// spread over the VMA hold shadows, so nearly every op misses cache. The
// clock advances one cool-down per op, so no flip is suppressed. A warm-up
// pass sizes the retention FIFO first: the timed steady state must not
// allocate.
func BenchmarkFlipDemote(b *testing.B) {
	const cool = time.Microsecond
	e := sim.NewEngine(tier.OptaneTopology(64), 1)
	e.SetSolution(policy.NewSlowFirst())
	e.AS.THP = false
	e.EnableShadow()
	e.Interval = cool / 2 // the cool-down lasts two intervals
	e.EnableAdmission(false, false)
	v := e.AS.Alloc("b", (1<<21)*vm.BasePageSize)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	slow := v.Node(0)
	rng := rand.New(rand.NewSource(1))
	pages := rng.Perm(v.NPages)[:1<<18]
	promote := func(idx int) {
		if !e.MovePage(v, idx, 0) {
			b.Fatalf("promotion of page %d found no room", idx)
		}
	}
	for _, idx := range pages {
		promote(idx)
	}
	cycle := func(idx int) {
		e.ChargeMigration(cool)
		if dst, ok := e.FlipDemote(v, idx); !ok || dst != slow {
			b.Fatalf("flip of page %d = (%d, %v), want (%d, true)", idx, dst, ok, slow)
		}
		promote(idx)
	}
	for i := 0; i < 2*len(pages); i++ {
		cycle(pages[rng.Intn(len(pages))])
	}
	refs := make([]int, 1<<20)
	for i := range refs {
		refs[i] = pages[rng.Intn(len(pages))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(refs[i&(len(refs)-1)])
	}
}

// BenchmarkPTEScan measures one ObserveScans call (the profiling
// primitive).
func BenchmarkPTEScan(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(256), 1)
	e.SetSolution(policy.NewFirstTouch())
	v := e.AS.Alloc("b", 4*vm.HugePageSize)
	e.Access(v, 0, 500, 0, 0)
	rng := rand.New(e.Rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.ObserveScans(v, 0, 3, 0.003, rng)
	}
}

// BenchmarkMTMProfileInterval measures one full adaptive-profiling pass
// over a 1 GB address space.
func BenchmarkMTMProfileInterval(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(256), 1)
	e.SetSolution(policy.NewFirstTouch())
	e.Interval = 10 * 1e9 / 256
	v := e.AS.Alloc("b", 512*vm.HugePageSize)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, uint32(1+i%97), 0, 0)
	}
	m := profiler.NewMTM(profiler.DefaultMTMConfig())
	m.Attach(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Profile(e)
	}
}

// BenchmarkProfilePass measures one profiler pass (m.Profile) at machine
// scale 8: a 2 GB 4 KB-page VMA (1024 regions of 512 pages) profiled by
// MTM's adaptive profiler with PEBS gating off, so every region takes the
// PTE-scan path.
func BenchmarkProfilePass(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(8), 1)
	e.SetSolution(policy.NewFirstTouch())
	e.Interval = 10 * 1e9 / 8
	e.AS.THP = false
	v := e.AS.Alloc("b", 2<<30)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, uint32(1+i%97), 0, 0)
	}
	pc := profiler.DefaultMTMConfig()
	pc.UsePEBS = false
	m := profiler.NewMTM(pc)
	m.Attach(e)
	m.Profile(e) // warm-up: size scratch and region arrays before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Profile(e)
	}
}

// BenchmarkScanSteady measures the scan-steady profiling path: fixed
// regions (AdaptiveRegions off), PEBS off, so every interval is a pure
// word-wide PTE-scan sweep with scratch reuse. After
// the warm-up pass this path performs zero heap allocations per interval;
// the CI allocs gate holds it there. TestScanSteadyZeroAlloc asserts the
// same bound as a unit test.
func BenchmarkScanSteady(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(8), 1)
	e.SetSolution(policy.NewFirstTouch())
	e.Interval = 10 * 1e9 / 8
	e.AS.THP = false
	v := e.AS.Alloc("b", 2<<30)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, uint32(1+i%97), 0, 0)
	}
	pc := profiler.DefaultMTMConfig()
	pc.UsePEBS = false
	pc.AdaptiveRegions = false
	m := profiler.NewMTM(pc)
	m.Attach(e)
	m.Profile(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Profile(e)
	}
}

// BenchmarkIntervalFidelitySample measures one fidelity-oracle sample
// over the same 2 GB interval workload the profiler benchmarks use: truth
// histogram, estimate grading against MTM's fixed region table, rank
// agreement, lag transitions, and the heat row. The oracle reuses planes
// and buffers after warm-up, so the steady state allocates nothing; the
// CI allocs gate holds it at zero, and the ns/op against
// BenchmarkProfilePass bounds the oracle's relative wall-time cost. TestFidelitySampleZeroAlloc asserts the same
// zero-alloc bound as a unit test.
func BenchmarkIntervalFidelitySample(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(8), 1)
	e.Interval = 10 * 1e9 / 8
	e.AS.THP = false
	pc := profiler.DefaultMTMConfig()
	pc.UsePEBS = false
	pc.AdaptiveRegions = false
	sol := policy.NewMTMVariant("mtm-fixed", profiler.NewMTM(pc), migrate.NewAdaptive())
	e.SetSolution(sol)
	e.EnableFidelity()
	v := e.AS.Alloc("b", 2<<30)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, uint32(1+i%97), 0, 0)
	}
	sol.Prof.Attach(e)
	sol.Prof.Profile(e)
	e.FidelitySample() // warm-up: size planes and buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.FidelitySample()
	}
}

// BenchmarkMigrate2MBRegion measures the three mechanisms moving one 2 MB
// region between the fastest and slowest tiers (the Figure 3 scenario).
func BenchmarkMigrate2MBRegion(b *testing.B) {
	for _, mech := range []migrate.Mechanism{migrate.MovePages{}, migrate.Nimble{}, &migrate.Adaptive{WriteRate: 0}} {
		b.Run(mech.Name(), func(b *testing.B) {
			e := sim.NewEngine(tier.OptaneTopology(64), 1)
			e.SetSolution(policy.NewFirstTouch())
			v := e.AS.Alloc("b", vm.HugePageSize)
			e.Sys.ResetWindow(e.Interval)
			e.Access(v, 0, 1, 0, 0)
			nodes := []tier.NodeID{v.Node(0), 3}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mech.Migrate(e, v, 0, 1, nodes[1-(i&1)], 0)
			}
		})
	}
}

// BenchmarkGUPSInterval measures one simulated profiling interval of GUPS
// under full MTM (application + profiling + migration).
func BenchmarkGUPSInterval(b *testing.B) {
	cfg := mtm.DefaultConfig()
	cfg.Scale = 256
	e := mtm.NewEngine(cfg)
	w := workload.NewGUPS(workload.Config{Scale: 256, OpsFactor: 1})
	s, err := mtm.NewSolution("mtm", cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.SetSolution(s)
	w.Init(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunInterval(w)
	}
}
