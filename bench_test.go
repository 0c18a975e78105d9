package mtm_test

import (
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"mtm"

	"mtm/internal/migrate"
	"mtm/internal/pebs"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// The layer micro-benchmarks: each times one layer of the simulator, the
// layer a perf change names. Whole-run host cost, the number a perf claim
// rests on, is measured by bench/.

// BenchmarkResultJSON measures encoding the Result of one traced BFS run
// under MTM, the export cost a traced simulation pays once at its end. An
// op is one json.Marshal of the Result, whose span trace holds nearly all
// of its bytes.
func BenchmarkResultJSON(b *testing.B) {
	cfg := mtm.DefaultConfig()
	cfg.Scale = 256
	cfg.OpsFactor = 0.25
	cfg.Trace = &span.Config{}
	res, err := mtm.Run(cfg, "bfs", "mtm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(res); err != nil {
			b.Fatal(err)
		}
	}
}

// accessShape sets up one access pattern and returns issue, which issues
// the pattern's next n ops, and how many ops issue takes in all (0: no
// limit). A benchmark times issue; TestAccessZeroAlloc and
// TestFlipDemoteZeroAlloc hold it at zero allocations. small shrinks the
// VMAs of the shapes whose refs miss cache, so the tests set up fast;
// allocation does not depend on cache misses.
type accessShape func(tb testing.TB, small bool) (issue func(n int), limit int)

// benchShape times b.N ops of shape, setting it up again, untimed, each
// time issue has taken its limit.
func benchShape(b *testing.B, shape accessShape) {
	for n := b.N; n > 0; {
		b.StopTimer()
		issue, limit := shape(b, false)
		b.StartTimer()
		k := n
		if limit > 0 {
			k = min(n, limit)
		}
		issue(k)
		n -= k
	}
}

// hugeVMA returns a first-touch engine at scale 256 with one VMA of 64
// huge pages, whose records stay in cache.
func hugeVMA() (*sim.Engine, *vm.VMA) {
	e := sim.NewEngine(tier.OptaneTopology(256), 1)
	e.SetSolution(policy.NewFirstTouch())
	return e, e.AS.Alloc("b", 64*vm.HugePageSize)
}

// faultIn first-touches every page of v, in order, and opens a fresh
// bandwidth window.
func faultIn(e *sim.Engine, v *vm.VMA) {
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	e.Sys.ResetWindow(e.Interval)
}

// engineAccess is the simulator's hot path: one application access
// through fault-free TouchN and latency accounting; an op is one Access.
func engineAccess(testing.TB, bool) (func(int), int) {
	e, v := hugeVMA()
	faultIn(e, v)
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			e.Access(v, i&63, 4, 2, 0)
			i++
		}
	}, 0
}

// BenchmarkEngineAccess measures engineAccess.
func BenchmarkEngineAccess(b *testing.B) { benchShape(b, engineAccess) }

// batches faults in every page of the refs' VMAs, in the order the refs
// first name them, and returns an issue that issues the refs in order,
// cycling, at most 256 to a batch.
func batches(e *sim.Engine, refs []sim.Ref) (func(int), int) {
	placed := map[*vm.VMA]bool{}
	for _, r := range refs {
		if !placed[r.V] {
			placed[r.V] = true
			faultIn(e, r.V)
		}
	}
	off := 0
	return func(n int) {
		for n > 0 {
			k := min(n, 256, len(refs)-off)
			e.AccessBatch(refs[off:off+k], 0)
			n -= k
			if off += k; off == len(refs) {
				off = 0
			}
		}
	}, 0
}

// hugeRefs returns engineAccess's accesses to the 64 huge pages as the
// 256 refs of one batch.
func hugeRefs() (*sim.Engine, []sim.Ref) {
	e, v := hugeVMA()
	refs := make([]sim.Ref, 256)
	for i := range refs {
		refs[i] = sim.Ref{V: v, Idx: i & 63, N: 4, NW: 2}
	}
	return e, refs
}

// accessShapes are the shapes of BenchmarkAccessBatch; an op is one ref.
// huge issues engineAccess's accesses up to 256 to a batch. pebs issues
// them with a PEBS buffer armed on every node, so each ref feeds the
// sampler. watched-half issues seeded random refs to the 64 huge pages,
// spread at random over all four nodes, with the buffer armed on the two
// PM nodes, as MTM arms it: about half the refs, in no regular order,
// feed the sampler, which is gups-thp's shape. random-4k issues seeded
// random refs over a 2^21-page 4 KB VMA, so nearly every ref misses cache
// until the batch's warm pass has loaded it. mixed issues Cassandra's
// shape: per op an index read, then a record read or update, an update
// adding a commit-log write, each VMA of huge pages. single issues random
// refs to the 64 huge pages one Access call each, the path a lone access
// takes. fault first-touches fresh 4 KB pages in order, 64 refs to a
// batch, the path first touches take outside set-up. init-touch
// first-touches fresh 4 KB VMAs with InitTouch, as a workload's set-up
// does, one VMA to a call; an op is one page.
var accessShapes = []struct {
	name  string
	shape accessShape
}{
	{"huge", func(testing.TB, bool) (func(int), int) {
		return batches(hugeRefs())
	}},
	{"pebs", func(testing.TB, bool) (func(int), int) {
		e, refs := hugeRefs()
		e.PEBS = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 0)
		e.PEBS.Arm(0, 1, 2, 3)
		return batches(e, refs)
	}},
	{"watched-half", func(testing.TB, bool) (func(int), int) {
		e, v := hugeVMA()
		faultIn(e, v)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < v.NPages; i++ {
			e.MovePage(v, i, tier.NodeID(rng.Intn(len(e.Sys.Topo.Nodes))))
		}
		e.PEBS = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 0)
		e.PEBS.Arm(2, 3) // the PM nodes
		refs := make([]sim.Ref, 4096)
		for i := range refs {
			refs[i] = sim.Ref{V: v, Idx: rng.Intn(v.NPages), N: 4, NW: 2}
		}
		return batches(e, refs)
	}},
	{"random-4k", func(_ testing.TB, small bool) (func(int), int) {
		pages, nrefs := 1<<21, 1<<20 // scale 64 holds the VMA's 8 GB
		if small {
			pages, nrefs = 1<<14, 1<<12
		}
		e := sim.NewEngine(tier.OptaneTopology(64), 1)
		e.SetSolution(policy.NewFirstTouch())
		e.AS.THP = false
		v := e.AS.Alloc("b", int64(pages)*vm.BasePageSize)
		rng := rand.New(rand.NewSource(1))
		refs := make([]sim.Ref, nrefs)
		for i := range refs {
			refs[i] = sim.Ref{V: v, Idx: rng.Intn(v.NPages), N: 4, NW: 2}
		}
		return batches(e, refs)
	}},
	{"mixed", func(testing.TB, bool) (func(int), int) {
		e := sim.NewEngine(tier.OptaneTopology(256), 1)
		e.SetSolution(policy.NewFirstTouch())
		data := e.AS.Alloc("data", 64*vm.HugePageSize)
		index := e.AS.Alloc("index", 4*vm.HugePageSize)
		log := e.AS.Alloc("log", 8*vm.HugePageSize)
		rng := rand.New(rand.NewSource(1))
		var refs []sim.Ref
		for op := 0; len(refs) < 1024; op++ {
			refs = append(refs, sim.Ref{V: index, Idx: rng.Intn(index.NPages), N: 1})
			if rng.Intn(2) == 0 {
				refs = append(refs, sim.Ref{V: data, Idx: rng.Intn(data.NPages), N: 2, NW: 1},
					sim.Ref{V: log, Idx: op / 64 % log.NPages, N: 1, NW: 1})
			} else {
				refs = append(refs, sim.Ref{V: data, Idx: rng.Intn(data.NPages), N: 2})
			}
		}
		return batches(e, refs)
	}},
	{"single", func(testing.TB, bool) (func(int), int) {
		e, v := hugeVMA()
		rng := rand.New(rand.NewSource(1))
		refs := make([]sim.Ref, 1024)
		for i := range refs {
			refs[i] = sim.Ref{V: v, Idx: rng.Intn(v.NPages), N: uint32(1 + i&1), NW: uint32(i >> 1 & 1)}
		}
		faultIn(e, v)
		i := 0
		return func(n int) {
			for ; n > 0; n-- {
				r := refs[i&1023]
				e.Access(v, r.Idx, r.N, r.NW, 0)
				i++
			}
		}, 0
	}},
	{"fault", func(_ testing.TB, small bool) (func(int), int) {
		pages := 1 << 20 // scale 64 holds the VMA's 4 GB
		if small {
			pages = 1 << 14
		}
		e := sim.NewEngine(tier.OptaneTopology(64), 1)
		e.SetSolution(policy.NewFirstTouch())
		e.AS.THP = false
		v := e.AS.Alloc("b", int64(pages)*vm.BasePageSize)
		e.Sys.ResetWindow(e.Interval)
		var buf [64]sim.Ref
		next := 0
		return func(n int) {
			for n > 0 {
				refs := buf[:min(n, len(buf))]
				for i := range refs {
					refs[i] = sim.Ref{V: v, Idx: next + i, N: 1, NW: 1}
				}
				e.AccessBatch(refs, 0)
				next += len(refs)
				n -= len(refs)
			}
		}, pages
	}},
	{"init-touch", func(_ testing.TB, small bool) (func(int), int) {
		pages, count := 1<<12, 64 // scale 64 holds the 64 VMAs' 1 GB
		if small {
			pages = 256
		}
		e := sim.NewEngine(tier.OptaneTopology(64), 1)
		e.SetSolution(policy.NewFirstTouch())
		e.AS.THP = false
		vmas := make([]*vm.VMA, count)
		for i := range vmas {
			vmas[i] = e.AS.Alloc("b", int64(pages)*vm.BasePageSize)
		}
		e.Sys.ResetWindow(e.Interval)
		next, ahead := 0, 0 // ahead: pages touched past the ops issued
		return func(n int) {
			for ; ahead < n; ahead += pages {
				e.InitTouch(sim.HomeSocket, vmas[next])
				next++
			}
			ahead -= n
		}, count * pages
	}},
}

// BenchmarkAccessBatch measures each of accessShapes.
func BenchmarkAccessBatch(b *testing.B) {
	for _, s := range accessShapes {
		b.Run(s.name, func(b *testing.B) { benchShape(b, s.shape) })
	}
}

// flipDemote is Nomad's per-page move path on a 2^21-page 4 KB VMA with
// shadows and admission on: an op flip-demotes one random shadowed page
// to its slow-tier frame, checking and stamping its cool-down, then
// promotes it back, retaining a fresh shadow. An eighth of the pages,
// spread over the VMA, hold shadows, so nearly every op misses cache. The
// clock advances one cool-down per op, so no flip is suppressed. A
// warm-up pass sizes the retention FIFO first: the steady state must not
// allocate.
func flipDemote(tb testing.TB, small bool) (func(int), int) {
	const cool = time.Microsecond
	pages := 1 << 21
	if small {
		pages = 1 << 14
	}
	e := sim.NewEngine(tier.OptaneTopology(64), 1)
	e.SetSolution(policy.NewSlowFirst())
	e.AS.THP = false
	e.EnableShadow()
	e.Interval = cool / 2 // the cool-down lasts two intervals
	e.EnableAdmission(false, false)
	v := e.AS.Alloc("b", int64(pages)*vm.BasePageSize)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	slow := v.Node(0)
	rng := rand.New(rand.NewSource(1))
	shadowed := rng.Perm(v.NPages)[:pages/8]
	promote := func(idx int) {
		if !e.MovePage(v, idx, 0) {
			tb.Fatalf("promotion of page %d found no room", idx)
		}
	}
	for _, idx := range shadowed {
		promote(idx)
	}
	cycle := func(idx int) {
		e.ChargeMigration(cool)
		if dst, ok := e.FlipDemote(v, idx); !ok || dst != slow {
			tb.Fatalf("flip of page %d = (%d, %v), want (%d, true)", idx, dst, ok, slow)
		}
		promote(idx)
	}
	for i := 0; i < 2*len(shadowed); i++ {
		cycle(shadowed[rng.Intn(len(shadowed))])
	}
	refs := make([]int, pages/2)
	for i := range refs {
		refs[i] = shadowed[rng.Intn(len(shadowed))]
	}
	i := 0
	return func(n int) {
		for ; n > 0; n-- {
			cycle(refs[i&(len(refs)-1)])
			i++
		}
	}, 0
}

// BenchmarkFlipDemote measures flipDemote.
func BenchmarkFlipDemote(b *testing.B) {
	b.ReportAllocs()
	benchShape(b, flipDemote)
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

// BenchmarkIntervalFidelitySample measures one fidelity-oracle sample
// over the same 2 GB interval workload BenchmarkProfilePass uses: truth
// histogram, estimate grading against MTM's fixed region table, rank
// agreement, lag transitions, and the heat row. Its ns/op against
// BenchmarkProfilePass bounds the oracle's relative wall-time cost. The
// oracle reuses planes and buffers after warm-up, so the steady state
// allocates nothing; TestFidelitySampleZeroAlloc holds it there.
func BenchmarkIntervalFidelitySample(b *testing.B) {
	e := sim.NewEngine(tier.OptaneTopology(8), 1)
	e.Interval = 10 * 1e9 / 8
	e.AS.THP = false
	pc := profiler.DefaultMTMConfig()
	pc.UsePEBS = false
	pc.AdaptiveRegions = false
	sol := policy.NewMTMVariant("mtm-fixed", profiler.NewMTM(pc), migrate.NewAdaptive(), policy.DefaultMigrateBudget)
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
