package workload

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

type ftSolution struct{}

func (*ftSolution) Name() string { return "ft" }
func (*ftSolution) Place(e *sim.Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return e.Sys.FirstFit(e.Sys.Topo.View(socket), v.PageSize)
}
func (*ftSolution) IntervalStart(*sim.Engine) {}
func (*ftSolution) IntervalEnd(*sim.Engine)   {}

func testEngine() *sim.Engine {
	e := sim.NewEngine(tier.OptaneTopology(256), 1)
	e.Interval = 10 * time.Second / 256
	e.SetSolution(&ftSolution{})
	return e
}

func cfg() Config { return Config{Scale: 256, OpsFactor: 0.05} }

func drive(t *testing.T, w sim.Workload, maxIntervals int) *sim.Engine {
	t.Helper()
	e := testEngine()
	w.Init(e)
	for i := 0; i < maxIntervals && !w.Done(); i++ {
		e.RunInterval(w)
	}
	return e
}

// builders constructs each of the seven workloads.
var builders = map[string]func(Config) sim.Workload{
	"gups":      func(c Config) sim.Workload { return NewGUPS(c) },
	"voltdb":    func(c Config) sim.Workload { return NewVoltDB(c) },
	"cassandra": func(c Config) sim.Workload { return NewCassandra(c) },
	"bfs":       NewBFS,
	"sssp":      NewSSSP,
	"spark":     func(c Config) sim.Workload { return NewSpark(c) },
	"pingpong":  func(c Config) sim.Workload { return NewPingPong(c) },
}

func TestAllWorkloadsRun(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			w := build(cfg())
			e := drive(t, w, 2048)
			if !w.Done() {
				t.Fatalf("%s did not complete", name)
			}
			if e.TotalAccesses == 0 {
				t.Fatalf("%s issued no accesses", name)
			}
			if e.AS.PresentBytes() == 0 {
				t.Fatalf("%s mapped no memory", name)
			}
		})
	}
}

func TestFootprintsScaleWithConfig(t *testing.T) {
	// Table 2 footprints divided by scale, within huge-page rounding.
	check := func(name string, got, wantGB int64, scale int64) {
		want := wantGB * GB / scale
		if got < want*8/10 || got > want*13/10 {
			t.Errorf("%s footprint = %dMB, want ~%dMB", name, got>>20, want>>20)
		}
	}
	e := testEngine()
	g := NewGUPS(Config{Scale: 256})
	g.Init(e)
	check("gups", e.AS.TotalBytes(), 512, 256)

	e2 := testEngine()
	c := NewCassandra(Config{Scale: 256})
	c.Init(e2)
	check("cassandra", e2.AS.TotalBytes(), 400, 256)
}

func TestGUPSHotSetShape(t *testing.T) {
	e := testEngine()
	g := NewGUPS(Config{Scale: 256})
	g.Init(e)
	start, end := g.tableStart, g.infoStart
	hot := 0
	for i := start; i < end; i++ {
		if g.IsHot(g.Heap(), i) {
			hot++
		}
	}
	frac := float64(hot) / float64(end-start)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("hot fraction = %.2f, want ~0.20", frac)
	}
}

func TestGUPSHotTrafficShare(t *testing.T) {
	e := testEngine()
	g := NewGUPS(Config{Scale: 256, OpsFactor: 0.02})
	g.Init(e)
	// Drive the workload directly (no interval-end reset) so the
	// ground-truth counters stay inspectable.
	g.RunInterval(e)
	var hotCount, total uint64
	tb := g.Heap()
	start, end := g.tableStart, g.infoStart
	for i := start; i < end; i++ {
		c := uint64(tb.Count(i))
		total += c
		if g.IsHot(tb, i) {
			hotCount += c
		}
	}
	share := float64(hotCount) / float64(total)
	if share < 0.7 || share > 0.9 {
		t.Fatalf("hot traffic share = %.2f, want ~0.8", share)
	}
}

func TestGUPSDriftChangesHotSet(t *testing.T) {
	e := testEngine()
	g := NewGUPS(Config{Scale: 256, OpsFactor: 0.5})
	g.Init(e)
	before := append([]int32(nil), g.hotPages...)
	for i := 0; i < 40 && !g.Done(); i++ {
		e.RunInterval(g)
	}
	same := 0
	set := map[int32]bool{}
	for _, p := range before {
		set[p] = true
	}
	for _, p := range g.hotPages {
		if set[p] {
			same++
		}
	}
	if same == len(before) {
		t.Fatal("hot set did not drift")
	}
}

func TestGUPSEpochRedraw(t *testing.T) {
	e := testEngine()
	g := NewGUPSSized(2*GB, 1<<40)
	g.EpochOps = opChunk // redraw every chunk
	g.DriftOps = 0
	g.Init(e)
	before := append([]int32(nil), g.hotPages...)
	e.RunInterval(g)
	diff := 0
	set := map[int32]bool{}
	for _, p := range before {
		set[p] = true
	}
	for _, p := range g.hotPages {
		if !set[p] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("epoch redraw did not change the hot set")
	}
}

func TestVoltDBHomeWarehouseLocality(t *testing.T) {
	e := testEngine()
	w := NewVoltDB(Config{Scale: 256, OpsFactor: 0.05})
	w.Init(e)
	w.RunInterval(e) // drive directly so counters stay inspectable
	// The stock table slices of the 8 home warehouses must be much
	// hotter per byte than the rest.
	homeBytes := map[int]bool{}
	for _, h := range w.homes {
		homeBytes[h] = true
	}
	var homeCount, otherCount uint64
	var homeN, otherN int
	st := w.stock
	perWh := w.stockPerWh
	for i := 0; i < st.NPages; i++ {
		wh := int(int64(i) * st.PageSize / perWh)
		c := uint64(st.Count(i))
		if homeBytes[wh] {
			homeCount += c
			homeN++
		} else {
			otherCount += c
			otherN++
		}
	}
	if homeN == 0 || otherN == 0 {
		t.Skip("degenerate warehouse split")
	}
	homeRate := float64(homeCount) / float64(homeN)
	otherRate := float64(otherCount) / float64(otherN)
	if homeRate <= 2*otherRate {
		t.Fatalf("home warehouses not hot: %.1f vs %.1f accesses/page", homeRate, otherRate)
	}
}

func TestCassandraZipfSkew(t *testing.T) {
	e := testEngine()
	c := NewCassandra(Config{Scale: 256, OpsFactor: 0.05})
	c.Init(e)
	c.RunInterval(e)
	// Zipfian keys: the hottest 10% of data pages take a large share of
	// traffic.
	var counts []int
	var total int
	for i := 0; i < c.data.NPages; i++ {
		counts = append(counts, int(c.data.Count(i)))
		total += int(c.data.Count(i))
	}
	if total == 0 {
		t.Fatal("no data traffic")
	}
	// Top decile by count.
	top := 0
	threshold := percentile(counts, 90)
	for _, ct := range counts {
		if ct >= threshold {
			top += ct
		}
	}
	if share := float64(top) / float64(total); share < 0.3 {
		t.Fatalf("top-decile share = %.2f, want skew >= 0.3", share)
	}
}

func percentile(xs []int, p int) int {
	cp := append([]int(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	return cp[len(cp)*p/100]
}

func TestGraphTraversalVisitsEverything(t *testing.T) {
	w := newWalk(Config{Scale: 4096, OpsFactor: 0.02}, false)
	e := drive(t, w, 2048)
	if !w.Done() {
		t.Fatal("BFS did not finish")
	}
	// A BFS over a random 18-degree graph reaches essentially all
	// vertices.
	visited := 0
	for _, word := range w.visited {
		for ; word != 0; word &= word - 1 {
			visited++
		}
	}
	if float64(visited) < 0.9*float64(w.nVertices) {
		t.Fatalf("visited %d of %d vertices", visited, w.nVertices)
	}
	_ = e
}

func TestSSSPDistancesSettle(t *testing.T) {
	w := newWalk(Config{Scale: 4096, OpsFactor: 0.02}, true)
	drive(t, w, 4096)
	if !w.Done() {
		t.Fatal("SSSP did not finish")
	}
	reached := 0
	for _, d := range w.dist {
		if d != ^uint32(0) {
			reached++
		}
	}
	if float64(reached) < 0.9*float64(w.nVertices) {
		t.Fatalf("reached %d of %d vertices", reached, w.nVertices)
	}
}

func TestGraphDeterministicStructure(t *testing.T) {
	e1, e2 := testEngine(), testEngine()
	g1 := newGraph(e1, 1000, 8)
	g2 := newGraph(e2, 1000, 8)
	if g1.nEdges != g2.nEdges {
		t.Fatal("graph generation not deterministic")
	}
	for v := 0; v < 1000; v += 97 {
		if g1.neighbor(v, 0) != g2.neighbor(v, 0) || g1.weight(v, 0) != g2.weight(v, 0) {
			t.Fatal("adjacency not deterministic")
		}
	}
}

func TestGraphHasHubs(t *testing.T) {
	e := testEngine()
	g := newGraph(e, 10000, 16)
	maxDeg, sumDeg := int64(0), int64(0)
	for v := 0; v < g.N; v++ {
		d := g.offsets[v+1] - g.offsets[v]
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := sumDeg / int64(g.N)
	if maxDeg < 8*avg {
		t.Fatalf("max degree %d not hub-like vs avg %d", maxDeg, avg)
	}
}

func TestSparkPhasesProgress(t *testing.T) {
	w := NewSpark(Config{Scale: 1024, OpsFactor: 0.2})
	e := testEngine()
	w.Init(e)
	for i := 0; i < 4096 && !w.Done(); i++ {
		e.RunInterval(w)
	}
	if !w.Done() {
		t.Fatal("terasort did not finish")
	}
	for ph := 0; ph < 4; ph++ {
		if w.phaseDone[ph] == 0 {
			t.Fatalf("phase %d never ran", ph)
		}
	}
}

func TestTouchRangeCoversPages(t *testing.T) {
	e := testEngine()
	v := e.AS.Alloc("r", 8*vm.HugePageSize)
	e.AccessBatch(touchRange(nil, v, 0, 3*vm.HugePageSize, 100, false), sim.HomeSocket)
	for i := 0; i < 3; i++ {
		if v.Count(i) == 0 {
			t.Fatalf("page %d not touched", i)
		}
	}
	if v.Count(3) != 0 {
		t.Fatal("touchRange overran")
	}
	// Element counting: 2MB / 100B ≈ 20972 per page.
	if c := v.Count(0); c < 20000 || c > 22000 {
		t.Fatalf("page 0 count = %d, want ~20971", c)
	}
}

// TestTouchRangeWrapsAtVMAEnd checks that a scan reaching the end of its
// VMA continues from the start instead of naming a page past the end.
func TestTouchRangeWrapsAtVMAEnd(t *testing.T) {
	e := testEngine()
	v := e.AS.Alloc("r", 4*vm.HugePageSize)
	half := int64(vm.HugePageSize / 2)
	refs := touchRange(nil, v, v.Bytes()-half, 3*half, 100, true)
	// Half a page is 10,485.76 records, a whole page 20,971.52.
	want := []sim.Ref{
		{V: v, Idx: 3, N: 10486, NW: 10486},
		{V: v, Idx: 0, N: 20972, NW: 20972},
	}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %+v, want %+v", refs, want)
	}
}

// TestChunksIgnoreEngine checks that a workload's chunks depend on its own
// state and the random stream alone: NextChunk called on an engine that
// never issues a chunk returns the refs, in order, that an Observer sees
// in a normal run from the same seed.
func TestChunksIgnoreEngine(t *testing.T) {
	const chunks = 64
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			gen, e := build(cfg()), testEngine()
			gen.Init(e)
			var want []sim.Ref
			for i := 0; i < chunks && !gen.Done(); i++ {
				for _, r := range gen.(sim.Chunked).NextChunk(e.Rng) {
					if r.N != 0 {
						want = append(want, r)
					}
				}
			}

			w, run := build(cfg()), testEngine()
			w.Init(run)
			seen, bad := 0, ""
			run.Observer = func(v *vm.VMA, idx int, n, nw uint32, _ int) {
				if seen < len(want) && bad == "" {
					if r := want[seen]; r.V.Name != v.Name || r.Idx != idx || r.N != n || r.NW != nw {
						bad = fmt.Sprintf("ref %d of %d: NextChunk gave %s[%d] n=%d nw=%d, the run issued %s[%d] n=%d nw=%d",
							seen, len(want), r.V.Name, r.Idx, r.N, r.NW, v.Name, idx, n, nw)
					}
				}
				seen++
			}
			for seen < len(want) && bad == "" && !w.Done() {
				run.RunInterval(w)
			}
			switch {
			case bad != "":
				t.Fatal(bad)
			case seen < len(want):
				t.Fatalf("the run issued %d refs, NextChunk %d", seen, len(want))
			}
		})
	}
}

func TestInitTouchMakesEverythingPresent(t *testing.T) {
	e := testEngine()
	g := NewGUPS(Config{Scale: 512})
	g.Init(e)
	for _, v := range e.AS.VMAs() {
		for i := 0; i < v.NPages; i++ {
			if !v.Present(i) {
				t.Fatalf("%s page %d not present after init", v.Name, i)
			}
			if v.Count(i) != 0 {
				t.Fatal("init did not reset ground-truth counters")
			}
		}
	}
}

func TestConfigOps(t *testing.T) {
	c := Config{Scale: 64, OpsFactor: 0.5}
	if got := c.ops(6400); got != 50 {
		t.Fatalf("ops = %d, want 50", got)
	}
	var zero Config
	if zero.ops(64) != 1 {
		t.Fatal("zero config ops floor broken")
	}
}

func TestZipfSampler(t *testing.T) {
	e := testEngine()
	z := newZipf(1000)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.next(e.Rng.Float64(), e.Rng)]++
	}
	if counts[0] < counts[500]*10 {
		t.Fatalf("zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
}
