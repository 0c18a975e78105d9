package profiler

import (
	"math/rand"
	"testing"
	"time"

	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

type nullSolution struct{ node tier.NodeID }

func (n *nullSolution) Name() string { return "null" }
func (n *nullSolution) Place(e *sim.Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return n.node
}
func (*nullSolution) IntervalStart(*sim.Engine) {}
func (*nullSolution) IntervalEnd(*sim.Engine)   {}

// hotColdEngine builds an engine with one VMA on `node` whose first
// hotPages pages are hammered and the rest touched lightly. The returned
// workload drives one round of that traffic per interval, and the
// profiler under test runs through the engine's interval loop so its
// charges land in the engine's totals.
func hotColdEngine(t *testing.T, pages, hotPages int, node tier.NodeID, p Profiler) (*sim.Engine, *hotColdWorkload) {
	t.Helper()
	e := sim.NewEngine(tier.OptaneTopology(256), 1)
	e.Interval = 40 * time.Millisecond
	e.SetSolution(&profSolution{p: p, node: node})
	w := &hotColdWorkload{pages: pages, hot: hotPages}
	w.Init(e)
	return e, w
}

// profSolution adapts a bare Profiler into a Solution with fixed
// placement and no migration.
type profSolution struct {
	p    Profiler
	node tier.NodeID
}

func (s *profSolution) Name() string { return "profiler-under-test" }
func (s *profSolution) Place(e *sim.Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return s.node
}
func (s *profSolution) IntervalStart(e *sim.Engine) {
	if e.Intervals == 0 {
		s.p.Attach(e)
	}
	s.p.IntervalStart(e)
}
func (s *profSolution) IntervalEnd(e *sim.Engine) { s.p.Profile(e) }

type hotColdWorkload struct {
	v     *vm.VMA
	pages int
	hot   int
	runs  int
}

func (w *hotColdWorkload) Name() string { return "hotcold" }
func (w *hotColdWorkload) Init(e *sim.Engine) {
	w.v = e.AS.Alloc("data", int64(w.pages)*vm.HugePageSize)
	// Fault everything in so region/tier state is stable from the start.
	for i := 0; i < w.v.NPages; i++ {
		e.Access(w.v, i, 1, 0, 0)
	}
}
func (w *hotColdWorkload) RunInterval(e *sim.Engine) {
	for i := 0; i < w.v.NPages; i++ {
		if i < w.hot {
			e.Access(w.v, i, 2000, 1000, 0)
		} else {
			e.Access(w.v, i, 30, 15, 0)
		}
	}
	w.runs++
}
func (w *hotColdWorkload) Done() bool { return false }

func interval(e *sim.Engine, w *hotColdWorkload) { e.RunInterval(w) }

func hotDetection(p Profiler, v *vm.VMA, hotPages int) (recall, accuracy float64) {
	want := int64(hotPages) * v.PageSize
	detected := HotBytes(p.Regions(), want)
	var det, correct int64
	for _, r := range detected {
		for i := r.Start; i < r.End; i++ {
			det += v.PageSize
			if r.V == v && i < hotPages {
				correct += v.PageSize
			}
		}
	}
	if det == 0 {
		return 0, 0
	}
	return float64(correct) / float64(want), float64(correct) / float64(det)
}

func TestMTMBudgetEquation(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, _ := hotColdEngine(t, 8, 2, 2, m)
	m.Attach(e)
	// Equation 1: num_ps = t_mi * target / (one_scan_overhead * num_scans).
	want := int(float64(e.Interval) * 0.05 / (float64(MTMScanCost) * 3))
	if m.Budget() != want {
		t.Fatalf("budget = %d, want %d", m.Budget(), want)
	}
}

func TestMTMOverheadConstraint(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, w := hotColdEngine(t, 64, 13, 2, m)
	for i := 0; i < 10; i++ {
		interval(e, w)
	}
	// Total profiling charge must stay within ~the 5% target per
	// interval (small PEBS handling slack allowed).
	perInterval := e.TotalProf / 10
	limit := time.Duration(float64(e.Interval) * 0.055)
	if perInterval > limit {
		t.Fatalf("profiling %v/interval exceeds target %v", perInterval, limit)
	}
	if e.TotalProf == 0 {
		t.Fatal("profiling charged nothing")
	}
}

func TestMTMFindsHotPages(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, w := hotColdEngine(t, 64, 13, 2, m)
	for i := 0; i < 8; i++ {
		interval(e, w)
	}
	recall, acc := hotDetection(m, w.v, 13)
	if recall < 0.7 || acc < 0.7 {
		t.Fatalf("recall=%.2f acc=%.2f, want both >= 0.7", recall, acc)
	}
}

func TestMTMBeatsDAMONOnHotDetection(t *testing.T) {
	// The Figure 1 headline at unit-test scale: same scenario, MTM's
	// detection quality must exceed DAMON's.
	m := NewMTM(DefaultMTMConfig())
	eM, wM := hotColdEngine(t, 128, 26, 2, m)
	d := NewDAMON()
	eD, wD := hotColdEngine(t, 128, 26, 2, d)
	for i := 0; i < 6; i++ {
		interval(eM, wM)
		interval(eD, wD)
	}
	mr, ma := hotDetection(m, wM.v, 26)
	dr, da := hotDetection(d, wD.v, 26)
	t.Logf("MTM recall=%.2f acc=%.2f | DAMON recall=%.2f acc=%.2f", mr, ma, dr, da)
	if mr+ma <= dr+da {
		t.Fatalf("MTM (%.2f+%.2f) not better than DAMON (%.2f+%.2f)", mr, ma, dr, da)
	}
}

func TestMTMRegionCountUnderBudget(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, w := hotColdEngine(t, 256, 51, 2, m)
	for i := 0; i < 12; i++ {
		interval(e, w)
	}
	if m.Set().Len() > m.Budget() {
		t.Fatalf("regions %d exceed sample budget %d after overhead control", m.Set().Len(), m.Budget())
	}
}

func TestMTMQuotaRespectsBudget(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, w := hotColdEngine(t, 64, 13, 2, m)
	for i := 0; i < 5; i++ {
		interval(e, w)
		if q := m.Set().TotalQuota(); q > m.Budget()+m.Set().Len() {
			t.Fatalf("interval %d: quota %d far exceeds budget %d", i, q, m.Budget())
		}
	}
}

func TestMTMWithoutPEBSProfilesEverything(t *testing.T) {
	cfg := DefaultMTMConfig()
	cfg.UsePEBS = false
	m := NewMTM(cfg)
	e, w := hotColdEngine(t, 32, 6, 2, m)
	interval(e, w)
	if e.PEBS != nil {
		t.Fatal("PEBS buffer installed despite UsePEBS=false")
	}
	for _, r := range m.Regions() {
		if !r.Sampled {
			t.Fatalf("region %v not profiled without PEBS gating", r)
		}
	}
}

func TestMTMWithoutAMRKeepsRegions(t *testing.T) {
	cfg := DefaultMTMConfig()
	cfg.AdaptiveRegions = false
	m := NewMTM(cfg)
	e, w := hotColdEngine(t, 32, 6, 2, m)
	interval(e, w)
	n0 := m.Set().Len()
	for i := 0; i < 5; i++ {
		interval(e, w)
	}
	if m.Set().Len() != n0 {
		t.Fatalf("regions changed %d -> %d with AMR disabled", n0, m.Set().Len())
	}
}

func TestMTMWithoutOCSpendsMore(t *testing.T) {
	// §9.3: with τm=τs=0 (no merging/splitting) and no scan budget, the
	// region count stays at its maximum and profiling time multiplies
	// (3x in the paper). PEBS gating is disabled on both sides so the
	// comparison isolates the overhead-control mechanism.
	base := DefaultMTMConfig()
	base.UsePEBS = false
	a := NewMTM(base)
	eA, wA := hotColdEngine(t, 1024, 205, 2, a)

	noOC := base
	noOC.OverheadControl = false
	noOC.TauM, noOC.TauS = 0, 0
	b := NewMTM(noOC)
	eB, wB := hotColdEngine(t, 1024, 205, 2, b)

	for i := 0; i < 6; i++ {
		interval(eA, wA)
		interval(eB, wB)
	}
	if eB.TotalProf <= eA.TotalProf {
		t.Fatalf("w/o OC profiling %v <= with OC %v; expected increase", eB.TotalProf, eA.TotalProf)
	}
}

func TestDAMONRegionCap(t *testing.T) {
	const maxRegions = 50
	d := NewDAMON()
	e, w := hotColdEngine(t, 512, 100, 2, d)
	interval(e, w) // attaches, deriving the cap from the budget
	d.maxRegions = maxRegions
	for i := 0; i < 10; i++ {
		interval(e, w)
		if d.Set().Len() > maxRegions {
			t.Fatalf("DAMON regions %d exceed cap %d", d.Set().Len(), maxRegions)
		}
	}
	// Splitting grew the table from its one VMA region, and every region
	// carries the hotness of its checks.
	if d.Set().Len() <= len(e.AS.VMAs()) {
		t.Fatalf("DAMON never split: %d regions", d.Set().Len())
	}
	for _, r := range d.Regions() {
		if !r.Sampled {
			t.Fatalf("region %v was never checked", r)
		}
	}
}

func TestDAMONStartsFromVMATree(t *testing.T) {
	d := NewDAMON()
	e, _ := hotColdEngine(t, 32, 6, 2, d)
	d.Attach(e)
	if got := d.Set().Len(); got != len(e.AS.VMAs()) {
		t.Fatalf("initial regions = %d, want one per VMA (%d)", got, len(e.AS.VMAs()))
	}
}

func TestThermostatBudget(t *testing.T) {
	th := NewThermostat()
	e, w := hotColdEngine(t, 256, 51, 2, th)
	for i := 0; i < 5; i++ {
		interval(e, w)
	}
	perInterval := e.TotalProf / 5
	if perInterval > time.Duration(float64(e.Interval)*0.08) {
		t.Fatalf("thermostat profiling %v/interval blows budget", perInterval)
	}
	sampled := 0
	for _, r := range th.Regions() {
		if r.Sampled {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("thermostat sampled nothing")
	}
	if sampled == len(th.Regions()) {
		t.Fatal("thermostat sampled everything; random selection should be partial under budget")
	}
}

func TestRandomChunkCoverage(t *testing.T) {
	rc := NewRandomChunk()
	e, w := hotColdEngine(t, 512, 100, 2, rc)
	interval(e, w)
	var covered int64
	for _, r := range rc.Regions() {
		if r.Sampled {
			covered += r.Bytes()
		}
	}
	// One interval covers ~256MB.
	if covered < ChunkBytes/2 || covered > 2*ChunkBytes {
		t.Fatalf("covered %dMB, want ~256MB", covered>>20)
	}
}

func TestSequentialScanAdvances(t *testing.T) {
	sc := NewSequentialScan(true)
	e, w := hotColdEngine(t, 512, 100, 2, sc)
	interval(e, w)
	count := func() int {
		n := 0
		for _, r := range sc.Regions() {
			if r.Sampled {
				n++
			}
		}
		return n
	}
	first := count()
	interval(e, w)
	// The cursor advances: coverage grows across intervals.
	if second := count(); second <= first {
		t.Fatalf("sequential scan did not advance: %d then %d", first, second)
	}
}

func TestRegionNodeHelpers(t *testing.T) {
	m := NewMTM(DefaultMTMConfig())
	e, _ := hotColdEngine(t, 8, 2, 3, m)
	m.Attach(e)
	r := m.Regions()[0]
	if RegionNode(r) != 3 {
		t.Fatalf("RegionNode = %d, want 3", RegionNode(r))
	}
}

func TestSamplePagesDistinctAndInRange(t *testing.T) {
	e, _ := hotColdEngine(t, 8, 2, 2, NewMTM(DefaultMTMConfig()))
	for _, n := range []int{1, 3, 10, 64} {
		pages := samplePagesInto(nil, e.Scratch(), rand.New(e.Rng), 16, 48, n)
		seen := map[int]bool{}
		for _, p := range pages {
			if p < 16 || p >= 48 {
				t.Fatalf("sample %d out of [16,48)", p)
			}
			if seen[p] {
				t.Fatalf("duplicate sample %d (n=%d)", p, n)
			}
			seen[p] = true
		}
		want := n
		if want > 32 {
			want = 32
		}
		if len(pages) != want {
			t.Fatalf("n=%d: got %d samples, want %d", n, len(pages), want)
		}
	}
}

// TestMTMSplitHonoursAlpha: at α = 0 (history only) an EMA update never
// takes in the interval's hotness, so every region keeps the WHI it
// started with, 0. A split half must blend with the same α and so
// inherit its parent's WHI; a half that re-blended its own samples at
// any other weight would read hot.
func TestMTMSplitHonoursAlpha(t *testing.T) {
	cfg := DefaultMTMConfig()
	cfg.Alpha = 0
	m := NewMTM(cfg)
	e, w := hotColdEngine(t, 512, 100, 2, m)
	for i := 0; i < 20; i++ {
		interval(e, w)
	}
	if m.Set().Split == 0 {
		t.Fatal("no region split; the fixture no longer exercises SplitPass")
	}
	for _, r := range m.Regions() {
		if r.WHI != 0 {
			t.Fatalf("%v: WHI %v at α = 0, want the parent's 0", r, r.WHI)
		}
	}
}
