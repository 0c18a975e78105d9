package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mtm/internal/pebs"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// spreadSolution places page idx on node idx mod the node count, so refs
// to neighbouring pages land on different nodes; once that node is full
// the fault path falls back to any node with room.
type spreadSolution struct{ fixedSolution }

func (s *spreadSolution) Place(e *Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return tier.NodeID(idx % len(e.Sys.Topo.Nodes))
}

// counterModel is the per-ref model of the engine's access counters: a ref
// with N > 0 adds N to its node's accesses and N cachelines to the node's
// demand, and the ref that first touches a page also adds the page it
// zeroes to the demand of the node the page lands on.
type counterModel struct {
	nodeAcc, demand []int64
	total           int64
}

func newCounterModel(e *Engine) *counterModel {
	n := len(e.Sys.Topo.Nodes)
	return &counterModel{nodeAcc: make([]int64, n), demand: make([]int64, n)}
}

// batch issues refs as one AccessBatch and applies them to the model. It
// assumes no page moves and no fault fails during the batch.
func (m *counterModel) batch(e *Engine, refs []Ref) {
	faulting := map[Ref]bool{}
	for _, r := range refs {
		if r.N > 0 && !r.V.Present(r.Idx) {
			faulting[Ref{V: r.V, Idx: r.Idx}] = true
		}
	}
	e.AccessBatch(refs, 0)
	for _, r := range refs {
		if r.N == 0 {
			continue
		}
		node := r.V.Node(r.Idx)
		if page := (Ref{V: r.V, Idx: r.Idx}); faulting[page] {
			m.demand[node] += r.V.PageSize
			delete(faulting, page)
		}
		m.nodeAcc[node] += int64(r.N)
		m.demand[node] += int64(r.N) * CachelineBytes
		m.total += int64(r.N)
	}
}

// resetWindow starts a new bandwidth window in the model: demand restarts
// from zero, the access counts carry on.
func (m *counterModel) resetWindow() { clear(m.demand) }

// check compares the engine's counters with the model.
func (m *counterModel) check(t *testing.T, e *Engine, where string) {
	t.Helper()
	demand := make([]int64, len(m.demand))
	for i := range demand {
		demand[i] = e.Sys.Demand(tier.NodeID(i))
	}
	if !reflect.DeepEqual(demand, m.demand) {
		t.Fatalf("%s: Sys.Demand = %v, per-ref model %v", where, demand, m.demand)
	}
	if !reflect.DeepEqual(e.NodeAccesses, m.nodeAcc) {
		t.Fatalf("%s: NodeAccesses = %v, per-ref model %v", where, e.NodeAccesses, m.nodeAcc)
	}
	if e.TotalAccesses != m.total {
		t.Fatalf("%s: TotalAccesses = %d, per-ref model %d", where, e.TotalAccesses, m.total)
	}
}

// counterRefs returns a deterministic batch over pages [0, pages) of v: a
// ref with N = 0, first touches, writes and repeats of one page.
func counterRefs(v *vm.VMA, seed uint64, pages, n int) []Ref {
	refs := []Ref{{V: v, Idx: 0, N: 0}}
	x := seed
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := uint32(x>>33) % 2000
		refs = append(refs, Ref{V: v, Idx: int(x>>20) % pages, N: k, NW: k / uint32(2+x%3)})
	}
	return refs
}

// scriptWorkload runs one function per interval.
type scriptWorkload struct {
	run  func(e *Engine)
	done bool
}

func (w *scriptWorkload) Name() string          { return "script" }
func (w *scriptWorkload) Init(*Engine)          {}
func (w *scriptWorkload) RunInterval(e *Engine) { w.run(e); w.done = true }
func (w *scriptWorkload) Done() bool            { return w.done }

// TestCountersHandDriven drives an engine the way Figures 3 and 11 do
// (Sys.ResetWindow, then Access, with no RunInterval) and then through
// one RunInterval, and checks Sys.Demand, NodeAccesses and TotalAccesses
// against the per-ref model after every batch: before the first window,
// mid-window, mid-interval and after the interval ends.
func TestCountersHandDriven(t *testing.T) {
	e := NewEngine(tier.OptaneTopology(256), 1)
	e.Interval = time.Millisecond
	e.SetSolution(&spreadSolution{})
	v := e.AS.Alloc("v", 64*vm.HugePageSize)
	m := newCounterModel(e)

	// Accesses before any window, as a workload's Init issues them.
	m.batch(e, counterRefs(v, 1, 16, 40))
	m.check(t, e, "before the first window")

	e.Sys.ResetWindow(e.Interval)
	m.resetWindow()
	m.check(t, e, "after ResetWindow")
	m.batch(e, counterRefs(v, 2, 32, 300))
	m.check(t, e, "mid-window")
	for i := 0; i < 40; i++ {
		m.batch(e, []Ref{{V: v, Idx: i, N: uint32(3 + i)}})
	}
	m.check(t, e, "after single-ref calls")

	w := &scriptWorkload{run: func(e *Engine) {
		m.resetWindow() // beginInterval opened a new window
		m.check(t, e, "interval start")
		m.batch(e, counterRefs(v, 3, 48, 300))
		m.check(t, e, "mid-interval")
		m.batch(e, counterRefs(v, 4, 64, 200))
	}}
	e.RunInterval(w)
	m.check(t, e, "after RunInterval")

	e.Sys.ResetWindow(e.Interval)
	m.resetWindow()
	m.batch(e, counterRefs(v, 5, 64, 100))
	m.check(t, e, "hand-driven after RunInterval")
}

// oomWorkload first-touches pagesPer new pages of a VMA larger than the
// machine each interval, between refs to pages it already placed, so the
// run fails mid-interval. Init places a few pages first.
type oomWorkload struct {
	v        *vm.VMA
	next     int
	pagesPer int
	seed     uint64
}

func (w *oomWorkload) Name() string { return "oom" }
func (w *oomWorkload) Init(e *Engine) {
	w.v = e.AS.Alloc("oom", 256*vm.HugePageSize)
	for ; w.next < 10; w.next++ {
		e.Access(w.v, w.next, 7, 1, 0)
	}
}
func (w *oomWorkload) RunInterval(e *Engine) {
	w.seed++
	old := counterRefs(w.v, w.seed, w.next, 150)
	e.AccessBatch(old[:75], 0)
	var fresh []Ref
	for i := 0; i < w.pagesPer && w.next < w.v.NPages; i++ {
		fresh = append(fresh, Ref{V: w.v, Idx: w.next, N: uint32(5 + i), NW: 1})
		w.next++
	}
	e.AccessBatch(fresh, 0)
	e.AccessBatch(old[75:], 0)
}
func (w *oomWorkload) Done() bool { return w.next >= w.v.NPages }

// TestResultPinOOMMidInterval pins the Result counters of a run that runs
// out of memory in its fifth interval, with accesses charged before the
// failure in the same interval and in Init. Every interval's demand
// oversubscribes the tiers, so App also pins the contention each
// interval's demand feeds the next.
func TestResultPinOOMMidInterval(t *testing.T) {
	e := NewEngine(tier.OptaneTopology(4096), 1)
	e.Interval = 50 * time.Microsecond
	res, err := Run(e, &oomWorkload{pagesPer: 50}, &spreadSolution{}, 100)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	type counters struct {
		NodeAccesses         []int64
		TotalAccesses        int64
		App                  time.Duration
		Intervals            int
		Completed, Truncated bool
	}
	got := counters{res.NodeAccesses, res.TotalAccesses, res.App, res.Intervals, res.Completed, res.Truncated}
	want := counters{[]int64{110894, 105000, 296722, 148796}, 661412, 454994984 * time.Nanosecond, 5, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Result counters:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSamplerMatchesRecordModel runs batches on an engine whose PEBS
// buffer watches two of the four nodes and feeds a second buffer, armed
// alike, one Record call per ref with the node the ref landed on. The
// samples, interrupts, drops and carry bits must agree, lossless and
// under a sample-drop storm, and the batches must take samples.
func TestSamplerMatchesRecordModel(t *testing.T) {
	for _, drop := range []float64{0, 0.4} {
		e := NewEngine(tier.OptaneTopology(256), 1)
		e.SetSolution(&spreadSolution{})
		v := e.AS.Alloc("v", 64*vm.HugePageSize)
		e.PEBS = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 64)
		model := pebs.NewBuffer(len(e.Sys.Topo.Nodes), 64)
		for _, b := range []*pebs.Buffer{e.PEBS, model} {
			b.Arm(0, 2)
			b.DropFrac = drop
		}
		for seed := uint64(1); seed <= 20; seed++ {
			refs := counterRefs(v, seed, 64, 200)
			e.AccessBatch(refs, 0)
			for _, r := range refs {
				if r.N > 0 {
					model.Record(r.V, r.Idx, r.V.Node(r.Idx), r.N)
				}
			}
		}
		got, want := e.PEBS.Samples(), model.Samples()
		if len(want) == 0 || model.Interrupts() == 0 {
			t.Fatalf("drop %v: %d samples, %d interrupts; the refs must exercise the sampler", drop, len(want), model.Interrupts())
		}
		if !reflect.DeepEqual(got, want) || e.PEBS.Interrupts() != model.Interrupts() || e.PEBS.Dropped() != model.Dropped() {
			t.Fatalf("drop %v: engine took %d samples/%d interrupts/%d dropped, Record model %d/%d/%d",
				drop, len(got), e.PEBS.Interrupts(), e.PEBS.Dropped(), len(want), model.Interrupts(), model.Dropped())
		}
		if b, m := pebsCarry(e.PEBS), pebsCarry(model); b != m {
			t.Fatalf("drop %v: carry bits %#x, Record model %#x", drop, b, m)
		}
	}
}
