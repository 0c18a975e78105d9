package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
// with N > 0 adds N to its node's accesses, N cachelines to the node's
// demand and N·(latency + PerAccessCPU) to the interval's app time, and
// the ref that first touches a page also adds the fault's cost and the
// page it zeroes to the demand of the node the page lands on.
type counterModel struct {
	nodeAcc, demand []int64
	total           int64
	app             time.Duration
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
			m.app += FaultCost + e.Sys.CopyTime(0, node, node, r.V.PageSize)
			delete(faulting, page)
		}
		m.nodeAcc[node] += int64(r.N)
		m.demand[node] += int64(r.N) * CachelineBytes
		m.total += int64(r.N)
		m.app += time.Duration(r.N) * (e.latNow[0][node] + PerAccessCPU)
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
	if e.intApp != m.app {
		t.Fatalf("%s: interval app time = %d, per-ref model %d", where, e.intApp, m.app)
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
// one RunInterval, and checks Sys.Demand, NodeAccesses, TotalAccesses and
// the app time against the per-ref model after every batch: before the
// first window, mid-window, mid-interval and after the interval ends. It
// runs on each test topology.
func TestCountersHandDriven(t *testing.T) {
	for _, tt := range testTopologies() {
		t.Run(tt.name, func(t *testing.T) { testCountersHandDriven(t, tt.topo) })
	}
}

func testCountersHandDriven(t *testing.T, topo *tier.Topology) {
	e := NewEngine(topo, 1)
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
		m.app = 0       // and zeroed the app time
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

// samplerPair returns an engine under sol with one VMA v of 64 huge pages
// and a PEBS buffer of the given capacity, and a model buffer. arm applies
// to both buffers.
func samplerPair(sol Solution, capacity int, arm func(*pebs.Buffer)) (e *Engine, v *vm.VMA, model *pebs.Buffer) {
	e = NewEngine(tier.OptaneTopology(256), 1)
	e.SetSolution(sol)
	v = e.AS.Alloc("v", 64*vm.HugePageSize)
	e.PEBS = pebs.NewBuffer(len(e.Sys.Topo.Nodes), capacity)
	model = pebs.NewBuffer(len(e.Sys.Topo.Nodes), capacity)
	arm(e.PEBS)
	arm(model)
	return e, v, model
}

// batchAndModel issues refs as one AccessBatch and feeds the model one
// Record call per ref with N > 0, with the node the ref landed on.
func batchAndModel(e *Engine, model *pebs.Buffer, refs []Ref) {
	e.AccessBatch(refs, 0)
	for _, r := range refs {
		if r.N > 0 {
			model.Record(r.V, r.Idx, r.V.Node(r.Idx), r.N)
		}
	}
}

// sameSampler fails t unless the engine's buffer and the Record model hold
// the same samples, interrupts, drops and carry bits.
func sameSampler(t *testing.T, e *Engine, model *pebs.Buffer, where string) {
	t.Helper()
	got, want := e.PEBS.Samples(), model.Samples()
	if !reflect.DeepEqual(got, want) || e.PEBS.Interrupts() != model.Interrupts() || e.PEBS.Dropped() != model.Dropped() {
		t.Fatalf("%s: engine took %d samples/%d interrupts/%d dropped, Record model %d/%d/%d",
			where, len(got), e.PEBS.Interrupts(), e.PEBS.Dropped(), len(want), model.Interrupts(), model.Dropped())
	}
	if b, m := pebsCarry(e.PEBS), pebsCarry(model); b != m {
		t.Fatalf("%s: carry bits %#x, Record model %#x", where, b, m)
	}
}

// TestSamplerMatchesRecordModel runs batches on an engine whose PEBS
// buffer watches two of the four nodes and feeds a second buffer, armed
// alike, one Record call per ref with the node the ref landed on. The
// samples, interrupts, drops and carry bits must agree, lossless and
// under a sample-drop storm, and the batches must take samples. It runs
// under spreadSolution and under runSolution, which places on a watched
// node.
func TestSamplerMatchesRecordModel(t *testing.T) {
	for _, drop := range []float64{0, 0.4} {
		for _, sol := range []Solution{&spreadSolution{}, &runSolution{first: 2}} {
			e, v, model := samplerPair(sol, 64, func(b *pebs.Buffer) {
				b.Arm(0, 2)
				b.DropFrac = drop
			})
			for seed := uint64(1); seed <= 20; seed++ {
				batchAndModel(e, model, counterRefs(v, seed, 64, 200))
			}
			where := fmt.Sprintf("%s, drop %v", sol.Name(), drop)
			if len(model.Samples()) == 0 || model.Interrupts() == 0 {
				t.Fatalf("%s: %d samples, %d interrupts; the refs must exercise the sampler", where, len(model.Samples()), model.Interrupts())
			}
			sameSampler(t, e, model, where)
		}
	}
}

// FuzzSamplerMatchesRecord decodes its bytes into a sampler setting and
// one batch, and checks the batch's samples, interrupts, drops and carry
// bits against one Record call per ref. The first byte is the watched
// node set (bits 0–3; bit 4 disarms both buffers) and the solution (bit
// 5: runSolution, from the lowest watched node (or 0) up; otherwise
// spreadSolution, where a ref's page picks its node, mod 4). The next two are a WindowFrac in (0, 1], the
// next the buffer's capacity, and every 7 bytes after them one ref: its
// page, a shift s, a 32-bit x, so that N is x >> (s mod 32) and small
// values are common, and its write count.
func FuzzSamplerMatchesRecord(f *testing.F) {
	for _, seed := range []struct {
		mask     byte
		frac     uint16 // WindowFrac is (frac+1)/2^16
		capacity byte
		ns       []uint32
	}{
		{0b1100, 6553, 8, []uint32{1000, 3, 2500, 70, 4000, 1, 600, 199}}, // the PM nodes, as MTM arms them
		{0b0101, 0xffff, 63, []uint32{200, 1, 199, 400, 0, 7, 1 << 20}},   // HeMem's WindowFrac of 1
		{0b0000, 0x8000, 1, []uint32{50, 60, 1 << 16}},
		{0b11111, 0x8000, 1, []uint32{50, 60, 1 << 16}},
		{0b101100, 6553, 8, []uint32{1000, 3, 2500, 70, 4000, 1, 600, 199}}, // runSolution on a PM node
		{0b100001, 0xffff, 63, []uint32{200, 1, 199, 400, 0, 7, 1 << 20}},
	} {
		data := []byte{seed.mask, byte(seed.frac), byte(seed.frac >> 8), seed.capacity}
		for i := range 40 {
			data = append(data, byte(i%8), 0) // the first 8 refs fault, the rest hit
			data = binary.LittleEndian.AppendUint32(data, seed.ns[i%len(seed.ns)])
			data = append(data, byte(i%3))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mask, frac, capacity := data[0], float64(binary.LittleEndian.Uint16(data[1:])+1)/(1<<16), int(data[3]%64)+1
		var sol Solution = &spreadSolution{}
		if mask&0x20 != 0 {
			sol = &runSolution{first: tier.NodeID(bits.TrailingZeros8(mask&0xf) % 4)}
		}
		e, v, model := samplerPair(sol, capacity, func(b *pebs.Buffer) {
			b.WindowFrac = frac
			var nodes []tier.NodeID
			for n := range 4 {
				if mask>>n&1 != 0 {
					nodes = append(nodes, tier.NodeID(n))
				}
			}
			b.Arm(nodes...)
			if mask&0x10 != 0 {
				b.Disarm()
			}
		})
		var refs []Ref
		for rest := data[4:]; len(rest) >= 7 && len(refs) < 64; rest = rest[7:] {
			n := binary.LittleEndian.Uint32(rest[2:]) >> (rest[1] % 32)
			refs = append(refs, Ref{V: v, Idx: int(rest[0]) % v.NPages, N: n, NW: uint32(rest[6])})
		}
		batchAndModel(e, model, refs)
		sameSampler(t, e, model, fmt.Sprintf("watched %#x, frac %v, capacity %d", mask, frac, capacity))
	})
}
