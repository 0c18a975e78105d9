package workload

import (
	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// PingPong is an adversarial thrash generator (not a Table 2 workload):
// two disjoint contiguous hot sets, A at the table start and B at the
// midpoint, alternate as the active set every flipOps updates. Each flip
// inverts the hotness a profiler just learned, so a policy that chases
// the histogram promotes the new set and demotes the old one — and then
// does the exact opposite a few intervals later. Without admission
// control the migration volume is almost pure waste; the admission
// layer's ping-pong cool-down and ROI gate exist to suppress exactly
// this pattern, and the thrash-regression test in CI compares
// WastedBytes with the layer on and off on this workload.
type PingPong struct {
	base

	// tableBytes is the table footprint (512 GB / scale default).
	tableBytes int64
	// flipOps is the update count between active-set flips; 0 disables
	// flipping (degenerating into a static two-set GUPS).
	flipOps int64
	// batch is the op-aggregation factor for access batching.
	batch int64

	heap     *vm.VMA
	setPages int // pages per hot set
	aStart   int // first page of set A (table-relative: 0)
	bStart   int // first page of set B (table-relative: npages/2)
	active   int // 0 = A, 1 = B
	flipLeft int64
	// Flips counts completed active-set flips (test introspection).
	Flips int

	// Draw bounds of the hot-set and whole-table draws, and the access
	// batch of one chunk: one update per draw, naming the heap. The first
	// RunInterval fills in all but the pages, which are all that change
	// from chunk to chunk.
	setB, allB rng.Bound
	refs       []sim.Ref
}

const (
	// pingpongHotFrac is the size of EACH hot set as a fraction of the
	// table (together the two sets match GUPS's 20% hot share).
	pingpongHotFrac = 0.10
	// pingpongHotAccessFrac is the access share the active set receives
	// (hotter than GUPS, so the flip is unambiguous to any profiler).
	pingpongHotAccessFrac = 0.90
)

// NewPingPong builds the thrash workload at the shared paper scale.
func NewPingPong(cfg Config) *PingPong {
	p := &PingPong{tableBytes: 512 * GB / cfg.scale(), batch: 8}
	p.name = "PingPong"
	p.totalOps = cfg.ops(2e10)
	// Eight flips per run: fast enough that chasing each one is a losing
	// trade, slow enough that each set is resident for several profiling
	// intervals and genuinely looks hot.
	p.flipOps = p.totalOps / 8
	return p
}

func (p *PingPong) Init(e *sim.Engine) {
	p.heap = e.AS.Alloc("pingpong.table", p.tableBytes)
	n := p.heap.NPages
	p.setPages = int(float64(n) * pingpongHotFrac)
	if p.setPages < 1 {
		p.setPages = 1
	}
	if p.setPages > n/2 {
		p.setPages = n / 2
	}
	p.aStart = 0
	p.bStart = n / 2
	p.active = 0
	p.flipLeft = p.flipOps
	p.setB = rng.NewBound(p.setPages)
	p.allB = rng.NewBound(n)
	initTouch(e, p.heap)
}

// Heap returns the table VMA.
func (p *PingPong) Heap() *vm.VMA { return p.heap }

// activeStart returns the first page of the currently-hot set.
func (p *PingPong) activeStart() int {
	if p.active == 0 {
		return p.aStart
	}
	return p.bStart
}

// IsHot reports ground truth: whether a page is in the active set.
func (p *PingPong) IsHot(v *vm.VMA, idx int) bool {
	if v != p.heap {
		return false
	}
	s := p.activeStart()
	return idx >= s && idx < s+p.setPages
}

func (p *PingPong) RunInterval(e *sim.Engine) {
	socket := sim.HomeSocket
	if p.refs == nil {
		b := uint32(p.batch)
		p.refs = make([]sim.Ref, opChunk/p.batch)
		for i := range p.refs {
			// Read + write of a random slot, like a GUPS update.
			p.refs[i] = sim.Ref{V: p.heap, N: 2 * b, NW: b}
		}
	}
	for !e.IntervalExhausted() && !p.Done() {
		hot := p.activeStart()
		for i := range p.refs {
			if e.Rng.Float64() < pingpongHotAccessFrac {
				p.refs[i].Idx = hot + p.setB.Draw(e.Rng)
			} else {
				p.refs[i].Idx = p.allB.Draw(e.Rng)
			}
		}
		e.AccessBatch(p.refs, socket)
		p.doneOps += opChunk
		if p.flipOps > 0 {
			p.flipLeft -= opChunk
			if p.flipLeft <= 0 {
				p.active = 1 - p.active
				p.flipLeft = p.flipOps
				p.Flips++
			}
		}
	}
}
