package workload

import (
	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// GUPS is the Giga-Updates-Per-Second kernel (Table 2): random updates to
// a large table where 20% of the footprint, the hot set, receives 80% of
// the accesses (§9.3). The three data objects of Figure 6 live in one
// heap VMA, exactly as a malloc'd process image would lay them out: the
// index array ("A"), the hot-set descriptor ("B"), and the table whose
// hot blocks form "C". Keeping them in one VMA matters for the DAMON
// comparison: DAMON's initial regions come from the VMA tree, so objects
// inside a large heap are invisible to it until enough random splits
// happen to isolate them.
type GUPS struct {
	base

	// tableBytes is the update table footprint (512 GB / scale default).
	tableBytes int64
	// EpochOps is the update count between full hot-set re-draws; 0
	// disables them (the profiling-variance experiments enable them).
	EpochOps int64
	// DriftOps is the update count between single-block drifts: one hot
	// block moves to a random location, so the hot set turns over
	// gradually — the temporal variance of §9.3 at a rate a migrating
	// policy can track but a static placement cannot. 0 disables drift.
	DriftOps int64
	// batch is the op-aggregation factor for access batching.
	batch int64

	heap       *vm.VMA
	indexPages int // heap prefix: A
	infoPages  int // heap suffix: B
	tableStart int // first table page (C lives here)
	infoStart  int // first page of B, after the table

	hotBlocks  []int // block start pages, table-relative
	blockPages int
	hotPages   []int32 // flattened hot page list, table-relative
	isHot      []bool  // per table page
	epochLeft  int64
	driftLeft  int64
	nextDrift  int

	// Draw bounds of the index, descriptor, hot-page and table draws, and
	// the access batch of one chunk: per draw an index read, a descriptor
	// read and a table update, each naming the heap. The first RunInterval
	// fills in all but the pages, which are all that change from chunk to
	// chunk.
	indexB, infoB, hotB, tableB rng.Bound
	refs                        []sim.Ref
}

const (
	gupsHotFrac       = 0.20 // hot share of the table
	gupsHotAccessFrac = 0.80 // access share the hot set receives
)

// NewGUPS builds GUPS with the paper's 512 GB working set divided by the
// configured scale.
func NewGUPS(cfg Config) *GUPS {
	g := &GUPS{tableBytes: 512 * GB / cfg.scale(), batch: 8}
	g.name = "GUPS"
	g.totalOps = cfg.ops(2e10)
	// The hot set drifts one block at a time (half the hot set turns
	// over across a full run — slow enough for a migrating policy to
	// track, fast enough to strand a static placement); the
	// profiling-variance experiments of Figures 1 and 6 use EpochOps
	// for abrupt re-draws instead.
	g.DriftOps = g.totalOps / 16
	return g
}

// NewGUPSSized builds a GUPS with an explicit table size and update
// count; the two-tier HeMem comparison (Figure 12) sweeps the size.
func NewGUPSSized(tableBytes, totalOps int64) *GUPS {
	g := &GUPS{tableBytes: tableBytes, batch: 8}
	g.name = "GUPS"
	g.totalOps = totalOps
	return g
}

func (g *GUPS) Init(e *sim.Engine) {
	// One heap, allocation order [A: index][C: table][B: hot-set info]:
	// the small hot descriptor B sits deep inside the address space, far
	// from A, which is what makes coarse region formation miss it
	// (Figure 6).
	indexBytes := maxI64(g.tableBytes/50, 4*MB)
	infoBytes := int64(4 * MB)
	g.heap = e.AS.Alloc("gups.heap", indexBytes+infoBytes+g.tableBytes)
	g.indexPages = int(indexBytes / g.heap.PageSize)
	g.infoPages = int(infoBytes / g.heap.PageSize)
	g.tableStart = g.indexPages
	g.infoStart = g.heap.NPages - g.infoPages
	g.isHot = make([]bool, g.tablePages())
	g.indexB = rng.NewBound(g.indexPages)
	g.infoB = rng.NewBound(g.infoPages)
	g.tableB = rng.NewBound(g.tablePages())
	g.drawHotSet(e)
	initTouch(e, g.heap)
}

func (g *GUPS) tablePages() int { return g.infoStart - g.tableStart }

// Heap returns the single heap VMA.
func (g *GUPS) Heap() *vm.VMA { return g.heap }

// TableRange returns the heap page range [start, end) of the table.
func (g *GUPS) TableRange() (start, end int) { return g.tableStart, g.infoStart }

// Object classifies a heap page as one of Figure 6's objects: 'A' (index
// array), 'B' (hot-set descriptor), 'C' (current hot blocks), or ' ' for
// cold table pages. Pages of other VMAs return 0.
func (g *GUPS) Object(v *vm.VMA, idx int) byte {
	if v != g.heap {
		return 0
	}
	switch {
	case idx < g.indexPages:
		return 'A'
	case idx >= g.infoStart:
		return 'B'
	case g.isHot[idx-g.tableStart]:
		return 'C'
	}
	return ' '
}

// drawHotSet picks the hot 20% of the table as 32 contiguous page blocks
// at random positions — spatial structure a region-based profiler can
// discover, with enough dispersion to punish coarse regions.
func (g *GUPS) drawHotSet(e *sim.Engine) {
	const blocks = 32
	total := int(float64(g.tablePages()) * gupsHotFrac)
	if total < blocks {
		total = blocks
	}
	g.blockPages = total / blocks
	g.hotBlocks = g.hotBlocks[:0]
	for b := 0; b < blocks; b++ {
		g.hotBlocks = append(g.hotBlocks, e.Rng.Intn(maxInt(g.tablePages()-g.blockPages, 1)))
	}
	g.rebuildHotPages()
	g.epochLeft = g.EpochOps
	g.driftLeft = g.DriftOps
}

// rebuildHotPages re-derives the page set from the block list (blocks may
// overlap; 32 blocks keep this cheap).
func (g *GUPS) rebuildHotPages() {
	for p := range g.isHot {
		g.isHot[p] = false
	}
	g.hotPages = g.hotPages[:0]
	for _, b := range g.hotBlocks {
		for p := b; p < b+g.blockPages && p < g.tablePages(); p++ {
			if !g.isHot[p] {
				g.isHot[p] = true
				g.hotPages = append(g.hotPages, int32(p))
			}
		}
	}
	if len(g.hotPages) > 0 {
		g.hotB = rng.NewBound(len(g.hotPages))
	}
}

// driftOneBlock relocates the next hot block to a random position.
func (g *GUPS) driftOneBlock(e *sim.Engine) {
	if len(g.hotBlocks) == 0 {
		return
	}
	i := g.nextDrift % len(g.hotBlocks)
	g.nextDrift++
	g.hotBlocks[i] = e.Rng.Intn(maxInt(g.tablePages()-g.blockPages, 1))
	g.rebuildHotPages()
	g.driftLeft = g.DriftOps
}

// IsHot reports ground truth for profiling-quality experiments: whether a
// heap page is currently hot. A and B are hot by construction.
func (g *GUPS) IsHot(v *vm.VMA, idx int) bool {
	o := g.Object(v, idx)
	return o != 0 && o != ' '
}

// HotFootprintBytes is the current hot-set size including A and B.
func (g *GUPS) HotFootprintBytes() int64 {
	return int64(len(g.hotPages)+g.indexPages+g.infoPages) * g.heap.PageSize
}

func (g *GUPS) RunInterval(e *sim.Engine) {
	socket := sim.HomeSocket
	if g.refs == nil {
		b := uint32(g.batch)
		g.refs = make([]sim.Ref, 0, 3*opChunk/g.batch)
		for range opChunk / g.batch {
			g.refs = append(g.refs,
				sim.Ref{V: g.heap, N: b},
				sim.Ref{V: g.heap, N: 1},
				sim.Ref{V: g.heap, N: 2 * b, NW: b})
		}
	}
	for !e.IntervalExhausted() && !g.Done() {
		// One chunk of opChunk updates: batched page draws, issued as one
		// access batch.
		for r := g.refs; len(r) > 0; r = r[3:] {
			// Index array A: one read per update.
			r[0].Idx = g.indexB.Draw(e.Rng)
			// Hot-set descriptor B: read once per batch.
			r[1].Idx = g.infoStart + g.infoB.Draw(e.Rng)
			// The update itself: read + write of a random table slot,
			// hot with probability gupsHotAccessFrac.
			var pg int
			if e.Rng.Float64() < gupsHotAccessFrac && len(g.hotPages) > 0 {
				pg = int(g.hotPages[g.hotB.Draw(e.Rng)])
			} else {
				pg = g.tableB.Draw(e.Rng)
			}
			r[2].Idx = g.tableStart + pg
		}
		e.AccessBatch(g.refs, socket)
		g.doneOps += opChunk
		if g.EpochOps > 0 {
			g.epochLeft -= opChunk
			if g.epochLeft <= 0 {
				g.drawHotSet(e)
			}
		}
		if g.DriftOps > 0 {
			g.driftLeft -= opChunk
			if g.driftLeft <= 0 {
				g.driftOneBlock(e)
			}
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
