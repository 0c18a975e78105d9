package workload

import (
	"math"

	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// Cassandra models the row-store arm of Table 2: Cassandra under YCSB
// workload A (update-heavy: 50% reads, 50% updates) with a zipfian key
// distribution. Keys hash into placement blocks so the popular keys'
// pages are scattered across the footprint in small clusters — the layout
// a real LSM row cache produces — and the store keeps Cassandra's shape:
// a commit log with a sequentially advancing hot head, an in-memory
// index, and the record heap itself.
type Cassandra struct {
	base

	// dataBytes is the record heap footprint (400 GB / scale).
	dataBytes int64

	data, index, commitLog *vm.VMA
	keys                   *keyTable
	logOff                 int64 // commit-log append cursor, wrapped within the log
	refs                   chunkBufs
}

// blockBytes is the size of a placement block: a run of zipf rank space
// that hashes to one spot in the heap. 256 KB blocks keep hot clusters
// smaller than a region.
const blockBytes = 256 * 1024

// NewCassandra sizes the store to the paper's 400 GB instance.
func NewCassandra(cfg Config) *Cassandra {
	c := &Cassandra{dataBytes: 400 * GB / cfg.scale()}
	c.name = "Cassandra"
	c.totalOps = cfg.ops(1e10)
	return c
}

func (c *Cassandra) Init(e *sim.Engine) {
	c.alloc(e.AS)
	e.InitTouch(sim.HomeSocket, c.data, c.index, c.commitLog)
}

// alloc lays the store out in as and sizes its keys to it.
func (c *Cassandra) alloc(as *vm.AddressSpace) {
	c.data = as.Alloc("cassandra.data", c.dataBytes)
	c.index = as.Alloc("cassandra.index", max(c.dataBytes/64, 4*MB))
	c.commitLog = as.Alloc("cassandra.commitlog", max(c.dataBytes/32, 8*MB))
	c.keys = newKeyTable(c.data.Bytes()/blockBytes, c.index.NPages)
}

func (c *Cassandra) RunInterval(e *sim.Engine) { e.RunChunks(c) }

// RunsAhead is true: the Zipf draws make a chunk far dearer to draw than
// to hand to the engine on another core (see sim.Lookahead).
func (c *Cassandra) RunsAhead() bool { return true }

// NextChunk draws one chunk of opChunk operations.
func (c *Cassandra) NextChunk(r *rng.Rand) []sim.Ref {
	refs := c.refs.next()
	for i := 0; i < opChunk; i++ {
		refs = c.op(r, refs)
	}
	c.doneOps += opChunk
	return c.refs.keep(refs)
}

// op appends the refs of one operation to refs.
func (c *Cassandra) op(r *rng.Rand, refs []sim.Ref) []sim.Ref {
	// Zipf key -> placement block and index page, then a random record
	// offset within the block. blockBytes and 2 are powers of two, for
	// which Int63n and Intn mask Int63 and Int31 as here.
	block, page := c.keys.draw(r)
	off := block*blockBytes + r.Int63()&(blockBytes-1)

	// Index probe (read), then the record.
	refs = append(refs, sim.Ref{V: c.index, Idx: page, N: 1})
	write := r.Int31()&1 == 0 // YCSB-A: 50/50
	if write {
		// Update: read-modify-write the record plus a commit-log append.
		c.logOff = advance(c.logOff, 256, c.commitLog.Bytes())
		return append(refs,
			sim.Ref{V: c.data, Idx: pageOf(c.data, off), N: 2, NW: 1},
			sim.Ref{V: c.commitLog, Idx: pageOf(c.commitLog, c.logOff), N: 1, NW: 1})
	}
	return append(refs, sim.Ref{V: c.data, Idx: pageOf(c.data, off), N: 2})
}

// keyTable draws Cassandra's keys: a zipfian rank over 16 ranks per
// placement block, hashed (Cassandra's partitioner) to its block and,
// whole, to an index page. It answers most draws from a table of keyCells
// cells over the uniform draw r: cell i covers r in [i, i+1)/keyCells,
// and where math/rand's Zipf gives every r in the cell one rank on its
// first attempt (firstRank), the cell holds that rank's key. A draw that
// lands there consumes the one Float64 math/rand's would and skips the
// sampler and both hashes; any other draw goes to the sampler with the r
// it already drew. Cells fill on first use.
type keyTable struct {
	zipf            *zipfSampler
	nBlocks, nPages uint64
	packs           bool // every key fits a cell: nBlocks < 2^16, nPages <= 2^16
	// cells[i] is 0 until cell i is first drawn, keyMiss where its draws
	// take the sampler, and keyHit + block<<16 | page otherwise. It is
	// noCells until the first fill, which allocates the table: zeroing
	// 64 KB in Init would add to the workload's set-up.
	cells *[keyCells]uint32
}

// noCells is every key table's cells before its first fill. It is only
// ever read.
var noCells [keyCells]uint32

const (
	// keyCells keeps the table at 64 KB. At n = 409,600 its cells answer
	// 60% of draws; 2^15 and 2^16 cells would answer 64% and 68%.
	keyCells = 1 << 14
	keyMiss  = 1
	keyHit   = 2
)

func newKeyTable(nBlocks int64, nPages int) *keyTable {
	return &keyTable{
		zipf:    newZipf(uint64(nBlocks * 16)),
		nBlocks: uint64(nBlocks),
		nPages:  uint64(nPages),
		packs:   nBlocks < 1<<16 && nPages <= 1<<16,
		cells:   &noCells,
	}
}

// draw returns the block and index page of the next key.
func (t *keyTable) draw(r *rng.Rand) (block int64, page int) {
	u := r.Float64()
	i := int(u*keyCells) & (keyCells - 1) // the mask drops the bounds check; u < 1
	e := t.cells[i]
	if e == 0 {
		e = t.fill(i)
	}
	if e != keyMiss {
		e -= keyHit
		return int64(e >> 16), int(e & 0xffff)
	}
	b, p := t.key(t.zipf.next(u, r))
	return int64(b), int(p)
}

// key hashes a rank to its placement block and index page.
func (t *keyTable) key(rank uint64) (block, page uint64) {
	return rng.Mix64(rank/16) % t.nBlocks, rng.Mix64(rank) % t.nPages
}

// fill computes cell i.
func (t *keyTable) fill(i int) uint32 {
	if t.cells == &noCells {
		t.cells = new([keyCells]uint32)
	}
	e := uint32(keyMiss)
	if k, ok := t.zipf.firstRank(keyCell(i)); ok && t.packs {
		b, p := t.key(k)
		e = keyHit + uint32(b<<16|p)
	}
	t.cells[i] = e
	return e
}

// keyCell returns the lowest and highest r of cell i.
func keyCell(i int) (lo, hi float64) {
	return float64(i) / keyCells, math.Nextafter(float64(i+1)/keyCells, 0)
}
