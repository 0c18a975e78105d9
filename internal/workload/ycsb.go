package workload

import (
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
	zipf                   *zipfSampler
	nBlocks                int64
	blockBytes             int64
	logCursor              int64
	refs                   chunkBufs
}

// NewCassandra sizes the store to the paper's 400 GB instance.
func NewCassandra(cfg Config) *Cassandra {
	c := &Cassandra{dataBytes: 400 * GB / cfg.scale()}
	c.name = "Cassandra"
	c.totalOps = cfg.ops(1e10)
	return c
}

func (c *Cassandra) Init(e *sim.Engine) {
	c.data = e.AS.Alloc("cassandra.data", c.dataBytes)
	c.index = e.AS.Alloc("cassandra.index", max(c.dataBytes/64, 4*MB))
	c.commitLog = e.AS.Alloc("cassandra.commitlog", max(c.dataBytes/32, 8*MB))
	// Placement blocks: runs of zipf rank space that hash to one spot in
	// the heap. 256 KB blocks keep hot clusters smaller than a region.
	c.blockBytes = 256 * 1024
	c.nBlocks = c.data.Bytes() / c.blockBytes
	c.zipf = newZipf(uint64(c.nBlocks * 16))
	initTouch(e, c.data, c.index, c.commitLog)
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
	// Zipf rank -> placement block via hash (Cassandra's partitioner),
	// then a random record offset within the block.
	rank := c.zipf.Next(r)
	block := int64(rng.Mix64(rank/16) % uint64(c.nBlocks))
	off := block*c.blockBytes + int64(r.Int63n(c.blockBytes))

	// Index probe (read), then the record.
	refs = append(refs, sim.Ref{V: c.index, Idx: int(rng.Mix64(rank) % uint64(c.index.NPages)), N: 1})
	write := r.Intn(2) == 0 // YCSB-A: 50/50
	if write {
		// Update: read-modify-write the record plus a commit-log append.
		c.logCursor += 256
		return append(refs,
			sim.Ref{V: c.data, Idx: pageOf(c.data, off), N: 2, NW: 1},
			sim.Ref{V: c.commitLog, Idx: pageOf(c.commitLog, c.logCursor%c.commitLog.Bytes()), N: 1, NW: 1})
	}
	return append(refs, sim.Ref{V: c.data, Idx: pageOf(c.data, off), N: 2})
}
