// Package workload implements the six large-memory applications of
// Table 2 as page-level access generators and algorithm kernels over the
// simulated address space: GUPS, VoltDB/TPC-C, Cassandra/YCSB-A, BFS,
// SSSP, and Spark TeraSort.
//
// Footprints, read:write mixes and hot-set shapes follow the paper; sizes
// are divided by a uniform scale factor (shared with the tier capacities)
// so runs stay laptop-sized while every capacity ratio — the thing
// placement policies actually react to — is preserved.
package workload

import (
	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// DefaultScale divides the paper's terabyte-scale footprints and the
// machine's capacities; 64 turns the 1.7 TB testbed into ~27 GB.
const DefaultScale = 64

// Config is shared workload sizing.
type Config struct {
	// Scale divides the paper's footprint (and must match the topology
	// scale so footprint:capacity ratios hold).
	Scale int64
	// OpsFactor scales total work; 1.0 approximates the paper's runtime
	// divided by Scale. Benches shrink it further for quick runs.
	OpsFactor float64
}

// DefaultConfig returns the standard scaling.
func DefaultConfig() Config { return Config{Scale: DefaultScale, OpsFactor: 1.0} }

func (c Config) scale() int64 {
	if c.Scale <= 0 {
		return DefaultScale
	}
	return c.Scale
}

func (c Config) ops(base int64) int64 {
	return max(int64(float64(base)*c.opsFactorOrOne()/float64(c.scale())), 1)
}

// opsFactorOrOne returns the configured ops factor, defaulting to 1.
func (c Config) opsFactorOrOne() float64 {
	if c.OpsFactor <= 0 {
		return 1
	}
	return c.OpsFactor
}

// base carries the bookkeeping every workload shares.
type base struct {
	name     string
	totalOps int64
	doneOps  int64
}

func (b *base) Name() string { return b.name }
func (b *base) Done() bool   { return b.doneOps >= b.totalOps }

// TotalOps reports the workload's configured operation count.
func (b *base) TotalOps() int64 { return b.totalOps }

// opChunk is how many operations a workload puts in one chunk, which
// Engine.RunChunks issues as one batch between its interval checks.
const opChunk = 2048

// chunkBufs is a workload's two reusable chunk buffers. NextChunk fills
// them in turn, so the slice it returns stays valid until the call after
// next, as sim.Lookahead requires.
type chunkBufs struct {
	buf [2][]sim.Ref
	cur int
}

// next returns the other buffer, emptied, for the next chunk.
func (b *chunkBufs) next() []sim.Ref {
	b.cur ^= 1
	return b.buf[b.cur][:0]
}

// keep stores the filled buffer for reuse and returns it.
func (b *chunkBufs) keep(refs []sim.Ref) []sim.Ref {
	b.buf[b.cur] = refs
	return refs
}

// pageOf maps a byte offset within a VMA to its page index.
func pageOf(v *vm.VMA, off int64) int { return int(off / v.PageSize) }

// touchRange appends bytes [off, off+n) of v to refs: one ref per
// simulated page touched, with the element count that falls on that page.
// It models a sequential scan of n bytes in elemSize strides. A scan that
// reaches the end of v continues from its start.
func touchRange(refs []sim.Ref, v *vm.VMA, off, n, elemSize int64, write bool) []sim.Ref {
	for n > 0 {
		if off == v.Bytes() {
			off = 0
		}
		pg := pageOf(v, off)
		span := min((int64(pg)+1)*v.PageSize-off, n)
		cnt := uint32((span + elemSize - 1) / elemSize)
		var w uint32
		if write {
			w = cnt
		}
		refs = append(refs, sim.Ref{V: v, Idx: pg, N: cnt, NW: w})
		off += span
		n -= span
	}
	return refs
}

// initTouch sequentially faults in and writes an entire VMA, modelling
// the data-structure initialisation phase real applications run at
// startup (loading a table, building a graph, memset-ing a heap). This is
// what makes first-touch placement *address-ordered*: the pages that land
// in the fast tiers are whichever the init loop touched first, not the
// ones the steady state will hammer. Ground-truth counters are reset
// afterwards so the first profiling interval sees steady-state traffic
// only.
func initTouch(e *sim.Engine, vmas ...*vm.VMA) {
	var buf [64]sim.Ref
	for _, v := range vmas {
		for pg := 0; pg < v.NPages; pg += len(buf) {
			refs := buf[:min(len(buf), v.NPages-pg)]
			for i := range refs {
				refs[i] = sim.Ref{V: v, Idx: pg + i, N: 1, NW: 1}
			}
			e.AccessBatch(refs, sim.HomeSocket)
		}
	}
	e.AS.ResetCounts()
}

// GB and MB re-export the tier units for concise sizing literals.
const (
	GB = tier.GB
	MB = tier.MB
)
