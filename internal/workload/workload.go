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
	"math/rand"

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
	f := c.OpsFactor
	if f <= 0 {
		f = 1
	}
	n := int64(float64(base) * f / float64(c.scale()))
	if n < 1 {
		n = 1
	}
	return n
}

// base carries the bookkeeping every workload shares.
type base struct {
	name     string
	readFrac float64
	totalOps int64
	doneOps  int64
}

func (b *base) Name() string          { return b.name }
func (b *base) Done() bool            { return b.doneOps >= b.totalOps }
func (b *base) ReadFraction() float64 { return b.readFrac }

// TotalOps reports the workload's configured operation count.
func (b *base) TotalOps() int64 { return b.totalOps }

// opChunk is how many operations a workload issues between
// IntervalExhausted checks.
const opChunk = 2048

// pageOf maps a byte offset within a VMA to its page index.
func pageOf(v *vm.VMA, off int64) int { return int(off / v.PageSize) }

// touchRange issues bytes [off, off+n) of v as access batches: one ref
// per simulated page touched, with the element count that falls on that
// page. It models a sequential scan of n bytes in elemSize strides. The
// refs live in a small stack buffer, issued whenever it fills: most scans
// span one or two pages, and a larger buffer would cost more to zero on
// every call than the extra batches do.
func touchRange(e *sim.Engine, v *vm.VMA, off, n int64, elemSize int64, write bool, socket int) {
	if elemSize <= 0 {
		elemSize = 8
	}
	var buf [16]sim.Ref
	refs := buf[:0]
	end := off + n
	for off < end {
		if len(refs) == len(buf) {
			e.AccessBatch(v, refs, socket)
			refs = refs[:0]
		}
		pg := pageOf(v, off)
		pgEnd := (int64(pg) + 1) * v.PageSize
		if pgEnd > end {
			pgEnd = end
		}
		cnt := (pgEnd - off + elemSize - 1) / elemSize
		var w uint32
		if write {
			w = uint32(cnt)
		}
		refs = append(refs, sim.Ref{Idx: pg, N: uint32(cnt), NW: w})
		off = pgEnd
	}
	e.AccessBatch(v, refs, socket)
}

// hash64 is SplitMix64: a fast, well-distributed hash for implicit data
// structures (synthetic graphs, key placement).
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// zipfSampler wraps rand.Zipf with YCSB's default skew.
type zipfSampler struct{ z *rand.Zipf }

// newZipf draws from src through one rand.Rand view of it; passing the
// engine's Rng keeps the sampler on the run's single stream.
func newZipf(src rand.Source, n uint64) *zipfSampler {
	if n < 2 {
		n = 2
	}
	// YCSB's zipfian constant is 0.99; rand.Zipf's s must be > 1, so use
	// the standard 1.01 approximation with v=1.
	return &zipfSampler{z: rand.NewZipf(rand.New(src), 1.07, 1, n-1)}
}

func (z *zipfSampler) Next() uint64 { return z.z.Uint64() }

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
				refs[i] = sim.Ref{Idx: pg + i, N: 1, NW: 1}
			}
			e.AccessBatch(v, refs, e.HomeSocket)
		}
	}
	e.AS.ResetCounts()
}

// GB and MB re-export the tier units for concise sizing literals.
const (
	GB = tier.GB
	MB = tier.MB
)
