// Fixed shards, their RNG streams, and the engine's reusable scratch.
//
// The profilers' scan passes cut their work into fixed-size shards
// (NumShards/ShardSpan) and walk them in order on the interval loop. The
// shards are part of the simulated behaviour, not a scheduling device:
// each shard draws from its own RNG stream, a pure function of (engine
// seed, interval, salt, shard key), and emits its own scan span. Changing
// a shard size therefore re-rolls the run.
//
// Scratch keeps those passes allocation-free: reseeding its SplitMix64
// source is O(1) (rand.NewSource seeds a 607-word register), and its
// membership bitset replaces a per-call map, so the steady-state scan
// path performs zero allocations after warm-up.
package sim

import (
	"math/rand"

	"mtm/internal/rng"
)

// NumShards returns how many fixed-size shards cover n items.
func NumShards(n, shardSize int) int {
	if n <= 0 {
		return 0
	}
	if shardSize <= 0 {
		shardSize = 1
	}
	return (n + shardSize - 1) / shardSize
}

// ShardSpan returns the half-open item range [lo, hi) covered by shard s
// when n items are cut into fixed-size shards.
func ShardSpan(n, shardSize, s int) (lo, hi int) {
	if shardSize <= 0 {
		shardSize = 1
	}
	lo = s * shardSize
	hi = lo + shardSize
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// Salts distinguishing the per-shard RNG streams of the scan passes
// within one interval. Each pass uses its own salt so adding a pass never
// perturbs another pass's stream.
const (
	SaltPTEScan   = 0x70746573 // "ptes": MTM profiler scan shards
	SaltChunkScan = 0x63686e6b // "chnk": chunk-scan baseline profilers
)

// shardSeed derives the RNG seed of one shard of a scan pass: a pure
// function of the engine seed, the interval index, the pass salt and the
// shard key.
func (e *Engine) shardSeed(salt uint64, shard int) uint64 {
	h := rng.Mix64(uint64(e.Seed) ^ salt)
	h = rng.Mix64(h ^ uint64(uint32(e.Intervals)))
	return rng.Mix64(h ^ uint64(uint32(shard)))
}

// sm64 is a SplitMix64 rand.Source64. Seeding writes one word (vs the
// 607-word init of rand.NewSource), which is what makes per-(interval,
// shard) streams affordable: the seed itself carries all the mixing.
type sm64 struct{ state uint64 }

func (s *sm64) Uint64() uint64 {
	z := rng.Mix64(s.state)
	s.state += 0x9e3779b97f4a7c15
	return z
}

func (s *sm64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *sm64) Seed(seed int64) { s.state = uint64(seed) }

// Scratch is the engine's reusable state for the scan passes (see
// Engine.Scratch). Its contents never carry information between uses:
// every buffer is fully rewritten before it is read.
type Scratch struct {
	src  sm64
	rng  *rand.Rand
	seen []uint64 // rejection-sampling membership bitset
}

// Rand reseeds the scratch RNG for (salt, key) in the current interval
// and returns it. The stream is a pure function of the simulation state
// (see shardSeed). The returned RNG is valid until the next Rand call.
func (sc *Scratch) Rand(e *Engine, salt uint64, key int) *rand.Rand {
	sc.src.state = e.shardSeed(salt, key)
	if sc.rng == nil {
		sc.rng = rand.New(&sc.src)
	}
	return sc.rng
}

// Seen returns a zeroed membership bitset covering at least n bits,
// reusing the scratch buffer. The caller owns it until the next Seen
// call.
func (sc *Scratch) Seen(n int) []uint64 {
	words := (n + 63) / 64
	if words > len(sc.seen) {
		sc.seen = make([]uint64, words)
	} else {
		clear(sc.seen[:words])
	}
	return sc.seen[:words]
}

// Scratch returns the engine's scan scratch.
func (e *Engine) Scratch() *Scratch { return &e.scratch }
