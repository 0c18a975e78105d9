package sim

import (
	"testing"

	"mtm/internal/tier"
)

func TestShardSpanPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1000} {
		for _, size := range []int{1, 7, 16, 2000} {
			ns := NumShards(n, size)
			next := 0
			for s := 0; s < ns; s++ {
				lo, hi := ShardSpan(n, size, s)
				if lo != next {
					t.Fatalf("n=%d size=%d shard %d: lo=%d, want %d (gap or overlap)", n, size, s, lo, next)
				}
				if hi <= lo && n > 0 {
					t.Fatalf("n=%d size=%d shard %d: empty span [%d,%d)", n, size, s, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d size=%d: shards cover [0,%d), want [0,%d)", n, size, next, n)
			}
		}
	}
}

// TestShardRandStreams checks the two properties the shard loops rely
// on: the stream for a (salt, interval, shard) triple is reproducible,
// and neighbouring triples get different streams.
func TestShardRandStreams(t *testing.T) {
	e := NewEngine(tier.OptaneTopology(256), 7)
	sc := e.Scratch()
	a := sc.Rand(e, SaltPTEScan, 3).Int63()
	if sc.Rand(e, SaltPTEScan, 3).Int63() != a {
		t.Fatal("Scratch.Rand not reproducible for identical (salt, interval, shard)")
	}
	if sc.Rand(e, SaltPTEScan, 4).Int63() == a {
		t.Fatal("adjacent shards share a stream")
	}
	if sc.Rand(e, SaltChunkScan, 3).Int63() == a {
		t.Fatal("different salts share a stream")
	}
	e.Intervals++
	if sc.Rand(e, SaltPTEScan, 3).Int63() == a {
		t.Fatal("different intervals share a stream")
	}
}
