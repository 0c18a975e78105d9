package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// oneShot is a math/rand Source whose first Int63 after a reset is a
// chosen value; later calls draw from a seeded stream. rand.Zipf.Uint64
// then makes its first attempt with a chosen r, and any further call
// means that attempt was rejected.
type oneShot struct {
	first int64
	calls int
	rest  *rng.Rand
}

func (s *oneShot) Int63() int64 {
	s.calls++
	if s.calls == 1 {
		return s.first
	}
	return s.rest.Int63()
}

func (s *oneShot) Seed(int64) {}

// stdZipf is rand.Zipf with its first attempt's r chosen by the caller.
type stdZipf struct {
	z   *rand.Zipf
	src *oneShot
}

func newStdZipf(n uint64) *stdZipf {
	src := &oneShot{rest: rng.New(1)}
	return &stdZipf{z: rand.NewZipf(rand.New(src), zipfQ, 1, n-1), src: src}
}

// rank is rand.Zipf's decision for the uniform draw r: the rank its first
// attempt returns, or ok = false if it drew again. r must be a value
// Float64 can return, a multiple of 2^-63 below 1.
func (s *stdZipf) rank(r float64) (k uint64, ok bool) {
	s.src.first, s.src.calls = int64(r*(1<<63)), 0
	k = s.z.Uint64()
	return k, s.src.calls == 1
}

// uniform is the Float64 that an Int63 draw of i yields.
func uniform(i int64) float64 { return float64(i) / (1 << 63) }

// drawable reports whether Float64 can return r.
func drawable(r float64) bool { return r >= 0 && r < 1 && uniform(int64(r*(1<<63))) == r }

// zipfSizes are the rank counts the sampler is checked at: the extremes
// of its range, and 16 ranks per Cassandra placement block at scales 1, 64
// and 256.
func zipfSizes() []uint64 {
	ns := []uint64{2, 3, 100, 409600, 6553600, 1 << 30}
	for _, scale := range []int64{1, 64, 256} {
		n := uint64(16 * NewCassandra(Config{Scale: scale}).dataBytes / (256 * 1024))
		if n != 409600 {
			ns = append(ns, n)
		}
	}
	return ns
}

// TestZipfMatchesMathRand draws from zipfSampler and from rand.Zipf on
// copies of one stream and requires the same rank every draw, and the
// streams in step afterwards. The default run makes 1.08·10^8 draws.
func TestZipfMatchesMathRand(t *testing.T) {
	draws := 4_500_000
	if testing.Short() || sim.RaceEnabled {
		draws = 5_000
	}
	for _, n := range zipfSizes() {
		for _, seed := range []int64{1, 7, 4242} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				t.Parallel()
				r1, r2 := rng.New(seed), rng.New(seed)
				got := newZipf(n)
				want := rand.NewZipf(rand.New(r2), zipfQ, 1, n-1)
				for i := 0; i < draws; i++ {
					if g, w := got.next(r1.Float64(), r1), want.Uint64(); g != w {
						t.Fatalf("draw %d: rank %d, rand.Zipf %d", i, g, w)
					}
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatal("streams out of step: the samplers consumed different draws")
				}
			})
		}
	}
}

// TestZipfRankEdges checks rank against rand.Zipf at the r where its
// decision flips: each rank's rounding edge x = k+½, its first acceptance
// edge k-x = s and its second ur = h(k+½)-(k+1)^-q. Each edge is found by
// bisection on math/rand's expressions, and rank is compared a few ulps
// either side and at offsets growing to 2^24 ulps, past the fast path's
// margin, for the first 10^4 ranks and a sample of the tail.
func TestZipfRankEdges(t *testing.T) {
	head, tail := 10_000, 300
	if testing.Short() || sim.RaceEnabled {
		head, tail = 100, 20
	}
	var offsets []int64
	for d := int64(0); d <= 4; d++ {
		offsets = append(offsets, d, -d)
	}
	for d := int64(16); d <= 1<<24; d *= 4 {
		offsets = append(offsets, d, -d)
	}
	for _, n := range []uint64{100, 409600, 1 << 30} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			z, std := newZipf(n), newStdZipf(n)
			ur := func(r float64) float64 { return z.hxm + r*z.hx0minusHxm }
			x := func(r float64) float64 { return z.hinv(ur(r)) }
			check := func(r float64) {
				if !drawable(r) {
					return
				}
				k, ok := z.rank(r)
				wk, wok := std.rank(r)
				if ok != wok || (ok && k != wk) {
					t.Fatalf("r=%v (%#x): rank (%d, %v), rand.Zipf (%d, %v)",
						r, math.Float64bits(r), k, ok, wk, wok)
				}
			}
			ranks := make([]uint64, 0, head+tail)
			for k := uint64(0); k < n && k < uint64(head); k++ {
				ranks = append(ranks, k)
			}
			if n > uint64(head) {
				for i := 0; i < tail; i++ {
					ranks = append(ranks, uint64(head)+(n-uint64(head))*uint64(i)/uint64(tail))
				}
			}
			for _, k := range ranks {
				kf := float64(k)
				bound := z.h(kf+0.5) - math.Exp(-math.Log(kf+1)*z.q)
				// x and ur fall as r rises; each edge is the first r past it.
				for _, past := range []func(r float64) bool{
					func(r float64) bool { return x(r) < kf+0.5 },
					func(r float64) bool { return x(r) < kf-z.s },
					func(r float64) bool { return ur(r) < bound },
				} {
					edge := uniform(firstInt63(func(i int64) bool { return past(uniform(i)) }))
					for _, d := range offsets {
						check(math.Float64frombits(math.Float64bits(edge) + uint64(d)))
					}
				}
			}
		})
	}
}

// firstInt63 returns the smallest i in [0, 2^63-1] with past(i), or
// 2^63-1, assuming past is false then true as i rises.
func firstInt63(past func(i int64) bool) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if past(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// FuzzZipfRank compares rank with rand.Zipf for any rank count and any r
// Float64 can return, on a cold sampler and on one whose grid is filled,
// and requires firstRank's answer for r's key cell, where it gives one,
// to be rand.Zipf's.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint64(409600), uint64(1)<<62)
	f.Add(uint64(2), uint64(0))
	f.Add(uint64(1)<<30, uint64(12345)<<40)
	var warm *zipfSampler
	var warmN uint64
	f.Fuzz(func(t *testing.T, n, bits uint64) {
		n = 2 + n>>2
		r := uniform(int64(bits >> 1))
		if r == 1 {
			return // Float64 never returns 1
		}
		if warmN != n {
			warm, warmN = newZipf(n), n
			for i := range warm.tab {
				warm.fill(i)
			}
		}
		wk, wok := newStdZipf(n).rank(r)
		for _, z := range []*zipfSampler{newZipf(n), warm} {
			if k, ok := z.rank(r); ok != wok || (ok && k != wk) {
				t.Fatalf("n=%d r=%v: rank (%d, %v), rand.Zipf (%d, %v)", n, r, k, ok, wk, wok)
			}
		}
		lo, hi := keyCell(int(r * keyCells))
		if k, ok := warm.firstRank(lo, hi); ok && (!wok || k != wk) {
			t.Fatalf("n=%d r=%v: firstRank(%v, %v) = %d, rand.Zipf (%d, %v)", n, r, lo, hi, k, wk, wok)
		}
	})
}

// testKeys returns the key table Cassandra builds at the given scale, with
// its index on 2 MB pages if thp is set and on 4 KB pages otherwise.
func testKeys(scale int64, thp bool) *keyTable {
	c := NewCassandra(Config{Scale: scale})
	as := vm.NewAddressSpace()
	as.THP = thp
	c.alloc(as)
	return c.keys
}

// keyConfigs are the key tables the tests check: scale 1, where keys do
// not pack into cells, and scales 64 (n = 409,600) and 256 on both page
// sizes. Scale 1 on 4 KB pages would take a 1.2 GB page array.
var keyConfigs = []struct {
	scale int64
	thp   bool
}{{1, true}, {64, true}, {64, false}, {256, true}, {256, false}}

// TestKeysMatchMathRand draws Cassandra's keys from its key table and
// ranks from rand.Zipf on copies of one stream, hashing each rank as
// Cassandra's partitioner does, and requires the same key every draw and
// the streams in step afterwards.
func TestKeysMatchMathRand(t *testing.T) {
	draws := 2_000_000
	if testing.Short() || sim.RaceEnabled {
		draws = 20_000
	}
	for _, kc := range keyConfigs {
		t.Run(fmt.Sprintf("scale=%d/thp=%v", kc.scale, kc.thp), func(t *testing.T) {
			t.Parallel()
			keys := testKeys(kc.scale, kc.thp)
			if keys.packs != (kc.scale > 1) {
				t.Fatalf("packs = %v at scale %d", keys.packs, kc.scale)
			}
			r1, r2 := rng.New(5), rng.New(5)
			want := rand.NewZipf(rand.New(r2), zipfQ, 1, 16*keys.nBlocks-1)
			for i := 0; i < draws; i++ {
				block, page := keys.draw(r1)
				k := want.Uint64()
				wb, wp := int64(rng.Mix64(k/16)%keys.nBlocks), int(rng.Mix64(k)%keys.nPages)
				if block != wb || page != wp {
					t.Fatalf("draw %d: key (%d, %d), rand.Zipf rank %d's (%d, %d)", i, block, page, k, wb, wp)
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatal("streams out of step: the key table consumed different draws")
			}
			var filled, hits int
			for _, e := range keys.cells {
				if e != 0 {
					filled++
				}
				if e >= keyHit {
					hits++
				}
			}
			if keys.packs && hits < filled/2 {
				t.Fatalf("%d of %d filled cells hold a key", hits, filled)
			}
		})
	}
}

// TestKeyCells fills every cell of Cassandra's key table at the scales of
// keyConfigs (n = 16·nBlocks). Where firstRank calls a cell exact,
// rand.Zipf's first attempt must return its rank, without drawing again,
// at the cell's lowest r, at the largest float64 below the next cell and
// 1 to 4 ulps inside each; where the cell holds a key it must be that
// rank's. The checks cannot reach the few ulps where math/rand's x is
// within its rounding error of a decision edge, so firstRank must also
// refuse an interval with an end on an edge: it may not trust an x there.
func TestKeyCells(t *testing.T) {
	for _, kc := range keyConfigs {
		if !kc.thp {
			continue // n does not depend on the index pages
		}
		t.Run(fmt.Sprintf("scale=%d", kc.scale), func(t *testing.T) {
			t.Parallel()
			keys := testKeys(kc.scale, kc.thp)
			z, std := keys.zipf, newStdZipf(16*keys.nBlocks)
			exact := 0
			for i := 0; i < keyCells; i++ {
				e := keys.fill(i)
				lo, hi := keyCell(i)
				k, ok := z.firstRank(lo, hi)
				if !ok {
					if e != keyMiss {
						t.Fatalf("cell %d is not exact but holds %#x", i, e)
					}
					continue
				}
				exact++
				for d := uint64(0); d <= 4; d++ {
					for _, r := range []float64{
						math.Float64frombits(math.Float64bits(lo) + d),
						math.Float64frombits(math.Float64bits(hi) - d),
					} {
						if !drawable(r) || r < lo || r > hi {
							continue
						}
						wk, wok := std.rank(r)
						if !wok || wk != k {
							t.Fatalf("cell %d r=%v: firstRank %d, rand.Zipf (%d, %v)", i, r, k, wk, wok)
						}
					}
				}
				if keys.packs {
					b, p := keys.key(k)
					if want := keyHit + uint32(b<<16|p); e != want {
						t.Fatalf("cell %d (rank %d) holds %#x, want %#x", i, k, e, want)
					}
				}
			}
			if exact < keyCells/2 {
				t.Fatalf("%d of %d cells exact", exact, keyCells)
			}

			// The first 2,000 ranks' rounding edges x = k+½ and
			// acceptance edges k-x = s, found as in TestZipfRankEdges.
			x := func(r float64) float64 { return z.hinv(z.hxm + r*z.hx0minusHxm) }
			const w = 1.0 / (1 << 30) // far inside one rank for these ranks
			for k := 0.0; k < 2000; k++ {
				round := uniform(firstInt63(func(i int64) bool { return x(uniform(i)) < k+0.5 }))
				accept := uniform(firstInt63(func(i int64) bool { return x(uniform(i)) < k-z.s }))
				if _, ok := z.firstRank(round, round+w); ok {
					t.Fatalf("rank %v: firstRank trusts [%v, +2^-30], which starts on its rounding edge", k, round)
				}
				if accept == 1 {
					continue // x stays above k-s: rank 0 has no such edge
				}
				below := math.Nextafter(accept, 0)
				if _, ok := z.firstRank(below-w, below); ok {
					t.Fatalf("rank %v: firstRank trusts [-2^-30, %v], which ends on its acceptance edge", k, below)
				}
			}
		})
	}
}

// BenchmarkZipfNext times one Cassandra key at bench scale (n = 409600)
// from the key table, and one rank from zipfSampler and from the
// rand.Zipf it replaces.
func BenchmarkZipfNext(b *testing.B) {
	const n = 409600
	b.Run("keys", func(b *testing.B) {
		keys, r := testKeys(64, true), rng.New(1)
		for i := 0; i < b.N; i++ {
			block, page := keys.draw(r)
			zipfSink += uint64(block) + uint64(page)
		}
	})
	b.Run("sampler", func(b *testing.B) {
		z, r := newZipf(n), rng.New(1)
		for i := 0; i < b.N; i++ {
			zipfSink += z.next(r.Float64(), r)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rng.New(1)), zipfQ, 1, n-1)
		for i := 0; i < b.N; i++ {
			zipfSink += z.Uint64()
		}
	})
}

var zipfSink uint64
