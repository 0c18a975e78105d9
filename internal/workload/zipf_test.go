package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mtm/internal/rng"
	"mtm/internal/sim"
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
					if g, w := got.Next(r1), want.Uint64(); g != w {
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
// Float64 can return.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint64(409600), uint64(1)<<62)
	f.Add(uint64(2), uint64(0))
	f.Add(uint64(1)<<30, uint64(12345)<<40)
	f.Fuzz(func(t *testing.T, n, bits uint64) {
		n = 2 + n>>2
		r := uniform(int64(bits >> 1))
		if r == 1 {
			return // Float64 never returns 1
		}
		k, ok := newZipf(n).rank(r)
		wk, wok := newStdZipf(n).rank(r)
		if ok != wok || (ok && k != wk) {
			t.Fatalf("n=%d r=%v: rank (%d, %v), rand.Zipf (%d, %v)", n, r, k, ok, wk, wok)
		}
	})
}

// BenchmarkZipfNext times one Cassandra key rank at bench scale (n =
// 409600) from zipfSampler and from the rand.Zipf it replaces.
func BenchmarkZipfNext(b *testing.B) {
	const n = 409600
	b.Run("sampler", func(b *testing.B) {
		z, r := newZipf(n), rng.New(1)
		for i := 0; i < b.N; i++ {
			zipfSink += z.Next(r)
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
