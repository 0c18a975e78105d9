package rng

import (
	"math/rand"
	"testing"
)

var testSeeds = []int64{0, 1, -5, 7, 42, 1<<31 - 1, 1 << 31, 1 << 40, -(1 << 62)}

// testBounds covers Int31n's masking branch (1 and powers of two), its
// rejection branch (80, 819, 2^31-1) and Intn's Int63n path (the rest).
// The first boundBounds of them are the ones a Bound accepts.
var testBounds = []int{1, 2, 64, 1 << 20, 1 << 30, 80, 819, 1<<31 - 1, 1 << 31, 1<<31 + 1, 3 << 40, 1<<62 + 7}

const boundBounds = 8

// TestStreamMatchesMathRand interleaves every method over a million draws
// per seed and requires each result to equal math/rand's for the same
// seed and the same call sequence.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	bounds := make([]Bound, boundBounds)
	for i, n := range testBounds[:boundBounds] {
		bounds[i] = NewBound(n)
	}
	for _, seed := range testSeeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			n := testBounds[pick.Intn(len(testBounds))]
			var g, w int64
			op := pick.Intn(10)
			switch op {
			case 0:
				g, w = int64(got.Intn(n)), int64(want.Intn(n))
			case 1:
				k := pick.Intn(len(bounds))
				g, w = int64(bounds[k].Draw(got)), int64(want.Intn(testBounds[k]))
			case 2:
				g, w = got.Int63n(int64(n)), want.Int63n(int64(n))
			case 3:
				m := int32(n)
				if n > 1<<31-1 {
					m = 1<<31 - 1
				}
				g, w = int64(got.Int31n(m)), int64(want.Int31n(m))
			case 4:
				gf, wf := got.Float64(), want.Float64()
				if gf != wf {
					t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, gf, wf)
				}
			case 5:
				g, w = int64(got.Uint64()), int64(want.Uint64())
			case 6:
				g, w = got.Int63(), want.Int63()
			case 7:
				g, w = int64(got.Int31()), int64(want.Int31())
			case 8:
				if i%64 != 0 {
					continue
				}
				k := pick.Intn(40)
				gp, wp := got.Perm(k), want.Perm(k)
				for j := range wp {
					if gp[j] != wp[j] {
						t.Fatalf("seed %d draw %d: Perm(%d) = %v, math/rand %v", seed, i, k, gp, wp)
					}
				}
			case 9:
				k := pick.Intn(len(bounds))
				g, w = int64(bounds[k].Draw(got)), int64(bounds[k].Draw(got))
				g2, w2 := int64(want.Intn(testBounds[k])), int64(want.Intn(testBounds[k]))
				if g != g2 || w != w2 {
					t.Fatalf("seed %d draw %d: two Bound(%d) draws = %d, %d; math/rand Intn %d, %d", seed, i, testBounds[k], g, w, g2, w2)
				}
				continue
			}
			if g != w {
				t.Fatalf("seed %d draw %d: op %d with n=%d = %d, math/rand %d", seed, i, op, n, g, w)
			}
		}
	}
}

// TestBoundDrawEqualsIntn checks Draw against Intn bound by bound, each
// on a fresh stream, including streams long enough to hit rejections.
func TestBoundDrawEqualsIntn(t *testing.T) {
	for _, n := range testBounds[:boundBounds] {
		b := NewBound(n)
		for _, seed := range testSeeds {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 20_000; i++ {
				if g, w := b.Draw(got), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Bound(%d).Draw = %d, Intn %d", seed, i, n, g, w)
				}
			}
		}
	}
}

// TestBound63DrawEqualsInt63n checks Bound63's Draw against Int63n for
// every test bound, each on a fresh stream. 2^62+7 rejects nearly half
// of all draws.
func TestBound63DrawEqualsInt63n(t *testing.T) {
	for _, n := range append([]int{1<<63 - 1}, testBounds...) {
		b := NewBound63(int64(n))
		for _, seed := range testSeeds {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 20_000; i++ {
				if g, w := b.Draw(got), want.Int63n(int64(n)); g != w {
					t.Fatalf("seed %d draw %d: Bound63(%d).Draw = %d, Int63n %d", seed, i, n, g, w)
				}
			}
		}
	}
}

// TestSharedStreamThroughRandNew pins the contract DAMON relies on to
// hand vm.ObserveScans a *rand.Rand: rand.New(r) draws from r's stream.
func TestSharedStreamThroughRandNew(t *testing.T) {
	r := New(7)
	view := rand.New(r)
	want := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		var g, w float64
		if i%2 == 0 {
			g = view.Float64()
		} else {
			g = float64(r.Intn(1000))
		}
		if i%2 == 0 {
			w = want.Float64()
		} else {
			w = float64(want.Intn(1000))
		}
		if g != w {
			t.Fatalf("draw %d: %v, math/rand %v", i, g, w)
		}
	}
}

func TestNonPositiveArgumentsPanic(t *testing.T) {
	r := New(1)
	for name, f := range map[string]func(){
		"Intn":           func() { r.Intn(0) },
		"Int31n":         func() { r.Int31n(-1) },
		"Int63n":         func() { r.Int63n(0) },
		"NewBound(0)":    func() { NewBound(0) },
		"NewBound(2^31)": func() { NewBound(1 << 31) },
		"NewBound63(0)":  func() { NewBound63(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Intn(819)
	}
}

func BenchmarkBoundDraw(b *testing.B) {
	r, bd := New(1), NewBound(819)
	for i := 0; i < b.N; i++ {
		bd.Draw(r)
	}
}

func BenchmarkMathRandIntn(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Intn(819)
	}
}

// TestMix64 pins the finaliser to SplitMix64's reference outputs: the
// first two draws of the generator seeded with 0 are Mix64(0) and
// Mix64(0x9e3779b97f4a7c15).
func TestMix64(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
	} {
		if got := Mix64(c.in); got != c.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
