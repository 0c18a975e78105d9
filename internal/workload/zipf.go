package workload

import (
	"math"

	"mtm/internal/rng"
)

// zipfSampler draws YCSB-style zipfian ranks. It returns exactly the rank
// rand.NewZipf(rand.New(src), zipfQ, 1, n-1) returns for the same stream
// of Float64 draws, consuming the same draws, without rand.Zipf's Exp and
// Log on every draw.
//
// rand.Zipf is Hörmann and Derflinger's rejection-inversion. Each attempt
// maps a uniform r to y = (1-q)·ur, where ur = hxm + r·(hx0-hxm), takes
// x = y^c - 1 with c = 1/(1-q), rounds it to a rank k, and accepts k if
// k-x <= s or if ur clears a second bound. zipfSampler computes hxm,
// hx0-hxm, s, ur and y with math/rand's own expressions, so y is the same
// float64 on both sides. It then approximates y^c from a table: for the
// grid point t nearest y on a uniform grid of step 2^-11,
//
//	y^c = t^c · (1+u)^c, u = (y-t)/t, |u| <= 2^-12/t,
//
// and (1+u)^c is its binomial series cut after u^4. Where the table holds
// t (t >= zipfMinGrid), the cut leaves a relative error below 1e-11, and
// math/rand's Exp(c·Log(y)) is within ~1e-14 of the true y^c. Both sit far
// inside the margin of 1e-9·(x+1) the fast path keeps from every decision
// edge: it answers only when x is that far from both rounding edges k±½
// and below the acceptance edge k-s. Then math/rand, whose x lies on the
// same side of each edge, decides the same way. Every other attempt —
// about 1.7% at bench scale, nearly all of them draws that need the
// second acceptance test — runs math/rand's hinv and both tests verbatim.
type zipfSampler struct {
	rng *rng.Rand

	// math/rand's Zipf state, with v = 1 and imax = n-1. q is a field, not
	// zipfQ itself: the compiler would fold 1.0-zipfQ exactly, while
	// math/rand subtracts from 1.07 rounded to a float64.
	q, oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm, s        float64

	c1, c2, c3, c4 float64 // binomial coefficients of c = oneminusQinv
	j0             int     // grid index of tab[0]
	// tab[i] holds grid point t = (j0+i)·2^-11 as {t^c, 1/t}, or zeros
	// until a draw first lands there. Filling it up front would put ~1,300
	// Pow calls in the workload's set-up.
	tab []zipfCell
}

type zipfCell struct{ pow, inv float64 }

const (
	// zipfQ is the skew. YCSB's zipfian constant is 0.99, but
	// rejection-inversion needs q > 1; Cassandra has always drawn with 1.07.
	zipfQ = 1.07

	zipfGridScale = 1 << 11 // grid points per unit of y
	zipfMargin    = 1e-9    // fast-path distance from any edge, relative to x+1
	// zipfMinGrid is the smallest grid point the table holds. Below it the
	// series' first omitted term, |C(c,5)|·(2^-12/t)^5, passes 1e-11; such
	// y only occur for ranks above ~4·10^8, and they take the exact path.
	zipfMinGrid = 0.25
)

// newZipf returns a sampler of ranks in [0, n-1], drawing from r; passing
// the engine's Rng keeps the sampler on the run's single stream.
func newZipf(r *rng.Rand, n uint64) *zipfSampler {
	if n < 2 {
		n = 2
	}
	// math/rand.NewZipf(r, zipfQ, 1, n-1), expression for expression.
	z := &zipfSampler{rng: r, q: zipfQ}
	imax := float64(n - 1)
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(1)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(1+1.0)))

	c := z.oneminusQinv
	z.c1 = c
	z.c2 = z.c1 * (c - 1) / 2
	z.c3 = z.c2 * (c - 2) / 3
	z.c4 = z.c3 * (c - 3) / 4

	// y runs from (1-q)·hxm at r = 0 up to (1-q)·(hxm+hx0minusHxm) as
	// r -> 1. A y outside the table takes the exact path.
	z.j0 = max(int(z.oneminusQ*z.hxm*zipfGridScale), zipfMinGrid*zipfGridScale)
	hi := int(z.oneminusQ*(z.hxm+z.hx0minusHxm)*zipfGridScale) + 2
	z.tab = make([]zipfCell, max(hi-z.j0, 0))
	return z
}

// h and hinv are math/rand's, with v = 1.
func (z *zipfSampler) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(1+x)) * z.oneminusQinv
}

func (z *zipfSampler) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - 1
}

// Next returns the next rank.
func (z *zipfSampler) Next() uint64 {
	for {
		if k, ok := z.rank(z.rng.Float64()); ok {
			return k
		}
	}
}

// rank is one attempt of math/rand's Zipf.Uint64 for the uniform draw r:
// the rank it returns, or ok = false where it rejects r and draws again.
func (z *zipfSampler) rank(r float64) (k uint64, ok bool) {
	ur := z.hxm + r*z.hx0minusHxm
	y := z.oneminusQ * ur
	j := int(y*zipfGridScale + 0.5)
	if i := j - z.j0; uint(i) < uint(len(z.tab)) {
		cell := &z.tab[i]
		if cell.pow == 0 {
			z.fill(i)
		}
		// y - t is exact: the two are within a factor of two of each other.
		u := (y - float64(j)/zipfGridScale) * cell.inv
		xp1 := cell.pow * (1 + u*(z.c1+u*(z.c2+u*(z.c3+u*z.c4))))
		x := xp1 - 1
		kf := math.Floor(x + 0.5)
		// s is 0.482 for q = 1.07, so k-x <= s-m also keeps x above the
		// lower rounding edge k-½.
		m := zipfMargin * xp1
		if d := kf - x; m < d+0.5 && d+m <= z.s {
			return uint64(kf), true
		}
	}
	// math/rand's attempt, verbatim.
	x := z.hinv(ur)
	kf := math.Floor(x + 0.5)
	if kf-x <= z.s {
		return uint64(kf), true
	}
	if ur >= z.h(kf+0.5)-math.Exp(-math.Log(kf+1)*z.q) {
		return uint64(kf), true
	}
	return 0, false
}

// fill computes table cell i.
func (z *zipfSampler) fill(i int) {
	t := float64(z.j0+i) / zipfGridScale
	z.tab[i] = zipfCell{pow: math.Pow(t, z.oneminusQinv), inv: 1 / t}
}
