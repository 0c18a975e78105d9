// Package rng is the simulation engine's random stream. It reproduces
// math/rand's seeded generator bit for bit — the same seed yields the same
// Uint64, Int63, Int31, Int31n, Int63n, Intn, Float64 and Perm results as
// rand.New(rand.NewSource(seed)) — so every simulation output stays the
// same, while the per-draw cost drops:
//
//   - the generator is a concrete type whose step is a few masked loads
//     and a store, so draws inline instead of going through rand.Rand's
//     Source interface;
//   - Bound precomputes Int31n's rejection threshold and replaces its
//     remainder with a multiply (Lemire's fastmod), so a draw with a
//     fixed bound needs no hardware divide and itself inlines; Bound63
//     precomputes Int63n's threshold, so its draw divides once, not twice.
//
// The generator is math/rand's additive lagged Fibonacci generator: output
// k is o[k] = o[k-607] + o[k-273] (mod 2^64). Rather than copying the
// table math/rand seeds it with, New draws the first 607 outputs from
// rand.NewSource(seed) and runs the recurrence backwards to recover the
// 607 values that precede them.
//
// *Rand implements rand.Source64, so rand.New(r) hands code that needs a
// *rand.Rand (DAMON's vm.ObserveScans calls) a view of the same stream,
// not a second one.
package rng

import (
	"math/bits"
	"math/rand"
)

const (
	length  = 607  // register length: o[k] depends on o[k-length]
	lag     = 273  // and on o[k-lag]
	ringLen = 1024 // a power of two above length, so slots index by masking
	mask63  = 1<<63 - 1
)

// Rand is a math/rand-compatible generator. It is not safe for
// concurrent use.
type Rand struct {
	k    uint // index of the next output; o[j] lives in slot j mod ringLen
	ring [ringLen]uint64
}

// New returns a generator whose stream equals
// rand.New(rand.NewSource(seed))'s.
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream of rand.NewSource(seed).
func (r *Rand) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	o := r.ring[:length]
	for k := range o {
		o[k] = src.Uint64()
	}
	// Replace each o[k] by o[k-length] = o[k] - o[k-lag], from k =
	// length-1 down: slot k-lag still holds o[k-lag] for k >= lag, and for
	// k < lag slot k+length-lag already holds o[k-lag].
	for k := length - 1; k >= 0; k-- {
		if k >= lag {
			o[k] -= o[k-lag]
		} else {
			o[k] -= o[k+length-lag]
		}
	}
	// o[-length..-1] belong in slots ringLen-length..ringLen-1; the first
	// draw reads them there and writes o[0] to slot 0.
	copy(r.ring[ringLen-length:], o)
	r.k = 0
}

// Uint64 returns the next raw 64-bit output.
func (r *Rand) Uint64() uint64 {
	k := r.k
	x := r.ring[(k-length)%ringLen] + r.ring[(k-lag)%ringLen]
	r.ring[k%ringLen] = x
	r.k = k + 1
	return x
}

// Int63 returns a non-negative 63-bit integer, as rand.Rand.Int63.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & mask63) }

// Int31 returns a non-negative 31-bit integer, as rand.Rand.Int31.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int31n returns an integer in [0, n), as rand.Rand.Int31n. It panics if
// n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Int63n returns an integer in [0, n), as rand.Rand.Int63n. It panics if
// n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns an integer in [0, n), as rand.Rand.Intn. It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a float in [0, 1), as rand.Rand.Float64.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Perm returns a permutation of [0, n), as rand.Rand.Perm.
func (r *Rand) Perm(n int) []int {
	m := make([]int, n)
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Mix64 is the SplitMix64 finaliser: it adds the golden-ratio increment
// to x and mixes the sum into a well-distributed 64-bit value. It seeds
// streams from structured inputs and hashes implicit data structures.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Bound is Intn(n) for a fixed n with its divides done once: Draw
// returns exactly what Intn(n) would, consuming the same draws. n must be
// at most 2^31-1, the range Intn serves with Int31n. Larger n go through
// Int63n, whose 63-bit remainder has no multiply-only form cheap enough to
// keep Draw inlinable; callers draw those with Bound63 or Intn.
type Bound struct {
	n   uint64
	max uint64 // largest accepted Int31 draw; Int31n rejects larger ones
	m   uint64 // fastmod multiplier ceil(2^64/n)
}

// NewBound prepares draws from [0, n). It panics unless 0 < n < 2^31.
func NewBound(n int) Bound {
	if n <= 0 || n > 1<<31-1 {
		panic("rng: NewBound needs 0 < n < 2^31")
	}
	u := uint64(n)
	// A power of two rejects nothing (2^31 mod n is 0), and v mod n is
	// then v's low bits, so Int31n's masking branch needs no case here.
	return Bound{n: u, max: 1<<31 - 1 - (1<<31)%u, m: ^uint64(0)/u + 1}
}

// Draw returns r.Intn(n) for the n the bound was made for.
func (b *Bound) Draw(r *Rand) int {
	for {
		// r.Int31() (bits 32..62 of the output), spelled out to keep Draw
		// within the inlining budget.
		if v := r.Uint64() << 1 >> 33; v <= b.max {
			// Lemire's fastmod: v mod n for v, n < 2^32.
			hi, _ := bits.Mul64(b.m*v, b.n)
			return int(hi)
		}
	}
}

// Bound63 is Int63n(n) for a fixed n with its rejection threshold
// computed once: Draw returns exactly what Int63n(n) would, consuming the
// same draws. The remainder stays a hardware divide: a fixed-divisor
// multiply lost to it when timed on Cassandra's 64-bit key hashes.
type Bound63 struct {
	n   int64
	max int64 // largest accepted Int63 draw; Int63n rejects larger ones
}

// NewBound63 prepares draws from [0, n). It panics unless n > 0.
func NewBound63(n int64) Bound63 {
	if n <= 0 {
		panic("rng: NewBound63 needs n > 0")
	}
	// For a power of two nothing is rejected (2^63 mod n is 0) and v mod
	// n is v's low bits, which is what Int63n's masking branch returns.
	return Bound63{n: n, max: 1<<63 - 1 - int64((1<<63)%uint64(n))}
}

// Draw returns r.Int63n(n) for the n the bound was made for.
func (b *Bound63) Draw(r *Rand) int64 {
	for {
		if v := r.Int63(); v <= b.max {
			return v % b.n
		}
	}
}
