package vm

import "math/bits"

// WordPages is the number of pages covered by one bitmap word. Profiler
// sweeps read page state 64 pages at a time, so anything that wants to
// stay cache-friendly (shard boundaries, region carving) should align to
// this granularity where it can.
const WordPages = 64

// Bitmap is a flat per-VMA bit plane indexed by page number, 64 pages per
// word. The VMA keeps one plane per hot PTE flag (present, dirty) plus
// the ground-truth touched plane, so profiler scans are word-wide sweeps
// (bits.OnesCount64 over words, bits.TrailingZeros64 to visit set pages)
// instead of per-page PTE loads.
type Bitmap []uint64

// NewBitmap returns a zeroed bitmap covering n pages.
func NewBitmap(n int) Bitmap {
	return make(Bitmap, (n+WordPages-1)/WordPages)
}

// Test reports whether bit i is set.
func (b Bitmap) Test(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Word returns word w (pages [64w, 64w+64)).
func (b Bitmap) Word(w int) uint64 { return b[w] }

// Words returns the number of words.
func (b Bitmap) Words() int { return len(b) }

// ClearAll zeroes the bitmap (one memclr).
func (b Bitmap) ClearAll() { clear(b) }

// wordMask returns the mask selecting bits [lo, hi) of the word holding
// page lo, clamped to that word.
func rangeMasks(lo, hi int) (firstWord, lastWord int, firstMask, lastMask uint64) {
	firstWord, lastWord = lo>>6, (hi-1)>>6
	firstMask = ^uint64(0) << uint(lo&63)
	lastMask = ^uint64(0) >> uint(63-(hi-1)&63)
	return
}

// SetRange sets every bit in [lo, hi) via word-wide stores.
func (b Bitmap) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	fw, lw, fm, lm := rangeMasks(lo, hi)
	if fw == lw {
		b[fw] |= fm & lm
		return
	}
	b[fw] |= fm
	for w := fw + 1; w < lw; w++ {
		b[w] = ^uint64(0)
	}
	b[lw] |= lm
}

// CountRange returns the number of set bits in [lo, hi) via word-wide
// popcounts.
func (b Bitmap) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	fw, lw, fm, lm := rangeMasks(lo, hi)
	if fw == lw {
		return bits.OnesCount64(b[fw] & fm & lm)
	}
	n := bits.OnesCount64(b[fw] & fm)
	for w := fw + 1; w < lw; w++ {
		n += bits.OnesCount64(b[w])
	}
	return n + bits.OnesCount64(b[lw]&lm)
}

// NextSet returns the index of the first set bit >= i, or -1 if none.
func (b Bitmap) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if word := b[w] >> uint(i&63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// RangeWord returns the bits of word w restricted to pages [lo, hi): the
// sweep primitive. Callers iterate set bits with bits.TrailingZeros64:
//
//	for w := lo >> 6; w <= (hi-1)>>6; w++ {
//		for word := b.RangeWord(w, lo, hi); word != 0; word &= word - 1 {
//			idx := w<<6 + bits.TrailingZeros64(word)
//			...
//		}
//	}
func (b Bitmap) RangeWord(w, lo, hi int) uint64 {
	word := b[w]
	if base := w << 6; base < lo {
		word &= ^uint64(0) << uint(lo-base)
	}
	if end := w<<6 + WordPages; end > hi {
		word &= ^uint64(0) >> uint(end-hi)
	}
	return word
}
