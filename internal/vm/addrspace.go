package vm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// AddressSpace is the virtual address space of the simulated process: an
// ordered set of VMAs. Virtual addresses are allocated by a bump pointer
// with a guard gap between VMAs, mirroring mmap behaviour closely enough
// for region formation (which only needs stable, ordered, non-overlapping
// ranges).
type AddressSpace struct {
	// THP controls whether allocations of at least one huge page use
	// 2 MB pages (the paper's default, via madvise).
	THP bool

	vmas     []*VMA
	nextBase uint64
}

// vmaGap is the unmapped guard space left between consecutive VMAs.
const vmaGap = 64 * HugePageSize

// NewAddressSpace returns an empty address space with THP enabled.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{THP: true, nextBase: 1 << 30} // start at 1 GB, like a typical heap base
}

// Alloc creates a VMA of at least size bytes. With THP on and size >= 2 MB
// the VMA uses huge pages and size is rounded up to a huge-page multiple;
// otherwise 4 KB pages are used and size rounds up to 4 KB. Pages start
// non-present; the first touch faults them in.
func (as *AddressSpace) Alloc(name string, size int64) *VMA {
	if size <= 0 {
		panic(fmt.Sprintf("vm: Alloc(%q, %d): non-positive size", name, size))
	}
	pageSize := int64(BasePageSize)
	if as.THP && size >= HugePageSize {
		pageSize = HugePageSize
	}
	nPages := int((size + pageSize - 1) / pageSize)
	v := newVMA(name, as.nextBase, pageSize, nPages)
	as.nextBase = v.End() + uint64(vmaGap)
	as.vmas = append(as.vmas, v)
	return v
}

// VMAs returns the VMAs in address order. The returned slice is owned by
// the address space; callers must not mutate it.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas }

// Lookup returns the VMA containing addr and the page index within it, or
// (nil, 0) if addr is unmapped.
func (as *AddressSpace) Lookup(addr uint64) (*VMA, int) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End() > addr })
	if i == len(as.vmas) || addr < as.vmas[i].Base {
		return nil, 0
	}
	v := as.vmas[i]
	return v, v.PageOf(addr)
}

// TotalBytes returns the mapped (virtual) footprint.
func (as *AddressSpace) TotalBytes() int64 {
	var t int64
	for _, v := range as.vmas {
		t += v.Bytes()
	}
	return t
}

// PresentBytes returns the bytes with physical frames, counted word-wide
// over the present plane.
func (as *AddressSpace) PresentBytes() int64 {
	var t int64
	for _, v := range as.vmas {
		t += int64(v.PresentCount(0, v.NPages)) * v.PageSize
	}
	return t
}

// ResetCounts zeroes ground-truth counters in every VMA (interval boundary).
func (as *AddressSpace) ResetCounts() {
	for _, v := range as.vmas {
		v.ResetCounts()
	}
}

// ObserveScans models what numScans PTE scans of page idx observe during
// the current interval, given the page's ground-truth access count k. No
// accessed bit is stored: each modelled scan reads and clears one, so it
// reports whether at least one access fell in the window since the bit
// was last cleared; windowFrac is that window's length as a fraction of
// the interval.
//
// The window length is what gives a scanning profiler its dynamic range:
// with accesses spread across the interval, a window is hit with
// probability 1-(1-windowFrac)^k, so short windows (MTM paces its
// num_scans scans ~100 ms apart; DAMON checks 5 ms windows) discriminate
// access *rates*, while windowFrac=1 (AutoNUMA's cleared-present-bit,
// which faults on the first access any time before the interval ends)
// collapses to a binary accessed/not-accessed signal. The returned value
// is in [0, numScans]; this is the only channel through which PTE-scan
// profilers learn about access frequency.
func ObserveScans(v *VMA, idx, numScans int, windowFrac float64, rng *rand.Rand) int {
	return ObserveScansL(v, idx, numScans, windowFrac, math.Log1p(-windowFrac), rng)
}

// ObserveScansL is ObserveScans with log1p(-windowFrac) precomputed by the
// caller: windowFrac is a per-profiler constant, so hot scan loops hoist
// the logarithm out of the per-page path. logw must equal
// math.Log1p(-windowFrac); draws and results are identical to
// ObserveScans.
func ObserveScansL(v *VMA, idx, numScans int, windowFrac, logw float64, rng *rand.Rand) int {
	// The touched plane is the k>0 pre-check word-wide sweeps rely on:
	// untouched or non-present pages observe nothing and draw nothing, so
	// skipping them whole words at a time leaves every RNG stream intact.
	if numScans <= 0 || !v.touched.Test(idx) || !v.present.Test(idx) {
		return 0
	}
	if windowFrac >= 1 {
		return numScans
	}
	if windowFrac <= 0 {
		return 0
	}
	k := v.Count(idx)
	// p = 1-(1-w)^k via exp for large k.
	p := 1 - math.Exp(float64(k)*logw)
	hits := 0
	for i := 0; i < numScans; i++ {
		if rng.Float64() < p {
			hits++
		}
	}
	return hits
}
