// Package region implements MTM's memory regions (§5): contiguous spans of
// a VMA that are profiled as a unit, merged when neighbours show similar
// hotness, split when sampled pages inside disagree, and ranked for
// migration through an exponential moving average of their hotness
// indication. Splits are huge-page aware (§5.4): a split point is moved to
// the nearest huge-page boundary so one huge page is never profiled in two
// regions.
package region

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mtm/internal/vm"
)

// Region is one profiling unit: pages [Start, End) of a VMA.
type Region struct {
	V     *vm.VMA
	Start int // inclusive page index
	End   int // exclusive page index

	// Quota is the number of page samples assigned for the next
	// profiling interval (>= 1 for actively profiled regions).
	Quota int
	// Samples are the page indices MTM scanned last interval, and
	// Observed their multi-scan observation counts, parallel to Samples;
	// SplitPass reads them. Other profilers leave both empty.
	Samples  []int
	Observed []int

	// HI is the hotness indication of the last interval: the average
	// observed count over the region's samples (§5.1).
	HI float64
	// PrevHI is the HI of the interval before, for variance tracking.
	PrevHI float64
	// WHI is the exponential moving average of HI (Equation 2).
	WHI float64
	// Sampled reports whether the region was profiled last interval; an
	// unprofiled region keeps its previous WHI.
	Sampled bool

	// Generation-stamped selection. The stamp lets the profiler's
	// per-interval selection set live on the region itself instead of in
	// a per-interval map: a reader presents its current generation, and a
	// stale stamp (from a previous interval) simply reads as "not set".
	profGen uint32 // generation of profSel (see SetProfiled)
	profSel bool   // selected for PTE scans in generation profGen
}

// SetProfiled records whether the profiler selected the region for PTE
// scans in profiling generation gen.
func (r *Region) SetProfiled(gen uint32, on bool) {
	r.profGen, r.profSel = gen, on
}

// ProfiledIn reports whether the region was selected in generation gen;
// regions stamped by an older generation (e.g. pointers surviving a
// merge/split rebuild) read as not selected.
func (r *Region) ProfiledIn(gen uint32) bool {
	return r.profGen == gen && r.profSel
}

// Pages returns the region length in pages.
func (r *Region) Pages() int { return r.End - r.Start }

// Bytes returns the region length in bytes.
func (r *Region) Bytes() int64 { return int64(r.Pages()) * r.V.PageSize }

// Variance is the absolute change in hotness indication across the last
// two profiling intervals; large values mean a changing access pattern and
// attract extra sample quota (§5.2).
func (r *Region) Variance() float64 { return math.Abs(r.HI - r.PrevHI) }

// Observe records hi as the interval's hotness indication: the previous
// HI moves to PrevHI and the region counts as sampled.
func (r *Region) Observe(hi float64) {
	r.PrevHI, r.HI, r.Sampled = r.HI, hi, true
}

// SpreadObserved returns the max-min difference of the last interval's
// observed counts, the split criterion of §5.1.
func (r *Region) SpreadObserved() int {
	if len(r.Observed) == 0 {
		return 0
	}
	mn, mx := r.Observed[0], r.Observed[0]
	for _, o := range r.Observed[1:] {
		if o < mn {
			mn = o
		}
		if o > mx {
			mx = o
		}
	}
	return mx - mn
}

// UpdateEMA folds the latest HI into WHI with weight alpha (Equation 2).
func (r *Region) UpdateEMA(alpha float64) {
	r.WHI = alpha*r.HI + (1-alpha)*r.WHI
}

func (r *Region) String() string {
	return fmt.Sprintf("%s[%d:%d) HI=%.2f WHI=%.2f q=%d", r.V.Name, r.Start, r.End, r.HI, r.WHI, r.Quota)
}

// Set is the ordered collection of regions covering an address space,
// with the merge/split machinery and formation statistics.
type Set struct {
	// TauM and TauS are the merge and split thresholds of §5.1, in units
	// of observed scan counts (range [0, NumScans]).
	TauM, TauS float64
	// NumScans is the scans-per-sampled-PTE constant (3 by default).
	NumScans int

	regions []*Region // address-ordered

	// Retired backing arrays of previous merge/split rebuilds, reused as
	// the out-buffers of the next passes so steady-state formation does
	// not reallocate the region table every interval. Three arrays rotate
	// through regions/mergeSpare/splitSpare; the array being appended to
	// is never the one being read.
	mergeSpare []*Region
	splitSpare []*Region

	// Formation statistics (Table 7), cumulative since the set was
	// built.
	Merged int64
	Split  int64
}

// DefaultNumScans is the paper's num_scans constant.
const DefaultNumScans = 3

// maxMergePages caps a merged region's size. The cap keeps one merge pass
// from chaining the address space into blobs a split pass (at most
// maxSplitDepth halvings per interval) cannot recover from, and bounds
// migration granularity.
const maxMergePages = 128

// NewSet creates an empty set with the paper's default thresholds:
// τm = num_scans/3, τs = 2·num_scans/3.
func NewSet(numScans int) *Set {
	if numScans <= 0 {
		numScans = DefaultNumScans
	}
	return &Set{
		NumScans: numScans,
		TauM:     float64(numScans) / 3,
		TauS:     2 * float64(numScans) / 3,
	}
}

// InitVMA carves a VMA into initial regions of regionBytes (2 MB default,
// the span of one last-level page-directory entry) and appends them.
func (s *Set) InitVMA(v *vm.VMA, regionBytes int64) {
	if regionBytes < v.PageSize {
		regionBytes = v.PageSize
	}
	per := int(regionBytes / v.PageSize)
	for start := 0; start < v.NPages; start += per {
		end := start + per
		if end > v.NPages {
			end = v.NPages
		}
		s.regions = append(s.regions, &Region{V: v, Start: start, End: end, Quota: 1})
	}
}

// Regions returns the regions in address order; callers must not mutate
// the slice structure (the set owns it).
func (s *Set) Regions() []*Region { return s.regions }

// Find returns the position in Regions of the region holding page idx of
// v, or -1 if none does, by binary search over the address order.
func (s *Set) Find(v *vm.VMA, idx int) int {
	addr := v.Addr(idx)
	lo, hi := 0, len(s.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := s.regions[mid]
		start := r.V.Addr(r.Start)
		switch {
		case addr < start:
			hi = mid
		case addr >= start+uint64(r.Bytes()):
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Replace swaps in a rebuilt region list and restores address order.
func (s *Set) Replace(regions []*Region) {
	s.regions = regions
	s.sortByAddr()
}

// Len returns the number of regions.
func (s *Set) Len() int { return len(s.regions) }

// TotalQuota sums the sample quotas of all regions.
func (s *Set) TotalQuota() int {
	t := 0
	for _, r := range s.regions {
		t += r.Quota
	}
	return t
}

// MergePass merges adjacent regions of the same VMA whose hotness
// indications differ by less than tauM (§5.1) in both the most recent
// interval (HI) and the time-smoothed view (WHI) — the EMA requirement
// keeps a hot region whose latest sample happened to read cold from being
// absorbed into a cold neighbour. The merged region's quota is the halved
// sum of the pair's quotas, at least 1; the freed quota is returned for
// redistribution (§5.2).
func (s *Set) MergePass(tauM float64) (freedQuota int) {
	if len(s.regions) < 2 {
		return 0
	}
	out := s.mergeSpare[:0]
	cur := s.regions[0]
	for _, next := range s.regions[1:] {
		if cur.V == next.V && cur.End == next.Start && cur.Sampled && next.Sampled &&
			math.Abs(cur.HI-next.HI) < tauM &&
			math.Abs(cur.WHI-next.WHI) < tauM &&
			cur.Pages()+next.Pages() <= maxMergePages {
			sum := cur.Quota + next.Quota
			newQuota := sum / 2
			if newQuota < 1 {
				newQuota = 1
			}
			freedQuota += sum - newQuota
			cur = &Region{
				V:     cur.V,
				Start: cur.Start,
				End:   next.End,
				Quota: newQuota,
				// Size-weighted hotness so a follow-up merge test
				// remains meaningful.
				HI:      (cur.HI*float64(cur.Pages()) + next.HI*float64(next.Pages())) / float64(cur.Pages()+next.Pages()),
				PrevHI:  (cur.PrevHI + next.PrevHI) / 2,
				WHI:     (cur.WHI*float64(cur.Pages()) + next.WHI*float64(next.Pages())) / float64(cur.Pages()+next.Pages()),
				Sampled: true,
			}
			s.Merged++
			continue
		}
		out = append(out, cur)
		cur = next
	}
	out = append(out, cur)
	s.mergeSpare = s.regions[:0]
	s.regions = out
	return freedQuota
}

// maxSplitDepth bounds recursive splitting within one interval.
const maxSplitDepth = 6

// SplitPass splits every region whose sampled pages disagree by more than
// tauS (§5.1). Splitting is guided, not random: the region halves at a
// huge-page-aligned midpoint (§5.4), each half recomputes its hotness
// from its own samples, and halves that still disagree split again within
// the same pass (up to maxSplitDepth). This is what lets a hot block be
// carved out of a large mixed region within one profiling interval — the
// responsiveness §3 finds missing in DAMON's one-random-split-per-pass.
// A half's WHI blends its own HI into the parent's WHI with the
// profiler's EMA weight alpha (Equation 2).
func (s *Set) SplitPass(tauS, alpha float64) {
	out := s.splitSpare[:0]
	for _, r := range s.regions {
		s.splitRec(r, tauS, alpha, 0, &out)
	}
	s.splitSpare = s.regions[:0]
	s.regions = out
	s.sortByAddr()
}

func (s *Set) splitRec(r *Region, tauS, alpha float64, depth int, out *[]*Region) {
	if depth >= maxSplitDepth || !r.Sampled || r.Pages() < 2 ||
		len(r.Samples) < 2 || float64(r.SpreadObserved()) <= tauS {
		*out = append(*out, r)
		return
	}
	mid := s.splitPoint(r)
	if mid <= r.Start || mid >= r.End {
		*out = append(*out, r)
		return
	}
	a := &Region{V: r.V, Start: r.Start, End: mid, Sampled: true, PrevHI: r.PrevHI}
	b := &Region{V: r.V, Start: mid, End: r.End, Sampled: true, PrevHI: r.PrevHI}
	// Partition the parent's samples and quota between the halves, and
	// re-derive each half's hotness from its own evidence.
	for i, p := range r.Samples {
		if p < mid {
			a.Samples = append(a.Samples, p)
			a.Observed = append(a.Observed, r.Observed[i])
		} else {
			b.Samples = append(b.Samples, p)
			b.Observed = append(b.Observed, r.Observed[i])
		}
	}
	for _, h := range []*Region{a, b} {
		h.Quota = r.Quota * h.Pages() / r.Pages()
		if h.Quota < 1 {
			h.Quota = 1
		}
		if len(h.Observed) > 0 {
			sum := 0
			for _, o := range h.Observed {
				sum += o
			}
			h.HI = float64(sum) / float64(len(h.Observed))
		} else {
			h.HI = r.HI
		}
		// Approximate the EMA the half would have: re-blend its own HI
		// into the parent's history.
		h.WHI = alpha*h.HI + (1-alpha)*r.WHI
	}
	s.Split++
	s.splitRec(a, tauS, alpha, depth+1, out)
	s.splitRec(b, tauS, alpha, depth+1, out)
}

// splitPoint picks the midpoint of r aligned so no 2 MB huge page is cut
// in half. For huge-page VMAs every index is already aligned; for 4 KB
// VMAs the midpoint snaps down to a multiple of 512 pages (the VMA base is
// always huge-aligned).
func (s *Set) splitPoint(r *Region) int {
	mid := r.Start + r.Pages()/2
	if r.V.PageSize == vm.HugePageSize {
		return mid
	}
	aligned := mid - mid%vm.HugeRatio
	if aligned <= r.Start {
		aligned = r.Start + vm.HugeRatio
	}
	if aligned >= r.End {
		return mid // sub-huge-page region: equal split is the best we can do
	}
	return aligned
}

func (s *Set) sortByAddr() {
	// (V.Base, Start) pairs are strictly unique across a valid set, so the
	// unstable pattern-defeating quicksort is safe and allocation-free
	// (sort.Slice boxes its closure and reflects; slices.SortFunc does not).
	slices.SortFunc(s.regions, func(a, b *Region) int {
		if a.V.Base != b.V.Base {
			return cmp.Compare(a.V.Base, b.V.Base)
		}
		return cmp.Compare(a.Start, b.Start)
	})
}

// Validate checks the set invariants: regions are address-ordered,
// non-overlapping, non-empty, and cover each VMA without gaps introduced
// by merge/split. It is used by tests and the property suite.
func (s *Set) Validate() error {
	for i, r := range s.regions {
		if r.Start >= r.End {
			return fmt.Errorf("region %d: empty range [%d,%d)", i, r.Start, r.End)
		}
		if r.End > r.V.NPages {
			return fmt.Errorf("region %d: end %d past VMA pages %d", i, r.End, r.V.NPages)
		}
		if i == 0 {
			continue
		}
		p := s.regions[i-1]
		if p.V == r.V {
			if p.End != r.Start {
				return fmt.Errorf("region %d: gap/overlap: prev end %d, start %d", i, p.End, r.Start)
			}
		} else if p.V.Base >= r.V.Base {
			return fmt.Errorf("region %d: VMA order violated", i)
		}
	}
	return nil
}
