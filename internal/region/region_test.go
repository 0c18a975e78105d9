package region

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

func newTestVMA(t *testing.T, mb int64) *vm.VMA {
	t.Helper()
	as := vm.NewAddressSpace()
	return as.Alloc("test", mb*tier.MB)
}

func TestInitVMA(t *testing.T) {
	v := newTestVMA(t, 16) // 8 huge pages
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	if s.Len() != 8 {
		t.Fatalf("regions = %d, want 8", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Regions() {
		if r.Pages() != 1 || r.Quota != 1 {
			t.Fatalf("bad initial region %v", r)
		}
	}
}

func TestInitVMACoarse(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 6*tier.MB) // 3 pages per region, 8 pages total
	if s.Len() != 3 {
		t.Fatalf("regions = %d, want 3 (3+3+2)", s.Len())
	}
	last := s.Regions()[2]
	if last.Pages() != 2 {
		t.Fatalf("tail region pages = %d, want 2", last.Pages())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultThresholds(t *testing.T) {
	s := NewSet(3)
	if s.TauM != 1 || s.TauS != 2 {
		t.Fatalf("τm=%v τs=%v, want 1/2", s.TauM, s.TauS)
	}
	s6 := NewSet(6)
	if s6.TauM != 2 || s6.TauS != 4 {
		t.Fatalf("num_scans=6: τm=%v τs=%v, want 2/4", s6.TauM, s6.TauS)
	}
}

func markAll(s *Set, hi func(i int) float64) {
	for i, r := range s.Regions() {
		r.HI = hi(i)
		r.WHI = hi(i)
		r.Sampled = true
	}
}

func TestMergeSimilarNeighbours(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	markAll(s, func(int) float64 { return 0.1 })
	freed := s.MergePass(1.0)
	if s.Len() != 1 {
		t.Fatalf("regions after merge = %d, want 1", s.Len())
	}
	if freed != 7 {
		t.Fatalf("freed quota = %d, want 7 (8 merged to 1)", freed)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Merged != 7 {
		t.Fatalf("merge count = %d, want 7", s.Merged)
	}
}

func TestMergeRespectsHotnessGap(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	// Alternate hot/cold: nothing may merge.
	markAll(s, func(i int) float64 {
		if i%2 == 0 {
			return 3
		}
		return 0
	})
	if s.MergePass(1.0); s.Len() != 8 {
		t.Fatalf("regions = %d, want 8 (no merges)", s.Len())
	}
}

func TestMergeRequiresStableHotness(t *testing.T) {
	v := newTestVMA(t, 8)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	regions := s.Regions()
	// Region 0 is historically hot (WHI 3) but read cold this interval;
	// region 1 is cold. HI matches but WHI must block the merge.
	for _, r := range regions {
		r.Sampled = true
	}
	regions[0].HI, regions[0].WHI = 0, 3
	regions[1].HI, regions[1].WHI = 0, 0
	regions[2].HI, regions[2].WHI = 0, 0
	regions[3].HI, regions[3].WHI = 0, 0
	s.MergePass(1.0)
	if s.Len() != 2 {
		t.Fatalf("regions = %d, want 2 (hot kept apart, 3 cold merged)", s.Len())
	}
}

func TestMergeSizeCap(t *testing.T) {
	v := newTestVMA(t, 600) // 300 pages
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	markAll(s, func(int) float64 { return 0 })
	s.MergePass(1.0)
	// One pass chains the cold pages into capped runs: 128+128+44.
	if s.Len() != 3 {
		t.Fatalf("regions = %d, want 3", s.Len())
	}
	for _, r := range s.Regions() {
		if r.Pages() > maxMergePages {
			t.Fatalf("region %v exceeds merge cap", r)
		}
	}
}

func TestMergeDoesNotCrossVMAs(t *testing.T) {
	as := vm.NewAddressSpace()
	a := as.Alloc("a", 4*tier.MB)
	b := as.Alloc("b", 4*tier.MB)
	s := NewSet(3)
	s.InitVMA(a, 2*tier.MB)
	s.InitVMA(b, 2*tier.MB)
	markAll(s, func(int) float64 { return 0 })
	s.MergePass(1.0)
	if s.Len() != 2 {
		t.Fatalf("regions = %d, want 2 (one per VMA)", s.Len())
	}
	for _, r := range s.Regions() {
		if r.Pages() != 2 {
			t.Fatalf("region %v spans VMAs", r)
		}
	}
}

func TestSplitOnSpread(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 16*tier.MB) // one region, 8 pages
	r := s.Regions()[0]
	r.Sampled = true
	r.Samples = []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Observed = []int{3, 3, 3, 3, 0, 0, 0, 0}
	r.Quota = 8
	s.SplitPass(2.0, 0.5)
	if s.Len() < 2 {
		t.Fatalf("regions = %d, want >= 2 after split", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The recursive, sample-partitioned split must leave the hot half
	// hotter than the cold half.
	regions := s.Regions()
	if !(regions[0].HI > regions[len(regions)-1].HI) {
		t.Fatalf("split halves not differentiated: first HI=%v last HI=%v", regions[0].HI, regions[len(regions)-1].HI)
	}
	// Quota is preserved in total (each half gets a proportional share,
	// minimum 1).
	total := 0
	for _, r := range regions {
		total += r.Quota
	}
	if total < 8 {
		t.Fatalf("quota shrank from 8 to %d", total)
	}
}

func TestSplitUniformRegionUntouched(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 16*tier.MB)
	r := s.Regions()[0]
	r.Sampled = true
	r.Samples = []int{1, 3, 5}
	r.Observed = []int{2, 2, 2}
	s.SplitPass(2.0, 0.5)
	if s.Len() != 1 {
		t.Fatalf("uniform region split into %d", s.Len())
	}
}

func TestSplitHugePageAlignment4K(t *testing.T) {
	as := vm.NewAddressSpace()
	as.THP = false
	v := as.Alloc("flat", 8*tier.MB) // 2048 4K pages
	s := NewSet(3)
	s.InitVMA(v, 8*tier.MB)
	r := s.Regions()[0]
	r.Sampled = true
	r.Samples = []int{10, 2000}
	r.Observed = []int{3, 0}
	r.Quota = 2
	s.SplitPass(2.0, 0.5)
	for _, reg := range s.Regions() {
		if reg.Start%vm.HugeRatio != 0 && reg.Start != 0 {
			t.Fatalf("split start %d not huge-aligned", reg.Start)
		}
	}
}

func TestSpreadObserved(t *testing.T) {
	r := &Region{Observed: []int{1, 3, 0, 2}}
	if got := r.SpreadObserved(); got != 3 {
		t.Fatalf("spread = %d, want 3", got)
	}
	if got := (&Region{}).SpreadObserved(); got != 0 {
		t.Fatalf("empty spread = %d", got)
	}
}

func TestEMA(t *testing.T) {
	r := &Region{HI: 2, WHI: 0}
	r.UpdateEMA(0.5)
	if r.WHI != 1 {
		t.Fatalf("WHI = %v, want 1", r.WHI)
	}
	r.UpdateEMA(1.0)
	if r.WHI != 2 {
		t.Fatalf("α=1: WHI = %v, want HI", r.WHI)
	}
	r.HI = 0
	r.UpdateEMA(0)
	if r.WHI != 2 {
		t.Fatalf("α=0: WHI = %v, want history only", r.WHI)
	}
}

func TestVariance(t *testing.T) {
	r := &Region{HI: 1, PrevHI: 3}
	if r.Variance() != 2 {
		t.Fatalf("variance = %v", r.Variance())
	}
	r.Observe(4)
	if r.PrevHI != 1 || r.HI != 4 || !r.Sampled || r.Variance() != 3 {
		t.Fatalf("after Observe(4): %+v", r)
	}
}

func TestHistogramOrdering(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	markAll(s, func(i int) float64 { return float64(i) / 3 })
	h := NewHistogram(s.Regions())
	hot := h.HottestFirst()
	if len(hot) != 8 {
		t.Fatalf("histogram lost regions: %d", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i-1].WHI < hot[i].WHI-0.5 {
			t.Fatalf("HottestFirst out of order at %d: %v then %v", i, hot[i-1].WHI, hot[i].WHI)
		}
	}
	cold := h.ColdestFirst()
	if cold[0].WHI > cold[len(cold)-1].WHI {
		t.Fatal("ColdestFirst not ascending")
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	v := newTestVMA(t, 4)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	regions := s.Regions()
	regions[0].WHI = -5
	regions[1].WHI = 100
	h := NewHistogram(regions)
	if got := len(h.HottestFirst()); got != 2 {
		t.Fatalf("clamped histogram lost regions: %d", got)
	}
}

func TestTopVariance(t *testing.T) {
	tv := NewTopVariance()
	var regs []*Region
	for i := 0; i < 10; i++ {
		r := &Region{HI: float64(i), PrevHI: 0}
		regs = append(regs, r)
		tv.Offer(r)
	}
	got := tv.Regions()
	if len(got) != topK {
		t.Fatalf("kept %d, want %d", len(got), topK)
	}
	for _, r := range got {
		if r.Variance() < 5 {
			t.Fatalf("kept region with variance %v; want the top five", r.Variance())
		}
	}
	tv.Reset()
	if len(tv.Regions()) != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestTopVarianceNoDuplicateAdmission is the regression test for Offer
// admitting the same *Region twice: once while the set is filling, and
// once by evicting the current minimum in favour of an already-kept
// region. Either duplicate would hand that region a double share of the
// redistributed sample quota (§5.2).
func TestTopVarianceNoDuplicateAdmission(t *testing.T) {
	hot := &Region{HI: 10, PrevHI: 0} // highest variance on offer
	mild := &Region{HI: 2, PrevHI: 0}
	cold := &Region{HI: 1, PrevHI: 0}

	// Fill phase: re-offering hot while slots are free must not append it
	// again.
	tv := NewTopVariance()
	tv.Offer(hot)
	tv.Offer(hot)
	tv.Offer(mild)
	seen := map[*Region]int{}
	for _, r := range tv.Regions() {
		seen[r]++
	}
	if seen[hot] != 1 {
		t.Fatalf("fill phase kept hot %d times, want 1 (set %v)", seen[hot], tv.Regions())
	}

	// Full phase: hot beats the minimum (cold), but it is already kept —
	// evicting cold for a second hot slot is the same double admission.
	tv = NewTopVariance()
	tv.Offer(hot)
	tv.Offer(mild)
	tv.Offer(cold)
	tv.Offer(&Region{HI: 3})
	tv.Offer(&Region{HI: 4})
	tv.Offer(hot)
	seen = map[*Region]int{}
	for _, r := range tv.Regions() {
		seen[r]++
	}
	if seen[hot] != 1 {
		t.Fatalf("full phase kept hot %d times, want 1", seen[hot])
	}
	if seen[cold] != 1 {
		t.Fatal("re-offering a kept region evicted the minimum")
	}
}

// TestFormationInvariant is the property test of region formation: any
// sequence of merge and split passes with random hotness keeps the set
// valid (ordered, non-overlapping, gap-free) and quota-positive.
func TestFormationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		as := vm.NewAddressSpace()
		v := as.Alloc("p", 64*tier.MB) // 32 pages
		s := NewSet(3)
		s.InitVMA(v, 2*tier.MB)
		for round := 0; round < 10; round++ {
			for _, r := range s.Regions() {
				r.Observe(float64(rng.Intn(4)))
				r.UpdateEMA(0.5)
				n := 1 + rng.Intn(3)
				r.Samples = r.Samples[:0]
				r.Observed = r.Observed[:0]
				for j := 0; j < n; j++ {
					r.Samples = append(r.Samples, r.Start+rng.Intn(r.Pages()))
					r.Observed = append(r.Observed, rng.Intn(4))
				}
			}
			s.MergePass(1.0)
			s.SplitPass(2.0, 0.5)
			if err := s.Validate(); err != nil {
				t.Log(err)
				return false
			}
			for _, r := range s.Regions() {
				if r.Quota < 0 {
					return false
				}
			}
		}
		// Coverage: regions must still cover exactly the VMA.
		total := 0
		for _, r := range s.Regions() {
			total += r.Pages()
		}
		return total == v.NPages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeQuotaConservation(t *testing.T) {
	v := newTestVMA(t, 16)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	for _, r := range s.Regions() {
		r.Quota = 3
		r.Sampled = true
	}
	before := s.TotalQuota()
	freed := s.MergePass(1.0)
	if got := s.TotalQuota() + freed; got != before {
		t.Fatalf("quota leaked: before %d, after %d + freed %d", before, s.TotalQuota(), freed)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	v := newTestVMA(t, 8)
	s := NewSet(3)
	s.InitVMA(v, 2*tier.MB)
	regions := s.Regions()
	// Scaled to the largest WHI, 3: buckets [0, 3/32), [3/32, 6/32), …,
	// with 3 itself in the hottest bucket.
	regions[0].WHI = 0
	regions[1].WHI = 0.09
	regions[2].WHI = 0.1
	regions[3].WHI = 3
	h := NewHistogram(regions)
	top := h.Buckets() - 1
	if len(h.buckets[0]) != 2 || len(h.buckets[1]) != 1 || len(h.buckets[top]) != 1 {
		t.Fatalf("bucket sizes %d/%d/%d, want 2/1/1", len(h.buckets[0]), len(h.buckets[1]), len(h.buckets[top]))
	}
}

func TestSplitDepthBounded(t *testing.T) {
	// A region whose samples alternate hot/cold at every page would
	// recurse forever without the depth bound.
	v := newTestVMA(t, 512)
	s := NewSet(3)
	s.InitVMA(v, 512*tier.MB)
	r := s.Regions()[0]
	r.Sampled = true
	for i := 0; i < r.Pages(); i++ {
		r.Samples = append(r.Samples, i)
		r.Observed = append(r.Observed, (i%2)*3)
	}
	r.Quota = r.Pages()
	s.SplitPass(2.0, 0.5)
	if s.Len() > 1<<(maxSplitDepth+1) {
		t.Fatalf("split produced %d regions; depth bound broken", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFind: every page resolves to the region holding it, across VMAs
// and uneven region sizes, and a page of an unregistered VMA to -1.
func TestFind(t *testing.T) {
	as := vm.NewAddressSpace()
	a := as.Alloc("a", 16*tier.MB)
	b := as.Alloc("b", 10*tier.MB)
	other := as.Alloc("other", 4*tier.MB)
	s := NewSet(3)
	s.InitVMA(a, 6*tier.MB)
	s.InitVMA(b, 2*tier.MB)
	for _, v := range []*vm.VMA{a, b} {
		for i := 0; i < v.NPages; i++ {
			ri := s.Find(v, i)
			if ri < 0 {
				t.Fatalf("%s page %d: no region", v.Name, i)
			}
			if r := s.Regions()[ri]; r.V != v || i < r.Start || i >= r.End {
				t.Fatalf("%s page %d: found %v", v.Name, i, r)
			}
		}
	}
	if ri := s.Find(other, 0); ri != -1 {
		t.Fatalf("page of an unregistered VMA found region %d", ri)
	}
}
