package region

// Histogram buckets regions by their WHI (EMA of hotness indication) so
// the migration policy can take regions from the hottest buckets first
// (§6.1). The buckets are equal-width over [0, maxWHI]; a WHI past the
// top lands in the hottest bucket. Within a bucket, regions keep the
// order they were given in.
type Histogram struct {
	buckets [][]*Region
	width   float64
}

// NewHistogram builds a histogram of the given regions with nbuckets
// buckets spanning [0, maxWHI].
func NewHistogram(regions []*Region, nbuckets int, maxWHI float64) *Histogram {
	if nbuckets <= 0 {
		nbuckets = 16
	}
	if maxWHI <= 0 {
		maxWHI = 1
	}
	h := &Histogram{
		buckets: make([][]*Region, nbuckets),
		width:   maxWHI / float64(nbuckets),
	}
	for _, r := range regions {
		i := h.bucketOf(r.WHI)
		h.buckets[i] = append(h.buckets[i], r)
	}
	return h
}

// MaxWHI returns the histogram scale for a region list: the largest WHI,
// and at least 1.
func MaxWHI(regions []*Region) float64 {
	m := 1.0
	for _, r := range regions {
		if r.WHI > m {
			m = r.WHI
		}
	}
	return m
}

func (h *Histogram) bucketOf(whi float64) int {
	i := int(whi / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	return i
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Bucket returns the regions in bucket i (0 = coldest).
func (h *Histogram) Bucket(i int) []*Region { return h.buckets[i] }

// HottestFirst returns all regions ordered from the hottest bucket down;
// within a bucket, regions keep insertion (address) order.
func (h *Histogram) HottestFirst() []*Region {
	var out []*Region
	for i := len(h.buckets) - 1; i >= 0; i-- {
		out = append(out, h.buckets[i]...)
	}
	return out
}

// ColdestFirst returns all regions ordered from the coldest bucket up.
func (h *Histogram) ColdestFirst() []*Region {
	var out []*Region
	for i := 0; i < len(h.buckets); i++ {
		out = append(out, h.buckets[i]...)
	}
	return out
}

// TopVariance tracks the K regions with the largest hotness variance seen
// while profiling results stream in (§5.2: K=5, chosen empirically to stay
// lightweight). Freed sample quota is redistributed to these regions.
type TopVariance struct {
	k       int
	regions []*Region
}

// NewTopVariance creates a tracker holding the top k regions.
func NewTopVariance(k int) *TopVariance {
	if k <= 0 {
		k = 5
	}
	return &TopVariance{k: k}
}

// Offer considers region r for the top-K set. A region already in the set
// is never admitted twice: duplicate slots would make the quota
// redistribution (§5.2) hand the same region a multiple share.
func (t *TopVariance) Offer(r *Region) {
	for _, kept := range t.regions {
		if kept == r {
			return
		}
	}
	v := r.Variance()
	if len(t.regions) < t.k {
		t.regions = append(t.regions, r)
		t.up()
		return
	}
	// regions[0] holds the smallest variance of the kept set.
	if t.regions[0].Variance() < v {
		t.regions[0] = r
		t.up()
	}
}

// up restores "min at index 0" with a single pass; k is tiny (5).
func (t *TopVariance) up() {
	mi := 0
	for i, r := range t.regions {
		if r.Variance() < t.regions[mi].Variance() {
			mi = i
		}
		_ = r
	}
	t.regions[0], t.regions[mi] = t.regions[mi], t.regions[0]
}

// Regions returns the tracked regions (unordered).
func (t *TopVariance) Regions() []*Region { return t.regions }

// Reset clears the tracker for a new interval.
func (t *TopVariance) Reset() { t.regions = t.regions[:0] }
