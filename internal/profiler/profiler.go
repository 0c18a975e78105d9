// Package profiler implements the memory-profiling mechanisms compared in
// the MTM paper: MTM's adaptive profiler (§5), Linux DAMON, Thermostat's
// page-protection sampling, AutoTiering's random address-space sampling,
// and tiered-AutoNUMA's sequential hint-fault scan.
//
// All profilers observe memory through the same PTE primitives
// (vm.ObserveScans / VMA.ScanAndClear), so differences in profiling
// quality emerge from their mechanisms — sample placement, scan counts,
// region formation — exactly as in the paper, not from privileged access
// to ground truth.
package profiler

import (
	"math/rand"
	"time"

	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/tier"
)

// Cost model constants. one_scan_overhead is "measured offline" in the
// paper (§5.3); the absolute value only scales profiling overhead against
// the virtual clock, while every comparison keeps the published ratios:
// a NUMA hint fault costs 12 PTE scans (§6.2) and Thermostat's
// protection-fault counting is several times a plain scan (§9.3).
const (
	// OneScanOverhead is the cost of scanning (read + conditionally
	// clear) a single PTE without a TLB flush.
	OneScanOverhead = 600 * time.Nanosecond
	// HintFaultCost is one NUMA hint fault, 12x a PTE scan (§6.2).
	HintFaultCost = 12 * OneScanOverhead
	// MTMScanCost folds the amortised hint fault (one per 12 scans,
	// §6.2) into the per-scan cost used by Equation 1.
	MTMScanCost = OneScanOverhead + HintFaultCost/12
	// ProtFaultCost is one write/read protection fault taken by
	// Thermostat-style access counting.
	ProtFaultCost = 4 * OneScanOverhead
	// DefaultRegionBytes is the default region granularity: the span of
	// one last-level page-directory entry, 2 MB (§5.1).
	DefaultRegionBytes = 2 * tier.MB
)

// Profiler is a memory-profiling mechanism. Profile runs at the end of a
// profiling interval: it inspects PTEs (charging its cost to the engine),
// updates its region set, and leaves per-region hotness in Regions().
type Profiler interface {
	Name() string
	// Attach prepares the profiler for the engine's address space. It
	// must be called after the workload allocated its VMAs.
	Attach(e *sim.Engine)
	// IntervalStart runs before the application executes (PEBS arming).
	IntervalStart(e *sim.Engine)
	// Profile runs the interval's PTE scans and updates region hotness.
	Profile(e *sim.Engine)
	// Regions exposes the current region set for the migration policy
	// and for profiling-quality metrics.
	Regions() []*region.Region
}

// RegionNode returns the memory node holding region r, defined as the node
// of its first present page (regions migrate as a unit, so pages of a
// region share a node except transiently). Invalid if nothing is present.
// The present plane finds that page word-wide instead of walking PTEs.
func RegionNode(r *region.Region) tier.NodeID {
	if i := r.V.FirstPresent(r.Start, r.End); i >= 0 {
		return r.V.Node(i)
	}
	return tier.Invalid
}

// RegionPresentBytes returns the bytes of r that have physical frames,
// popcounted from the present plane.
func RegionPresentBytes(r *region.Region) int64 {
	return int64(r.V.PresentCount(r.Start, r.End)) * r.V.PageSize
}

// HotBytes selects regions from hottest WHI down until covering want
// bytes, returning the selected regions. It is the common "label the top
// of the histogram hot" step used by detection-quality metrics.
func HotBytes(regions []*region.Region, want int64) []*region.Region {
	h := region.NewHistogram(regions, 32, region.MaxWHI(regions))
	var out []*region.Region
	var got int64
	for _, r := range h.HottestFirst() {
		if got >= want {
			break
		}
		if r.WHI <= 0 {
			break
		}
		out = append(out, r)
		got += r.Bytes()
	}
	return out
}

// regionTable is the state every profiler shares: the region set it
// maintains and its metrics handles. Embedding it supplies the Set,
// Regions and (no-op) IntervalStart methods.
type regionTable struct {
	set *region.Set
	pm  profMetrics
}

// attach builds the region set with numScans checks per sampled page,
// carves every VMA into regionBytes regions (0 keeps one region per
// VMA), and registers the metrics labeled with the profiler's name.
func (t *regionTable) attach(e *sim.Engine, name string, numScans int, regionBytes int64) {
	t.set = region.NewSet(numScans)
	for _, v := range e.AS.VMAs() {
		b := regionBytes
		if b == 0 {
			b = v.Bytes()
		}
		t.set.InitVMA(v, b)
	}
	t.pm = newProfMetrics(e, name)
}

// Set exposes the region set (formation statistics, tests).
func (t *regionTable) Set() *region.Set { return t.set }

func (t *regionTable) Regions() []*region.Region {
	if t.set == nil {
		return nil
	}
	return t.set.Regions()
}

func (t *regionTable) IntervalStart(*sim.Engine) {}

// charge bills cost of profiling work covering pages to the engine's
// profiling time and to the profiler's metrics.
func (t *regionTable) charge(e *sim.Engine, cost time.Duration, pages int64) {
	e.ChargeProfiling(cost)
	t.pm.scanNs.AddDuration(cost)
	t.pm.pages.Add(pages)
}

// samplePages picks n distinct page indices in [start, end) uniformly at
// random; see samplePagesInto. Allocating convenience wrapper for tests.
func samplePages(rng *rand.Rand, start, end, n int) []int {
	return samplePagesInto(nil, nil, rng, start, end, n)
}

// samplePagesInto picks n distinct page indices in [start, end) uniformly
// at random (with a fallback to stride sampling when n approaches the
// range size), appending to dst. The caller supplies the RNG — the scan
// shards pass their per-shard stream — and the engine scratch, whose seen
// bitset replaces the per-call membership map the rejection loop used to
// allocate. A nil scratch allocates a transient bitset. The draw sequence
// is identical to the historical map-based implementation.
func samplePagesInto(dst []int, sc *sim.Scratch, rng *rand.Rand, start, end, n int) []int {
	span := end - start
	if n >= span {
		for i := 0; i < span; i++ {
			dst = append(dst, start+i)
		}
		return dst
	}
	if n <= 0 {
		return dst
	}
	if n*4 >= span {
		// Dense: stride with a random phase avoids rejection loops.
		stride := span / n
		phase := rng.Intn(stride)
		for i := 0; i < n; i++ {
			dst = append(dst, start+phase+i*stride)
		}
		return dst
	}
	var seen []uint64
	if sc != nil {
		seen = sc.Seen(span)
	} else {
		seen = make([]uint64, (span+63)/64)
	}
	for got := 0; got < n; {
		p := rng.Intn(span)
		if seen[p>>6]&(1<<uint(p&63)) != 0 {
			continue
		}
		seen[p>>6] |= 1 << uint(p&63)
		dst = append(dst, start+p)
		got++
	}
	return dst
}
