package profiler

import (
	"math/rand"
	"time"

	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/vm"
)

// DAMON's parameters (§3): Linux's data-access monitor bounds overhead by
// capping the number of regions, checks one random page per region per
// sampling interval, splits regions at random points, and merges
// neighbours with similar access counts. The values are the Linux
// defaults scaled to a 10 s interval, run under the same 5% budget as the
// other profilers.
const (
	// damonMinRegions is the floor the merge step respects.
	damonMinRegions = 10
	// damonOverheadTarget bounds profiling cost through the derived
	// region cap: the fair comparison of §3 gives DAMON the same scan
	// budget as MTM.
	damonOverheadTarget = 0.05
	// damonChecks is how many sampling checks (access-bit reads) fall in
	// one profiling interval: DAMON's 100 ms aggregation over 5 ms
	// sampling.
	damonChecks = 20
	// damonMergeThreshold is the nr_accesses difference (in checks)
	// below which adjacent regions merge.
	damonMergeThreshold = 2
	// damonWindowFrac is one sampling check's observation window as a
	// fraction of the profiling interval (5 ms of 10 s).
	damonWindowFrac = 0.0005
	// damonAlpha is the EMA weight used when feeding a migration policy;
	// pure DAMON has no EMA, so only the current interval counts.
	damonAlpha = 1.0
)

// DAMON implements the Linux DAMON profiling scheme over the simulator's
// PTE primitives. Its limitations relative to MTM (§3) emerge from the
// mechanism itself: exactly one sampled page per region, random-sized
// splits, and overhead control tied to the region cap rather than to the
// scan budget.
type DAMON struct {
	regionTable

	// maxRegions caps the region count: DAMON splits while fewer than
	// maxRegions/2 regions exist. Attach derives it from the budget.
	maxRegions int
	rng        *rand.Rand // rand.New(e.Rng): the engine's stream, as ObserveScans takes it
}

// NewDAMON creates the baseline.
func NewDAMON() *DAMON { return &DAMON{} }

func (d *DAMON) Name() string { return "damon" }

func (d *DAMON) Attach(e *sim.Engine) {
	// Same overhead budget as MTM's Equation 1, spent DAMON's way: one
	// page per region, damonChecks scans each.
	d.maxRegions = int(float64(e.Interval) * damonOverheadTarget /
		(float64(OneScanOverhead) * float64(damonChecks)))
	if d.maxRegions < damonMinRegions {
		d.maxRegions = damonMinRegions
	}
	// DAMON's initial regions come from the VMA tree: one region per
	// VMA, i.e. as coarse as possible (the paper's Figure 6 point about
	// object B).
	d.attach(e, d.Name(), damonChecks, 0, nil)
	d.rng = rand.New(e.Rng)
}

func (d *DAMON) Profile(e *sim.Engine) {
	merged, split := d.set.Merged, d.set.Split
	regions := d.set.Regions()
	e.SpanBegin("profiling", "damon-profile",
		span.I("regions", int64(len(regions))))

	// One random page per region, damonChecks access-bit checks.
	for _, r := range regions {
		p := r.Start + e.Rng.Intn(r.Pages())
		r.Observe(float64(vm.ObserveScans(r.V, p, damonChecks, damonWindowFrac, d.rng)))
		r.UpdateEMA(damonAlpha)
	}
	n := int64(len(regions) * damonChecks)
	e.SpanEmit("profiling", "access-bit-checks", e.SpanClockNs(),
		int64(time.Duration(n)*OneScanOverhead),
		span.I("checks", n))
	d.charge(e, time.Duration(n)*OneScanOverhead, int64(len(regions)))

	// Merge neighbours whose nr_accesses differ by <= threshold, while
	// respecting the minimum region count.
	if d.set.Len() > damonMinRegions {
		d.set.MergePass(damonMergeThreshold)
	}
	// Split each region into two randomly sized pieces while under half
	// the cap (the kernel's damon_split_regions).
	if d.set.Len() < d.maxRegions/2 {
		d.randomSplit(e)
	}
	e.SpanEnd(
		span.I("merges", d.set.Merged-merged),
		span.I("splits", d.set.Split-split),
		span.I("regions_after", int64(d.set.Len())))
}

// randomSplit reproduces DAMON's split step: every region is split at a
// uniformly random internal point (aligned only to the page size, not to
// hotness structure — the ad-hoc formation §3 criticises).
func (d *DAMON) randomSplit(e *sim.Engine) {
	regions := d.set.Regions()
	var out []*region.Region
	budget := d.maxRegions - d.set.Len()
	for _, r := range regions {
		if budget <= 0 || r.Pages() < 2 {
			out = append(out, r)
			continue
		}
		mid := r.Start + 1 + e.Rng.Intn(r.Pages()-1)
		a := &region.Region{V: r.V, Start: r.Start, End: mid, Quota: 1, HI: r.HI, PrevHI: r.PrevHI, WHI: r.WHI, Sampled: true}
		b := &region.Region{V: r.V, Start: mid, End: r.End, Quota: 1, HI: r.HI, PrevHI: r.PrevHI, WHI: r.WHI, Sampled: true}
		out = append(out, a, b)
		budget--
		d.set.Split++
	}
	d.set.Replace(out)
}
