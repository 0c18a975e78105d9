package profiler

import (
	"math/rand"
	"time"

	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/vm"
)

// DAMONConfig configures the DAMON baseline (§3): Linux's data-access
// monitor, which bounds overhead by capping the number of regions, checks
// one random page per region per sampling interval, splits regions at
// random points, and merges neighbours with similar access counts.
type DAMONConfig struct {
	// MinRegions and MaxRegions bound the region count; DAMON splits
	// while fewer than MaxRegions/2 regions exist and merges to stay
	// above MinRegions. MaxRegions = 0 derives the cap from
	// OverheadTarget at Attach time so DAMON runs under the same scan
	// budget as the other profilers — the fair comparison of §3.
	MinRegions, MaxRegions int
	// OverheadTarget bounds profiling cost when MaxRegions is derived.
	OverheadTarget float64
	// ChecksPerInterval is how many sampling checks (access-bit reads)
	// fall in one profiling interval: aggregation/sampling ratio, 20 for
	// DAMON's 100 ms aggregation over 5 ms sampling.
	ChecksPerInterval int
	// MergeThreshold is the nr_accesses difference (in checks) below
	// which adjacent regions merge.
	MergeThreshold int
	// WindowFrac is one sampling check's observation window as a
	// fraction of the profiling interval (5 ms of 10 s by default).
	WindowFrac float64
	// Alpha is the EMA weight used when feeding a migration policy; pure
	// DAMON has no EMA, so 1.0 (current interval only) is the default.
	Alpha float64
}

// DefaultDAMONConfig mirrors the Linux defaults scaled to a 10 s interval.
func DefaultDAMONConfig() DAMONConfig {
	return DAMONConfig{
		MinRegions:        10,
		MaxRegions:        0, // derived from OverheadTarget
		OverheadTarget:    0.05,
		ChecksPerInterval: 20,
		MergeThreshold:    2,
		WindowFrac:        0.0005,
		Alpha:             1.0,
	}
}

// DAMON implements the Linux DAMON profiling scheme over the simulator's
// PTE primitives. Its limitations relative to MTM (§3) emerge from the
// mechanism itself: exactly one sampled page per region, random-sized
// splits, and overhead control tied to the region cap rather than to the
// scan budget.
type DAMON struct {
	Cfg DAMONConfig

	set   *region.Set
	scans int64
	pm    profMetrics
	rng   *rand.Rand // rand.New(e.Rng): the engine's stream, as ObserveScans takes it
}

// NewDAMON creates the baseline with the given config.
func NewDAMON(cfg DAMONConfig) *DAMON {
	if cfg.ChecksPerInterval <= 0 {
		cfg = DefaultDAMONConfig()
	}
	return &DAMON{Cfg: cfg}
}

func (d *DAMON) Name() string { return "damon" }

// Set exposes the region set for statistics.
func (d *DAMON) Set() *region.Set { return d.set }

// Scans returns the cumulative PTE checks performed.
func (d *DAMON) Scans() int64 { return d.scans }

func (d *DAMON) Attach(e *sim.Engine) {
	if d.Cfg.MaxRegions <= 0 {
		// Same overhead budget as MTM's Equation 1, spent DAMON's way:
		// one page per region, ChecksPerInterval scans each.
		target := d.Cfg.OverheadTarget
		if target <= 0 {
			target = 0.05
		}
		d.Cfg.MaxRegions = int(float64(e.Interval) * target /
			(float64(OneScanOverhead) * float64(d.Cfg.ChecksPerInterval)))
		if d.Cfg.MaxRegions < d.Cfg.MinRegions {
			d.Cfg.MaxRegions = d.Cfg.MinRegions
		}
	}
	d.set = region.NewSet(d.Cfg.ChecksPerInterval)
	d.rng = rand.New(e.Rng)
	// DAMON's initial regions come from the VMA tree: one region per
	// VMA, i.e. as coarse as possible (the paper's Figure 6 point about
	// object B).
	for _, v := range e.AS.VMAs() {
		d.set.InitVMA(v, v.Bytes())
	}
	d.pm = newProfMetrics(e, d.Name())
}

func (d *DAMON) IntervalStart(*sim.Engine) {}

func (d *DAMON) Regions() []*region.Region {
	if d.set == nil {
		return nil
	}
	return d.set.Regions()
}

func (d *DAMON) Profile(e *sim.Engine) {
	d.set.BeginInterval()
	regions := d.set.Regions()
	spanning := e.SpansEnabled()
	if spanning {
		e.SpanBegin("profiling", "damon-profile",
			span.I("regions", int64(len(regions))))
	}

	// One random page per region, ChecksPerInterval access-bit checks.
	for _, r := range regions {
		p := r.Start + e.Rng.Intn(r.Pages())
		obs := vm.ObserveScans(r.V, p, d.Cfg.ChecksPerInterval, d.Cfg.WindowFrac, d.rng)
		r.Samples = append(r.Samples[:0], p)
		r.Observed = append(r.Observed[:0], obs)
		r.PrevHI = r.HI
		r.HI = float64(obs)
		r.Sampled = true
		r.UpdateEMA(d.Cfg.Alpha)
	}
	n := int64(len(regions) * d.Cfg.ChecksPerInterval)
	d.scans += n
	if spanning {
		e.SpanEmit("profiling", "access-bit-checks", e.SpanClockNs(),
			int64(time.Duration(n)*OneScanOverhead),
			span.I("checks", n))
	}
	e.ChargeProfiling(time.Duration(n) * OneScanOverhead)
	d.pm.scanNs.AddDuration(time.Duration(n) * OneScanOverhead)
	d.pm.pages.Add(int64(len(regions)))

	// Merge neighbours whose nr_accesses differ by <= threshold, while
	// respecting the minimum region count.
	if d.set.Len() > d.Cfg.MinRegions {
		d.set.MergePass(float64(d.Cfg.MergeThreshold))
	}
	// Split each region into two randomly sized pieces while under half
	// the cap (the kernel's damon_split_regions).
	if d.set.Len() < d.Cfg.MaxRegions/2 {
		d.randomSplit(e)
	}
	d.pm.merges.Add(d.set.MergedThisInterval)
	d.pm.splits.Add(d.set.SplitThisInterval)
	if spanning {
		e.SpanEnd(
			span.I("merges", d.set.MergedThisInterval),
			span.I("splits", d.set.SplitThisInterval),
			span.I("regions_after", int64(d.set.Len())))
	}
}

// randomSplit reproduces DAMON's split step: every region is split at a
// uniformly random internal point (aligned only to the page size, not to
// hotness structure — the ad-hoc formation §3 criticises).
func (d *DAMON) randomSplit(e *sim.Engine) {
	regions := d.set.Regions()
	var out []*region.Region
	budget := d.Cfg.MaxRegions - d.set.Len()
	for _, r := range regions {
		if budget <= 0 || r.Pages() < 2 {
			out = append(out, r)
			continue
		}
		mid := r.Start + 1 + e.Rng.Intn(r.Pages()-1)
		a := d.set.NewRegion(region.Region{V: r.V, Start: r.Start, End: mid, Quota: 1, HI: r.HI, PrevHI: r.PrevHI, WHI: r.WHI, Sampled: true})
		b := d.set.NewRegion(region.Region{V: r.V, Start: mid, End: r.End, Quota: 1, HI: r.HI, PrevHI: r.PrevHI, WHI: r.WHI, Sampled: true})
		out = append(out, a, b)
		budget--
		d.set.Split++
		d.set.SplitThisInterval++
	}
	d.set.Replace(out)
}
