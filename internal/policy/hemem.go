package policy

import (
	"time"

	"mtm/internal/admission"
	"mtm/internal/migrate"
	"mtm/internal/pebs"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
)

// HeMem is the SOSP '21 two-tier baseline (§2.1, §9.6): profiling relies
// on PEBS samples alone (no PTE scans), hot pages move to local DRAM and
// cold pages to local PM. Its two structural limits are modelled exactly
// as the paper describes: sampling randomness misses hot pages that PTE
// scans would confirm (§5.5), and the policy knows only two tiers — it
// ignores remote nodes, so on a four-tier machine it leaves remote memory
// unmanaged.
type HeMem struct {
	budget
	placement

	set  *region.Set
	buf  *pebs.Buffer
	mech migrate.Mechanism
	// nodes lists every node for arming PEBS; counts holds the
	// interval's PEBS samples per region, aligned with set.Regions().
	nodes  []tier.NodeID
	counts []int
}

// hememHotSamples is the per-interval PEBS sample count above which a
// region is considered hot.
const hememHotSamples = 2

// NewHeMem returns the baseline, promoting up to n bytes an interval.
func NewHeMem(n int64) *HeMem {
	return &HeMem{
		budget:    budget{MigrateBudget: n},
		placement: PlaceLocalOnly,
		mech:      migrate.Nimble{},
	}
}

func (p *HeMem) Name() string { return "HeMem" }

func (p *HeMem) IntervalStart(e *sim.Engine) {
	if e.Intervals == 0 {
		p.set = region.NewSet(region.DefaultNumScans)
		for _, v := range e.AS.VMAs() {
			p.set.InitVMA(v, 2*tier.MB)
		}
		p.buf = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 1<<16)
		// HeMem samples continuously (no activation window) on both of
		// its tiers.
		p.buf.WindowFrac = 1.0
		e.PEBS = p.buf
		p.nodes = make([]tier.NodeID, len(e.Sys.Topo.Nodes))
		for i := range p.nodes {
			p.nodes[i] = tier.NodeID(i)
		}
		p.counts = make([]int, p.set.Len())
	}
	p.buf.Arm(p.nodes...)
}

// Regions exposes the region set for profiling-quality comparisons.
func (p *HeMem) Regions() []*region.Region {
	if p.set == nil {
		return nil
	}
	return p.set.Regions()
}

func (p *HeMem) IntervalEnd(e *sim.Engine) {
	p.buf.Disarm()
	samples := p.buf.Samples()
	clear(p.counts)
	for _, s := range samples {
		if i := p.set.Find(s.VMA, s.Page); i >= 0 {
			p.counts[i]++
		}
	}
	// Sample handling cost (HeMem's profiling is cheap; that is its
	// selling point and its weakness).
	handling := time.Duration(len(samples)) * 200 * time.Nanosecond
	e.SpanEmit("profiling", "pebs-sampling", e.SpanClockNs(), int64(handling),
		span.I("samples", int64(len(samples))))
	e.ChargeProfiling(handling)

	// Exponential cooling, as in HeMem's hotset maintenance.
	regions := p.set.Regions()
	for i, r := range regions {
		r.Observe(float64(p.counts[i]))
		r.UpdateEMA(0.5)
	}

	budget := p.allowance()
	e.SpanBegin("policy", "plan",
		span.S("policy", p.Name()),
		span.I("regions", int64(len(regions))),
		span.I("budget", budget))
	defer e.SpanEnd()
	defer func() { p.settle(budget) }()
	// Promote regions with enough samples to local DRAM.
	view := e.Sys.Topo.View(sim.HomeSocket)
	var dram, pm tier.NodeID = tier.Invalid, tier.Invalid
	for _, n := range view {
		local := e.Sys.Topo.Nodes[n].Socket == sim.HomeSocket
		if !local {
			continue // two-tier world view: remote nodes do not exist
		}
		if e.Sys.Topo.Nodes[n].Kind == tier.DRAM && dram == tier.Invalid {
			dram = n
		}
		if e.Sys.Topo.Nodes[n].Kind != tier.DRAM && pm == tier.Invalid {
			pm = n
		}
	}
	if dram == tier.Invalid || pm == tier.Invalid {
		return
	}
	hist := region.NewHistogram(regions)
	for _, r := range hist.HottestFirst() {
		if budget <= 0 {
			spanDecision(e, "stop", "budget-exhausted", r,
				span.I("budget", p.allowance()))
			break
		}
		if r.WHI < hememHotSamples {
			spanDecision(e, "stop", "cold-cutoff", r,
				span.F("threshold", hememHotSamples))
			break
		}
		if profiler.RegionNode(r) != pm {
			continue
		}
		if !destUsable(e, r, pm, dram) {
			// Two-tier world view: with DRAM unusable there is nowhere
			// else to promote to.
			break
		}
		dec := admitMigration(e, r, pm, dram, r.Bytes())
		if dec.Verdict == admission.VerdictReject {
			// Not worth the copy; colder regions follow, so move on.
			continue
		}
		if dec.Verdict == admission.VerdictDefer {
			// Two-tier world view: the PM→DRAM pair is the only one, so
			// budget pressure ends promotion for this interval.
			break
		}
		bytes := dec.AllowedBytes
		if e.Sys.Free(dram) < bytes {
			p.demoteCold(e, hist, dram, pm, bytes-e.Sys.Free(dram))
		}
		if e.Sys.Free(dram) < bytes {
			break
		}
		budget -= moveRegion(e, p.mech, r, r.End, dram, int(bytes/r.V.PageSize),
			true, "hot-samples", dec.Rule, span.F("threshold", hememHotSamples))
	}
}

// demoteCold moves the coldest DRAM-resident regions to PM, stopping once
// PM cannot take the next victim whole.
func (p *HeMem) demoteCold(e *sim.Engine, hist *region.Histogram, dram, pm tier.NodeID, need int64) {
	lower := []tier.NodeID{pm}
	var freed int64
	for _, r := range hist.ColdestFirst() {
		if freed >= need {
			return
		}
		if profiler.RegionNode(r) != dram {
			continue
		}
		moved, found := demoteVictim(e, p.mech, r, dram, lower, r.Bytes(), "coldest-first")
		if !found {
			return
		}
		freed += moved
	}
}
