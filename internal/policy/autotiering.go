package policy

import (
	"slices"

	"mtm/internal/admission"
	"mtm/internal/migrate"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
)

// AutoTiering is the ATC '21 baseline (§2.1, §9.1): random 256 MB
// profiling windows, flexible promotion directly across tiers (unlike
// AutoNUMA's tier-by-tier steps), but no hotness-ranked strategy — any
// recently-accessed sampled region is a candidate — and *opportunistic
// demotion*: when the destination is full, a random resident region is
// pushed down regardless of its hotness, which is where it loses to MTM's
// histogram-guided slow demotion.
type AutoTiering struct {
	profiled
	budget
	placement
	mech migrate.Mechanism
}

// NewAutoTiering returns the baseline, promoting up to n bytes an
// interval.
func NewAutoTiering(n int64) *AutoTiering {
	return &AutoTiering{
		profiled:  profiled{profiler.NewRandomChunk()},
		budget:    budget{MigrateBudget: n},
		placement: PlaceFastFirst,
		mech:      migrate.MovePages{},
	}
}

func (p *AutoTiering) Name() string { return "AutoTiering" }

func (p *AutoTiering) IntervalEnd(e *sim.Engine) {
	p.Prof.Profile(e)
	regions := p.Prof.Regions()
	budget := p.allowance()
	e.SpanBegin("policy", "plan",
		span.S("policy", p.Name()),
		span.I("regions", int64(len(regions))),
		span.I("budget", budget))
	defer e.SpanEnd()
	defer func() { p.settle(budget) }()

	for _, r := range regions {
		if budget <= 0 {
			spanDecision(e, "stop", "budget-exhausted", r,
				span.I("budget", p.allowance()))
			return
		}
		// Candidate = sampled this interval and accessed at all.
		if !r.Sampled || r.HI <= 0 {
			continue
		}
		node := profiler.RegionNode(r)
		if node == tier.Invalid {
			continue
		}
		socket := regionSocket(e, r)
		view := e.Sys.Topo.View(socket)
		rank := slices.Index(view, node)
		if rank <= 0 {
			continue
		}
		pages := r.Pages()
		if max := int(budget / r.V.PageSize); pages > max {
			pages = max
		}
		if pages == 0 {
			return
		}
		need := int64(pages) * r.V.PageSize
		// Flexible cross-tier promotion: straight to the fastest tier
		// that has (or can opportunistically be given) space.
		for dr := 0; dr < rank; dr++ {
			dst := view[dr]
			if !destUsable(e, r, node, dst) {
				continue
			}
			dec := admitMigration(e, r, node, dst, need)
			if dec.Verdict == admission.VerdictReject {
				// Slower destinations only lower the ROI; give up on the
				// region for this interval.
				break
			}
			if dec.Verdict == admission.VerdictDefer {
				// Budget pressure on this pair; the next-fastest tier is
				// a different pair and may still have budget.
				continue
			}
			allowed := dec.AllowedBytes
			if e.Sys.Free(dst) < allowed {
				p.opportunisticDemote(e, regions, dst, allowed-e.Sys.Free(dst), view)
			}
			if e.Sys.Free(dst) < allowed {
				continue
			}
			budget -= moveRegion(e, p.mech, r, r.Start+int(allowed/r.V.PageSize), dst, 0,
				true, "sampled-recent", dec.Rule, span.F("threshold", 0))
			break
		}
	}
}

// opportunisticDemote evicts randomly chosen resident regions from dst to
// any lower tier with room — not hotness-guided, per the paper's
// characterisation.
func (p *AutoTiering) opportunisticDemote(e *sim.Engine, regions []*region.Region, dst tier.NodeID, need int64, view []tier.NodeID) {
	dstRank := slices.Index(view, dst)
	if dstRank < 0 || dstRank+1 >= len(view) {
		return
	}
	var freed int64
	// Random starting point, linear probe: cheap and exactly as
	// unguided as the mechanism being modelled.
	if len(regions) == 0 {
		return
	}
	start := e.Rng.Intn(len(regions))
	for i := 0; i < len(regions) && freed < need; i++ {
		r := regions[(start+i)%len(regions)]
		if profiler.RegionNode(r) != dst {
			continue
		}
		// Even opportunistic demotion respects the victim-heat and budget
		// gates; a vetoed region is skipped for the next one.
		moved, _ := demoteVictim(e, p.mech, r, dst, view[dstRank+1:], r.Bytes(), "opportunistic")
		freed += moved
	}
}
