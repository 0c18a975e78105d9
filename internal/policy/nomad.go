package policy

import (
	"mtm/internal/migrate"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
)

// Nomad is the non-exclusive tiering solution (Nomad, OSDI'22 — the
// paper's §2 "transactional page migration" comparison point) rebuilt on
// MTM's profiler and promotion strategy. Promoted pages keep their
// slow-tier frame as a shadow copy instead of releasing it; a write to
// the fast copy invalidates the shadow, and a budgeted background sync
// re-copies dirty pages into their shadow frames off the critical path.
// When the fast tier fills, any victim whose shadow is still valid
// demotes by flipping the page-table entry back to the retained frame —
// zero copy bytes on the critical path — and only invalidated victims
// fall back to MTM's transactional copy demotion.
type Nomad struct {
	MTM
}

// NewNomad assembles Nomad: MTM over profiler p, with MTM's adaptive copy
// mechanism and a promotion budget of n, plus shadow retention.
func NewNomad(p profiler.Profiler, n int64) *Nomad {
	m := NewMTMVariant("Nomad", p, migrate.NewAdaptive(), n)
	m.flipFirst = true
	return &Nomad{*m}
}

func (p *Nomad) IntervalStart(e *sim.Engine) {
	if e.Intervals == 0 {
		e.EnableShadow()
	}
	p.MTM.IntervalStart(e)
}

func (p *Nomad) IntervalEnd(e *sim.Engine) {
	p.Prof.Profile(e)
	// Background shadow sync runs before planning: pages that went quiet
	// regain flippable shadows ahead of any demotion demand. Whatever the
	// quiet pass leaves of the budget funds targeted write-backs of chosen
	// victims inside makeRoom (flipVictim) this interval.
	//
	// The sync budget, bounding the interval's background re-copy volume
	// (dirty-page write-back into retained slow-tier frames), is twice
	// the migration budget: the copies run off the critical path, so it
	// prices slow-tier bandwidth interference, not application stall.
	syncBudget := 2 * p.MigrateBudget
	synced := e.ShadowSync(syncBudget)
	if synced > 0 {
		e.SpanEvent("shadow", "sync", span.I("bytes", synced))
	}
	p.syncLeft = syncBudget - synced
	if p.syncLeft < 0 {
		p.syncLeft = 0
	}
	p.promote(e)
}

// flipVictim demotes up to remaining bytes of victim region r by
// shadow-flip: pages whose retained slow-tier frame is still valid are
// remapped onto it with no copy. The flip is priced through the
// admission layer's flip rule (provenance + ROI evidence; flips bypass
// the copy-cost gates) and executed by migrate.FlipSpan, which leaves
// invalidated or cooling-down pages for the caller's copy path. Returns
// the bytes freed on r's current node.
func (p *MTM) flipVictim(e *sim.Engine, r *region.Region, node tier.NodeID, remaining int64) int64 {
	if remaining < r.V.PageSize {
		return 0
	}
	if p.syncLeft >= r.V.PageSize {
		// Targeted write-back: the victim is leaving the fast tier either
		// way, so diverged shadows in the range are re-copied now (off the
		// critical path) to turn the demotion below into a free flip.
		cap := remaining
		if cap > p.syncLeft {
			cap = p.syncLeft
		}
		p.syncLeft -= e.ShadowSyncRange(r.V, r.Start, r.End, cap)
	}
	dst := e.ShadowDemoteDest(r.V, r.Start, r.End)
	if dst == tier.Invalid {
		return 0
	}
	if !destUsable(e, r, node, dst) {
		return 0
	}
	maxPages := int(remaining / r.V.PageSize)
	bytes := int64(min(maxPages, r.Pages())) * r.V.PageSize
	flipNs := float64(migrate.FlipCost(r.V.PageSize))
	dec := e.AdmitFlip(node, dst, bytes, r.WHI, reaccessEvidence(r), flipNs)
	spanDecision(e, dec.Verdict.String(), dec.Rule, r,
		span.F("roi", dec.ROI),
		span.I("allowed_bytes", dec.AllowedBytes),
		span.I("budget_bytes", dec.BudgetBytes),
		span.S("dst", nodeName(e, dst)))
	e.SetMoveContext("shadow-flip", dec.Rule)
	rep := migrate.FlipSpan(e, r.V, r.Start, r.End, maxPages)
	e.ClearMoveContext()
	if rep.Bytes > 0 {
		// FlipDemote already closed the demotion ledger per page; this
		// event is provenance only.
		spanDecision(e, "demote", "shadow-flip", r,
			span.S("dst", nodeName(e, dst)),
			span.I("pages", int64(rep.MovedPages)),
			span.I("bytes", rep.Bytes))
	}
	return rep.Bytes
}
