// Package policy implements the complete page-management solutions the
// paper evaluates: MTM itself (§6) and the baselines — first-touch NUMA,
// hardware-managed caching (Optane Memory Mode), tiered-AutoNUMA (vanilla
// and patched), AutoTiering, and HeMem. Every solution wires a profiler
// and a migration mechanism into the sim.Solution interface.
package policy

import (
	"mtm/internal/admission"
	"mtm/internal/migrate"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// DefaultMigrateBudget is N, the per-interval migration volume cap
// (200 MB in the paper's evaluation, §6.1).
const DefaultMigrateBudget = 200 * tier.MB

// Placement selects an initial page-placement order.
type Placement int

const (
	// PlaceFastFirst is first-touch NUMA: the fastest tier with space,
	// in the faulting socket's view order.
	PlaceFastFirst Placement = iota
	// PlaceSlowLocalFirst is MTM's default (§9.1): CPU-less (slow)
	// nodes first, preferring local, then fast nodes.
	PlaceSlowLocalFirst
	// PlaceLocalOnly restricts placement to the faulting socket's local
	// nodes, fast first (HeMem's two-tier world view).
	PlaceLocalOnly
	// PlaceSlowOnly places everything on slow (CPU-less) nodes; the
	// hardware-cache baseline backs all pages with PM.
	PlaceSlowOnly
)

// place resolves a Placement to a node with room for one page of v. The
// restricted placements try their preferred nodes in view order first —
// the socket's local nodes, or the slow (CPU-less) ones — and overflow
// onto the whole view rather than OOM. Slow-local-first's fast tail is
// that overflow: every slow node ahead of the fast ones had no room.
func place(e *sim.Engine, v *vm.VMA, socket int, p Placement) tier.NodeID {
	view := e.Sys.Topo.View(socket)
	switch p {
	case PlaceSlowLocalFirst, PlaceSlowOnly, PlaceLocalOnly:
		order := make([]tier.NodeID, 0, len(view))
		for _, n := range view {
			spec := &e.Sys.Topo.Nodes[n]
			keep := spec.Kind != tier.DRAM
			if p == PlaceLocalOnly {
				keep = spec.Socket == socket
			}
			if keep {
				order = append(order, n)
			}
		}
		if n := e.Sys.FirstFit(order, v.PageSize); n != tier.Invalid {
			return n
		}
	}
	return e.Sys.FirstFit(view, v.PageSize)
}

// profiled is the scaffold of every profiler-driven solution: it attaches
// Prof on the first interval, arms it at every interval start, and
// exposes its regions for profiling-quality comparisons (the fidelity
// oracle grades them against ground truth).
type profiled struct {
	Prof profiler.Profiler
}

func (p *profiled) IntervalStart(e *sim.Engine) {
	if e.Intervals == 0 {
		p.Prof.Attach(e)
	}
	p.Prof.IntervalStart(e)
}

func (p *profiled) Regions() []*region.Region { return p.Prof.Regions() }

// regionSocket is the socket whose threads access region r the most,
// approximated by the last-accessor hint of its first present page — the
// §6.2 multi-view arbitration channel (hint faults reveal the accessing
// CPU). Falls back to the engine's home socket for untouched regions.
func regionSocket(e *sim.Engine, r *region.Region) int {
	if i := r.V.FirstPresent(r.Start, r.End); i >= 0 {
		return r.V.LastSocket(i)
	}
	return sim.HomeSocket
}

// rankOf returns node's position in view, or -1.
func rankOf(view []tier.NodeID, node tier.NodeID) int {
	for i, n := range view {
		if n == node {
			return i
		}
	}
	return -1
}

// buildHistogram is the shared WHI histogram constructor (32 buckets).
func buildHistogram(regions []*region.Region) *region.Histogram {
	return region.NewHistogram(regions, 32, region.MaxWHI(regions))
}

// nodeName resolves a node's display name for span attributes.
func nodeName(e *sim.Engine, n tier.NodeID) string {
	if int(n) < 0 || int(n) >= len(e.Sys.Topo.Nodes) {
		return ""
	}
	return e.Sys.Topo.Nodes[n].Name
}

// destUsable gates one planned migration of region r from src to dst on
// tier health: a draining/offline destination or an open src→dst circuit
// breaker vetoes the move, with one skip-provenance event naming the
// evidence ("tier-unavailable", or "breaker-open" with the breaker
// state). Always true when the health subsystem is disabled, so baseline
// runs are untouched.
func destUsable(e *sim.Engine, r *region.Region, src, dst tier.NodeID) bool {
	if e.DestUsable(src, dst) {
		return true
	}
	if !e.Sys.Allocatable(dst) {
		spanDecision(e, "skip", "tier-unavailable", r,
			span.S("dst", nodeName(e, dst)),
			span.S("tier_state", e.TierHealth(dst).String()))
		return false
	}
	state, consec, until, trips := e.BreakerEvidence(src, dst)
	spanDecision(e, "skip", "breaker-open", r,
		span.S("dst", nodeName(e, dst)),
		span.S("breaker", state),
		span.I("consecutive_aborts", consec),
		span.I("open_until_ns", until),
		span.I("breaker_trips", trips))
	return false
}

// reaccessEvidence grades the likelihood that region r's pages stay hot,
// from the profiler's history: sustained hotness across two consecutive
// intervals counts full, freshly observed hotness slightly less, a
// region the profiler did not sample this interval decays to an even
// guess, and a sampled region that went quiet is heavily discounted.
// The grades feed the admission ROI estimate — region reaccess evidence
// is what separates a page worth copying from one that merely spiked.
func reaccessEvidence(r *region.Region) float64 {
	switch {
	case !r.Sampled:
		return 0.5
	case r.HI > 0 && r.PrevHI > 0:
		return 1.0
	case r.HI > 0:
		return 0.75
	default:
		return 0.25
	}
}

// admitMigration gates one planned move of up to bytes of region r from
// src to dst through the engine's admission layer, recording the
// decision provenance with the estimated ROI, the threshold it was held
// against, and the pair's budget balance. The decision carries the
// admitted byte allowance — possibly clipped to the pair's token budget,
// zero when the move was deferred or rejected — the verdict for callers
// that route differently on defer (try another destination) versus
// reject (the region is not worth moving at all), and the rule that
// labels the move's lineage. With admission disabled the full request is
// admitted under no rule and nothing is recorded, keeping baseline runs
// bit-identical to the pre-admission policies.
func admitMigration(e *sim.Engine, r *region.Region, src, dst tier.NodeID, bytes int64) admission.Decision {
	if !e.AdmissionEnabled() || bytes <= 0 {
		return admission.Decision{Verdict: admission.VerdictAdmit, AllowedBytes: bytes}
	}
	dec := e.AdmitMigration(src, dst, bytes, r.V.PageSize, r.WHI, reaccessEvidence(r))
	if e.SpansEnabled() {
		attrs := []span.Attr{
			span.F("roi", dec.ROI),
			span.F("threshold", dec.Threshold),
			span.I("allowed_bytes", dec.AllowedBytes),
			span.I("budget_bytes", dec.BudgetBytes),
			span.S("dst", nodeName(e, dst)),
		}
		if e.AdmissionLearnEnabled() && dec.Floor > 0 {
			attrs = append(attrs, span.F("floor", dec.Floor))
		}
		spanDecision(e, dec.Verdict.String(), dec.Rule, r, attrs...)
	}
	return dec
}

// moveRegion runs one planned move of region r to dst through mech:
// pages [r.Start, end), at most maxPages of them (<= 0: no cap). Every
// copy migration a policy plans goes through here, under an explicit
// lineage context — rule is the policy clause that planned the move, adm
// the admission rule that priced it ("" with admission off, recorded as
// unguarded). The helper owns the promotion/demotion volume accounting
// and the promote/demote decision span, whose payload is attrs (the
// threshold the rule compared, where it has one) plus dst and the bytes
// moved. It returns the bytes moved.
func moveRegion(e *sim.Engine, mech migrate.Mechanism, r *region.Region, end int, dst tier.NodeID, maxPages int, promote bool, rule, adm string, attrs ...span.Attr) int64 {
	e.SetMoveContext(rule, adm)
	rep := mech.Migrate(e, r.V, r.Start, end, dst, maxPages)
	e.ClearMoveContext()
	if rep.Bytes <= 0 {
		return 0
	}
	outcome := "demote"
	if promote {
		outcome = "promote"
		e.NotePromotion(rep.Bytes)
	} else {
		e.NoteDemotion(rep.Bytes)
	}
	if e.SpansEnabled() {
		spanDecision(e, outcome, rule, r, append(attrs, span.S("dst", nodeName(e, dst)), span.I("bytes", rep.Bytes))...)
	}
	return rep.Bytes
}

// demoteVictim evicts up to bytes of victim region r off node src, to the
// first node of lower that has room for them and passes DestUsable, if
// the victim's own admission check admits the move. found reports whether
// such a node existed. A vetoed victim — still too hot to evict, or its
// pair's budget drained — moves nothing, and the caller tries the
// next-coldest one.
func demoteVictim(e *sim.Engine, mech migrate.Mechanism, r *region.Region, src tier.NodeID, lower []tier.NodeID, bytes int64, rule string, attrs ...span.Attr) (moved int64, found bool) {
	for _, dst := range lower {
		if e.Sys.Free(dst) < bytes || !e.DestUsable(src, dst) {
			continue
		}
		dec := admitMigration(e, r, src, dst, bytes)
		if dec.Verdict != admission.VerdictAdmit {
			return 0, true
		}
		return moveRegion(e, mech, r, r.End, dst, int(dec.AllowedBytes/r.V.PageSize), false, rule, dec.Rule, attrs...), true
	}
	return 0, false
}

// carryOver is the promotion budget an interval leaves to the next: what
// it did not spend, never negative, and capped at four intervals' worth
// so a policy with nothing promotable does not hoard.
func carryOver(left, budget int64) int64 {
	if left > 4*budget {
		return 4 * budget
	}
	if left < 0 {
		return 0
	}
	return left
}

// spanDecision emits one migration-decision provenance event. The event
// name is the outcome ("promote", "demote", "skip", "defer", "stop");
// rule names the policy clause that fired, and the base payload carries
// the region's identity and hotness estimate. Callers pass the threshold
// compared and the outcome details (dst, bytes) and call it whether or
// not tracing is on: joining the two lists allocates, so that alone is
// guarded here.
func spanDecision(e *sim.Engine, outcome, rule string, r *region.Region, attrs ...span.Attr) {
	if !e.SpansEnabled() {
		return
	}
	base := []span.Attr{
		span.S("rule", rule),
		span.S("vma", r.V.Name),
		span.I("page_start", int64(r.Start)),
		span.I("page_end", int64(r.End)),
		span.F("whi", r.WHI),
	}
	e.SpanEvent("decision", outcome, append(base, attrs...)...)
}
