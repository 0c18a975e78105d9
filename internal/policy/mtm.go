package policy

import (
	"math/bits"

	"mtm/internal/admission"
	"mtm/internal/migrate"
	"mtm/internal/profiler"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// MTM is the complete MTM solution (§6): any Profiler feeding a global
// WHI histogram, the "fast promotion and slow demotion" strategy, and the
// adaptive migration mechanism. The profiler is pluggable so the §9.3
// ablations (Thermostat or tiered-AutoNUMA profiling + MTM migration) run
// through the same policy code.
type MTM struct {
	profiled
	Mech migrate.Mechanism
	// MigrateBudget is N, the per-interval promotion volume (§6.1).
	// Demotion volume per interval is capped at 2N so a full fast tier
	// cannot thrash; the paper's slow-demotion policy only demotes to
	// make room.
	MigrateBudget int64
	// Initial is the first-touch placement order (slow-local-first by
	// default, §9.1).
	Initial Placement

	label string
	// carry accumulates unused promotion budget so a budget smaller than
	// one huge page still yields the configured average migration rate.
	carry int64
	// flipFirst makes makeRoom try zero-copy shadow-flip demotion before
	// pricing a copy for each victim (non-exclusive tiering; set by Nomad).
	flipFirst bool
	// syncLeft is the interval's remaining targeted shadow write-back
	// allowance (replenished by Nomad.IntervalEnd from its 2N sync budget).
	syncLeft int64
}

// NewMTM assembles the paper's default MTM: adaptive profiler, adaptive
// migration mechanism, 200 MB budget.
//
// Initial placement defaults to first-touch rather than the paper's
// slow-local-first (§9.1): Table 4 shows the two converge under MTM once
// migration has cycled the fast tiers, and at simulation scale runs are
// short enough that starting cold would understate every MTM result.
// Table 4's experiment sets Initial = PlaceSlowLocalFirst explicitly.
func NewMTM() *MTM {
	return &MTM{
		profiled:      profiled{profiler.NewMTM(profiler.DefaultMTMConfig())},
		Mech:          migrate.NewAdaptive(),
		MigrateBudget: DefaultMigrateBudget,
		Initial:       PlaceFastFirst,
		label:         "MTM",
	}
}

// NewMTMVariant assembles an MTM with a custom label, profiler and
// mechanism (ablation studies).
func NewMTMVariant(label string, p profiler.Profiler, m migrate.Mechanism) *MTM {
	v := NewMTM()
	v.Prof = p
	v.Mech = m
	v.label = label
	return v
}

func (p *MTM) Name() string { return p.label }

func (p *MTM) Place(e *sim.Engine, v *vm.VMA, idx int, socket int) tier.NodeID {
	return place(e, v, socket, p.Initial)
}

func (p *MTM) IntervalEnd(e *sim.Engine) {
	p.Prof.Profile(e)
	p.promote(e)
}

// promote plans the interval over the profiled regions: it walks their
// WHI histogram hottest-first and moves regions directly to the fastest
// tier of their dominant socket's view ("fast promotion"), demoting the
// coldest residents one tier down when space is needed ("slow
// demotion"). Migration volume is capped at MigrateBudget per interval;
// unused budget carries over so rates hold at any granularity.
func (p *MTM) promote(e *sim.Engine) {
	regions := p.Prof.Regions()
	if len(regions) == 0 {
		return
	}
	hist := buildHistogram(regions)
	cold := hist.ColdestFirst() // makeRoom's victims, in the order it tries them
	budget := p.MigrateBudget + p.carry
	e.SpanBegin("policy", "plan",
		span.S("policy", p.label),
		span.I("regions", int64(len(regions))),
		span.I("budget", budget))
	defer e.SpanEnd()
	spent := int64(0)
	demoteBudget := 2 * p.MigrateBudget
	for _, r := range hist.HottestFirst() {
		if budget-spent < r.V.PageSize {
			spanDecision(e, "stop", "budget-exhausted", r,
				span.I("budget", budget), span.I("spent", spent))
			break
		}
		if r.WHI <= 0 {
			// Everything hotter is placed; the rest is cold.
			spanDecision(e, "stop", "cold-cutoff", r, span.F("threshold", 0))
			break
		}
		socket := regionSocket(e, r)
		view := e.Sys.Topo.View(socket)
		// worstRank is the slowest placement of any page in the region;
		// partially promoted regions keep their remainder eligible. The
		// present plane narrows the walk to mapped pages word-wide.
		worstRank := 0
		for w := r.Start / vm.WordPages; w*vm.WordPages < r.End; w++ {
			word := r.V.PresentRangeWord(w, r.Start, r.End)
			for word != 0 {
				i := w*vm.WordPages + bits.TrailingZeros64(word)
				word &= word - 1
				if rk := rankOf(view, r.V.Node(i)); rk > worstRank {
					worstRank = rk
				}
			}
		}
		if worstRank <= 0 {
			// Already in the fastest tier for its accessors.
			spanDecision(e, "skip", "already-fastest", r)
			continue
		}
		maxPages := int((budget - spent) / r.V.PageSize)
		// Fast promotion: straight to the top tier, then 2nd-fastest,
		// etc., with room made by slow demotion on the way.
		for dstRank := 0; dstRank < worstRank; dstRank++ {
			dst := view[dstRank]
			if !destUsable(e, r, profiler.RegionNode(r), dst) {
				// Draining/offline tier or open circuit breaker: route
				// around it and consider the next-fastest tier.
				continue
			}
			if e.PromotionPressure(dst) {
				// Admission control (TierBPF-style shedding): the tier
				// signals transient allocation pressure, so promoting into
				// it now would burn budget on doomed moves. Defer; the
				// region stays eligible and the unused budget carries into
				// the next interval.
				e.NoteDeferredPromotionTo(dst)
				spanDecision(e, "defer", "admission-control", r,
					span.S("dst", nodeName(e, dst)))
				continue
			}
			dec := admitMigration(e, r, profiler.RegionNode(r), dst, int64(minInt(maxPages, r.Pages()))*r.V.PageSize)
			if dec.Verdict == admission.VerdictReject {
				// Not worth the copy at this hotness: every slower
				// destination only lowers the ROI, so the region is done.
				break
			}
			if dec.Verdict == admission.VerdictDefer {
				// This pair's budget is under pressure; a slower tier is a
				// different pair and may still have budget.
				continue
			}
			need := dec.AllowedBytes
			if e.Sys.Free(dst) < need {
				demoted := p.makeRoom(e, cold, dst, need-e.Sys.Free(dst), view, demoteBudget, r.WHI)
				demoteBudget -= demoted
			}
			if e.Sys.Free(dst) < r.V.PageSize {
				// Slow demotion could not make room; try the next-fastest
				// tier.
				spanDecision(e, "skip", "no-room", r,
					span.S("dst", nodeName(e, dst)))
				continue
			}
			moved := moveRegion(e, p.Mech, r, r.End, dst, minInt(maxPages, int(need/r.V.PageSize)),
				true, "fast-promotion", dec.Rule, span.F("threshold", 0))
			if moved > 0 {
				spent += moved
				break
			}
			// Every page-move into dst aborted (flaky tier, contended
			// pages). Re-plan onto the next-fastest tier instead of giving
			// up on the region: the aborted attempts are already accounted
			// per-pair, and a success on the re-planned pair must not be
			// double-attributed to this one.
			spanDecision(e, "skip", "all-aborted", r,
				span.S("dst", nodeName(e, dst)))
		}
	}
	p.carry = carryOver(budget-spent, p.MigrateBudget)
}

// makeRoom demotes the coldest regions resident on node to the next lower
// tier with space, until need bytes are freed or the demotion budget runs
// out. cold is the plan's regions, coldest first. Victims must be strictly
// colder than the promotion candidate (candidateWHI): slow demotion never
// evicts pages likelier to be accessed than what replaces them (§6.2). It
// returns the bytes demoted.
func (p *MTM) makeRoom(e *sim.Engine, cold []*region.Region, node tier.NodeID, need int64, view []tier.NodeID, budget int64, candidateWHI float64) int64 {
	if budget <= 0 {
		return 0
	}
	nodeRank := rankOf(view, node)
	var demoted int64
	if p.flipFirst {
		// Non-exclusive tiering: a full flip pass runs before any copy is
		// priced. Among eligible victims, one backed by retained shadow
		// frames demotes for the cost of a remap — so free demotions are
		// taken from the whole cold set first, and the copy pass below
		// only covers whatever need the shadow supply could not.
		for _, r := range cold {
			if demoted >= need || demoted >= budget {
				break
			}
			if r.WHI >= candidateWHI {
				break
			}
			// A region with no shadow frame has nothing to flip:
			// flipVictim would sync no stale shadow and find no valid
			// one, since both are shadows (shadowValid ⊆ shadowAll).
			if !r.V.ShadowedIn(r.Start, r.End) || profiler.RegionNode(r) != node {
				continue
			}
			remaining := need - demoted
			if b := budget - demoted; b < remaining {
				remaining = b
			}
			demoted += p.flipVictim(e, r, node, remaining)
		}
	}
	for _, r := range cold {
		if demoted >= need || demoted >= budget {
			break
		}
		if r.WHI >= candidateWHI {
			// Only hotter-or-equal regions remain on this node; slow
			// demotion never evicts them for a colder candidate.
			spanDecision(e, "stop", "victim-too-hot", r,
				span.F("threshold", candidateWHI))
			break
		}
		if profiler.RegionNode(r) != node {
			continue
		}
		// Demote no more than the remaining need/budget allows, even
		// from a large region, and only to a lower tier with room.
		remaining := need - demoted
		if b := budget - demoted; b < remaining {
			remaining = b
		}
		maxPages := int((remaining + r.V.PageSize - 1) / r.V.PageSize)
		moved, _ := demoteVictim(e, p.Mech, r, node, view[nodeRank+1:], int64(minInt(maxPages, r.Pages()))*r.V.PageSize,
			"slow-demotion", span.F("threshold", candidateWHI))
		demoted += moved
	}
	return demoted
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
