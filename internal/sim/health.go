// Engine-side tier-health wiring: page poisoning (HWPOISON analogue),
// the per-tier health state machine, migration circuit breakers, and the
// incremental background drain of sick tiers. Disabled by default — an
// engine without EnableHealth runs exactly the pre-health code.
//
// Determinism contract: every health decision is a pure function of
// engine accounting state and the fault plane's own random stream. The
// subsystem never draws from the engine's Rng, walks pages strictly in
// (VMA, page) order, and stamps all breaker cool-downs with the virtual
// clock.
package sim

import (
	"fmt"

	"mtm/internal/admission"
	"mtm/internal/health"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// healthState bundles the tracker and the breakers' cool-down behind one
// nil check. Each pair's breaker lives in its pairInfo.
type healthState struct {
	tracker    *health.Tracker
	coolDownNs int64
}

// EnableHealth attaches the tier-health subsystem (idempotent). Must be
// called after Interval is set: a tripped breaker stays open for twice
// the profiling interval.
func (e *Engine) EnableHealth() {
	if e.hlt != nil {
		return
	}
	e.hlt = &healthState{
		tracker:    health.NewTracker(len(e.Sys.Topo.Nodes)),
		coolDownNs: int64(2 * e.Interval),
	}
}

// TierHealth returns the health state of node n (StateOnline when the
// subsystem is disabled).
func (e *Engine) TierHealth(n tier.NodeID) health.State {
	if e.hlt == nil {
		return health.StateOnline
	}
	return e.hlt.tracker.State(int(n))
}

// TierStates returns the final health state name per node, or nil when
// the subsystem is disabled (keeping health-free Result JSON unchanged).
func (e *Engine) TierStates() []string {
	if e.hlt == nil {
		return nil
	}
	out := make([]string, len(e.Sys.Topo.Nodes))
	for i := range out {
		out[i] = e.hlt.tracker.State(i).String()
	}
	return out
}

// DestUsable reports whether a migration src→dst should be planned right
// now: dst must be allocatable (not draining/offline) and the src→dst
// circuit breaker must not be open. Policies consult it before planning
// a move; without the health subsystem it is always true, keeping
// baseline runs bit-identical to the pre-health engine.
func (e *Engine) DestUsable(src, dst tier.NodeID) bool {
	if e.hlt == nil {
		return true
	}
	if !e.Sys.Allocatable(dst) {
		return false
	}
	p := e.pair(src, dst)
	if p == nil {
		return true
	}
	ok, reopened := p.brk.Allow(e.SpanClockNs())
	if reopened {
		// The pair just re-entered service (open → half-open): clear its
		// frozen waste ledger so the pre-trip aborts cannot immediately
		// re-shed the recovering pair.
		e.admissionResetWaste(src, dst)
	}
	return ok
}

// BreakerEvidence returns the read-only breaker state of the (src, dst)
// pair for provenance: state name, consecutive aborts, the virtual ns
// until which it is open, and its lifetime trip count.
func (e *Engine) BreakerEvidence(src, dst tier.NodeID) (state string, consec int64, openUntilNs int64, trips int64) {
	p := e.pair(src, dst)
	if e.hlt == nil || p == nil {
		return health.BreakerClosed.String(), 0, 0, 0
	}
	b := &p.brk
	return b.State.String(), int64(b.Consec), b.OpenUntil, b.Trips
}

// recordMoveSuccess feeds a committed move into the pair's breaker.
func (e *Engine) recordMoveSuccess(p *pairInfo) {
	if e.hlt != nil {
		p.brk.RecordSuccess()
	}
}

// recordMoveAbort feeds an aborted move into the pair's breaker and, on
// a trip, records the provenance (metrics event + span event with the
// evidence). A pair trips at most once per cool-down by construction:
// an open breaker absorbs further aborts without re-tripping.
func (e *Engine) recordMoveAbort(p *pairInfo) {
	if e.hlt == nil {
		return
	}
	if !p.brk.RecordAbort(e.SpanClockNs(), e.hlt.coolDownNs) {
		return
	}
	e.BreakerTrips++
	e.admissionBreakerTrip(p)
	e.Metrics().Emit(EventBreakerTrip, p.name, p.brk.Trips)
	e.SpanEvent("health", "breaker-trip",
		span.S("src", e.Sys.Topo.Nodes[p.src].Name),
		span.S("dst", e.Sys.Topo.Nodes[p.dst].Name),
		span.I("consecutive_aborts", health.TripAborts),
		span.I("open_until_ns", p.brk.OpenUntil),
		span.I("trips", p.brk.Trips))
}

// healthBeginInterval delivers this interval's memory-error faults and
// advances the per-tier state machine. Runs at the end of beginInterval,
// after the fault plane redrew its storm windows and after the span
// tracer opened the interval root (health events parent under it).
func (e *Engine) healthBeginInterval() {
	if e.hlt == nil {
		return
	}
	if mp, ok := e.faults.(interface{ MemErrorPages(tier.NodeID) int }); ok {
		for i := range e.Sys.Topo.Nodes {
			n := tier.NodeID(i)
			if k := mp.MemErrorPages(n); k > 0 {
				// The dying device backs shadow frames too: drop every
				// shadow on it so a dead copy is never flipped to.
				e.shadowDropNode(n)
				e.poisonNode(n, k)
			}
		}
	}
	now := e.SpanClockNs()
	trs := e.hlt.tracker.BeginInterval(e.Intervals, func(dst int) bool {
		for src := range e.Sys.Topo.Nodes {
			if p := e.pair(tier.NodeID(src), tier.NodeID(dst)); p != nil && p.brk.OpenAt(now) {
				return true
			}
		}
		return false
	})
	e.applyTransitions(trs)
}

// poisonNode poisons up to k resident pages of node n, in (VMA, page)
// order — the deterministic stand-in for "whichever frames the dying
// DIMM happens to back". A burst larger than the node's residency
// poisons what is there and wastes the rest.
func (e *Engine) poisonNode(n tier.NodeID, k int) {
	pages := e.residentOn(n)
	if len(pages) > k {
		pages = pages[:k]
	}
	for _, p := range pages {
		e.poisonPage(p.v, p.idx)
	}
	if len(pages) > 0 {
		e.applyTransitions(e.hlt.tracker.Poison(int(n), len(pages), e.Intervals))
	}
}

// poisonPage quarantines one resident page: the mapping is torn down,
// the frame's bytes move to the tier's quarantined ledger (capacity is
// lost, not freed), and the next app access takes a recovery fault.
func (e *Engine) poisonPage(v *vm.VMA, idx int) {
	n := v.Node(idx)
	e.dropShadow(v, idx) // Poison forgets the shadow; free its frame first
	v.Poison(idx)
	e.Sys.Quarantine(n, v.PageSize)
	e.poisonedBytes += v.PageSize
	e.PoisonedPages++
	e.emitEventOnce(EventMemPoison, e.Sys.Topo.Nodes[n].Name, int64(idx))
	e.SpanEvent("health", "poison",
		span.S("node", e.Sys.Topo.Nodes[n].Name),
		span.S("vma", v.Name),
		span.I("page", int64(idx)))
}

// PoisonPage injects one memory error by hand (tests and operator
// tooling): page idx of v must be resident and health enabled. Reports
// whether the poison was applied.
func (e *Engine) PoisonPage(v *vm.VMA, idx int) bool {
	if e.hlt == nil || !v.Present(idx) {
		return false
	}
	n := v.Node(idx)
	e.poisonPage(v, idx)
	e.applyTransitions(e.hlt.tracker.Poison(int(n), 1, e.Intervals))
	return true
}

// poisonRecovery handles an app access to a poisoned page (called from
// handleFault before placement): charge the machine-check + SIGBUS
// round trip and acknowledge the error so the page refaults normally.
func (e *Engine) poisonRecovery(v *vm.VMA, idx int) {
	v.ClearPoison(idx)
	e.intApp += health.RecoveryPenalty
	e.PoisonRecoveries++
	e.SpanEvent("health", "poison-recovery",
		span.S("vma", v.Name),
		span.I("page", int64(idx)))
}

// applyTransitions applies state-machine outputs to the capacity layer
// and records one provenance event per transition.
func (e *Engine) applyTransitions(trs []health.Transition) {
	for _, tr := range trs {
		n := tier.NodeID(tr.Node)
		switch tr.To {
		case health.StateDraining, health.StateOffline:
			e.Sys.SetAllocatable(n, false)
			// A sick tier's shadow copies are unusable (a flip would
			// re-place pages on it); drop them so their capacity drains
			// with the live pages.
			e.shadowDropNode(n)
		case health.StateOnline:
			e.Sys.SetAllocatable(n, true)
		}
		e.transitions++
		if e.met != nil {
			e.met.tierState[n].Set(float64(tr.To))
			e.met.reg.Emit(EventHealthTransition,
				e.Sys.Topo.Nodes[n].Name+" "+tr.From.String()+"->"+tr.To.String(), int64(tr.To))
		}
		e.SpanEvent("health", "transition",
			span.S("node", e.Sys.Topo.Nodes[n].Name),
			span.S("from", tr.From.String()),
			span.S("to", tr.To.String()),
			span.S("reason", tr.Reason),
			span.I("poisoned_pages", int64(e.hlt.tracker.PoisonedPages(tr.Node))))
	}
}

// DrainTier forces node n into Draining (operator-initiated offlining);
// the background drain then evacuates it over the following intervals.
// No-op unless health is enabled.
func (e *Engine) DrainTier(n tier.NodeID) {
	if e.hlt == nil {
		return
	}
	e.applyTransitions(e.hlt.tracker.ForceDraining(int(n), e.Intervals))
}

// DrainStallErr returns the most recent drain stall (a wrapped
// health.ErrNoDestination), or nil if drains have always found room.
func (e *Engine) DrainStallErr() error { return e.drainStallErr }

// healthEndInterval runs the incremental background drain for every
// draining tier. Runs at the top of endInterval so the evacuation's
// background copy time is folded into this interval's totals and its
// span events land before the interval closes.
func (e *Engine) healthEndInterval() {
	if e.hlt == nil {
		return
	}
	for _, n := range e.hlt.tracker.Draining() {
		e.drainNode(tier.NodeID(n))
	}
}

// drainNode evacuates up to DrainPagesPerInterval resident pages off
// node, each as one CopyPage transaction, into the best usable
// destination (next-slower tiers first, cascading past full ones, then
// faster tiers as a last resort). When live pages remain but no
// destination has room, the drain stalls: pages stay in place, the stall
// is recorded, and the next interval retries. When the node is empty of
// live pages it goes Offline.
func (e *Engine) drainNode(node tier.NodeID) {
	pages := e.residentOn(node)
	if len(pages) == 0 {
		e.applyTransitions(e.hlt.tracker.DrainedEmpty(int(node), e.Intervals))
		return
	}

	attempted, committed := 0, 0
	stalled := false
	e.SetMoveContext("health-drain", "")
	defer e.ClearMoveContext()
	for _, p := range pages {
		if attempted >= health.DrainPagesPerInterval {
			break
		}
		dst := e.drainDest(node, p.v.PageSize)
		if dst == tier.Invalid {
			stalled = true
			break
		}
		if !e.admitLaneMove(admission.ClassDrain, node, dst, p.v.PageSize) {
			// Drain-lane budget exhausted (tokens plus the reserved
			// slice): pace the evacuation rather than stall it — the
			// remaining pages retry next interval once the pair refills.
			// Not a stall: a stall means no destination has room.
			break
		}
		mv, ok := e.CopyPage(p.v, p.idx, dst)
		if !ok {
			stalled = true
			break
		}
		attempted++
		// The evacuation runs on helper threads: busy attempts, backoff
		// and the copy itself are background time, committed or not.
		e.ChargeBackground(mv.Waste + e.Sys.CopyTime(HomeSocket, node, dst, p.v.PageSize))
		if !mv.Committed {
			continue
		}
		// Drained volume is kept apart from promotion and demotion
		// volume: the auditor's ledger is committed = promoted + demoted
		// + drained.
		e.DrainedBytes += p.v.PageSize
		committed++
	}
	if stalled {
		e.DrainStalls++
		e.drainStallErr = fmt.Errorf("%w (draining %s, %d pages resident)",
			health.ErrNoDestination, e.Sys.Topo.Nodes[node].Name, len(pages)-committed)
		e.emitEventOnce(EventDrainStall, e.Sys.Topo.Nodes[node].Name, int64(len(pages)-committed))
		e.SpanEvent("health", "drain-stall",
			span.S("node", e.Sys.Topo.Nodes[node].Name),
			span.I("resident_pages", int64(len(pages)-committed)))
		return
	}
	if committed == len(pages) {
		e.applyTransitions(e.hlt.tracker.DrainedEmpty(int(node), e.Intervals))
	}
}

// drainDest picks the evacuation target for one page leaving node: the
// next-slower tiers first (cascading past full or sick ones to tier
// N+2 and beyond), then faster tiers as a last resort. A destination
// must be allocatable, have room, and not sit behind an open breaker.
func (e *Engine) drainDest(node tier.NodeID, size int64) tier.NodeID {
	view := e.Sys.Topo.View(HomeSocket)
	rank := e.Sys.Topo.Rank(HomeSocket, node)
	try := func(cand tier.NodeID) bool {
		return e.Sys.Free(cand) >= size && e.DestUsable(node, cand)
	}
	for i := rank + 1; i < len(view); i++ {
		if try(view[i]) {
			return view[i]
		}
	}
	for i := rank - 1; i >= 0; i-- {
		if try(view[i]) {
			return view[i]
		}
	}
	return tier.Invalid
}
