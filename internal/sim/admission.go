// Engine-side admission-control wiring: the internal/admission layer
// attached to the simulation. Disabled by default — an engine without
// EnableAdmission runs exactly the pre-admission code (every check site
// goes through nil-safe methods that admit unconditionally).
//
// Determinism contract: admission decisions, budget debits, and
// cool-down stamps read only the virtual clock, and the controller never
// draws randomness. Each page's cool-down stamp lives in its VMA's side
// state (vm.VMA.Stamp), read when the page is about to move.
package sim

import (
	"math"

	"mtm/internal/admission"
	"mtm/internal/metrics"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// Bytes of profiling traffic charged per sampled batch of accesses when
// lanes make the budgets bind: roughly one PTE/PEBS record read per
// profSampleDiv application accesses. Coarse by design — the point is
// that profiling competes for the same pair bandwidth, not a cycle-
// accurate model of the profiler's cache behaviour.
const (
	profSampleDiv   = 200
	profSampleBytes = 16
)

// admissionState bundles the controller behind one nil check, plus the
// adaptive-layer state (online MinROI learning, binding budgets, priority
// lanes).
type admissionState struct {
	ctl   *admission.Controller
	learn bool // online per-pair MinROI floors, fed by the lineage ledger
	lanes bool // traffic-class lanes + binding budgets

	// profDst is where profiling traffic lands (the home socket's
	// fastest node, where the kernel's scan structures live).
	profDst tier.NodeID

	// minroi exposes each pair's learned floor as a gauge; nil without
	// metrics or without learning.
	minroi [][]*metrics.Gauge
}

// EnableAdmission attaches the migration admission-control subsystem
// (idempotent); learn and lanes switch on online MinROI learning and
// traffic-class lanes (see admission.NewController). Must be called after
// Interval is set: the thrash cool-down lasts two profiling intervals,
// and bucket burst capacities are sized in interval multiples. Each tier
// pair's refill rate is BudgetFrac of the pair's rated link bandwidth
// (the slower end of src and dst as seen from the home socket).
func (e *Engine) EnableAdmission(learn, lanes bool) {
	if e.adm != nil {
		return
	}
	nodes := e.Sys.Topo.Nodes
	ctl := admission.NewController(len(nodes), learn, lanes)
	ctl.SetInterval(int64(e.Interval))
	links := e.Sys.Topo.Links[HomeSocket]
	for s := range nodes {
		for d := range nodes {
			if s == d {
				continue
			}
			bw := links[s].Bandwidth
			if links[d].Bandwidth < bw {
				bw = links[d].Bandwidth
			}
			rate := int64(admission.BudgetFrac * float64(bw))
			burst := int64(float64(rate) * admission.BurstIntervals * e.Interval.Seconds())
			ctl.SetRate(s, d, rate, burst)
		}
	}
	a := &admissionState{
		ctl:     ctl,
		learn:   learn,
		lanes:   lanes,
		profDst: e.Sys.Topo.View(HomeSocket)[0],
	}
	if a.learn {
		// The learner's verdicts come from the lineage ledger.
		e.enableLineage()
		if reg := e.Metrics(); reg != nil {
			a.minroi = make([][]*metrics.Gauge, len(nodes))
			for s := range nodes {
				a.minroi[s] = make([]*metrics.Gauge, len(nodes))
				for d := range nodes {
					if s == d {
						continue
					}
					a.minroi[s][d] = reg.Gauge("mtm_admission_minroi",
						"effective promotion ROI floor per tier pair (online-learned)",
						metrics.L("src", nodes[s].Name), metrics.L("dst", nodes[d].Name))
				}
			}
		}
	}
	e.adm = a
}

// AdmissionEnabled reports whether the admission subsystem is attached.
func (e *Engine) AdmissionEnabled() bool { return e.adm != nil }

// moveDirection classifies a src→dst move against the home socket's
// tier order: toward a faster tier is a promotion, anything else
// (slower or lateral) a demotion.
func (e *Engine) moveDirection(src, dst tier.NodeID) admission.Direction {
	if e.Sys.Topo.Rank(HomeSocket, dst) < e.Sys.Topo.Rank(HomeSocket, src) {
		return admission.DirPromote
	}
	return admission.DirDemote
}

// latencyGap is the per-access latency difference between src and dst:
// rated link latencies, home socket.
func (e *Engine) latencyGap(src, dst tier.NodeID) float64 {
	lat := e.latCache[HomeSocket]
	return math.Abs(float64(lat[src] - lat[dst]))
}

// MigrationROI estimates the return on investment of moving one page
// of the given size from src to dst: the per-access latency gap times
// the expected accesses over the retention horizon, divided by the
// pair's copy cost. whi is the profiler's weighted hotness on whatever
// scale the active policy uses; reaccess the evidence-graded likelihood
// the page stays hot.
func (e *Engine) MigrationROI(src, dst tier.NodeID, pageSize int64, whi, reaccess float64) float64 {
	if e.adm == nil || int(src) < 0 || int(dst) < 0 {
		return 0
	}
	copyNs := float64(e.Sys.CopyTime(HomeSocket, src, dst, pageSize))
	return admission.ROI(whi, reaccess, e.latencyGap(src, dst), copyNs)
}

// AdmitMigration prices one planned move of up to bytes from src to
// dst and decides admit/defer/reject, recording the outcome in the
// engine counters, metrics, and event ring. Without the subsystem (or
// for unattributable pairs) it admits unconditionally, keeping
// admission-free runs bit-identical to the pre-admission engine.
func (e *Engine) AdmitMigration(src, dst tier.NodeID, bytes, pageSize int64, whi, reaccess float64) admission.Decision {
	if e.adm == nil || int(src) < 0 || int(dst) < 0 || src == dst {
		return admission.Decision{
			Verdict:      admission.VerdictAdmit,
			Rule:         admission.RuleAdmitted,
			AllowedBytes: bytes,
		}
	}
	dir := e.moveDirection(src, dst)
	roi := e.MigrationROI(src, dst, pageSize, whi, reaccess)
	dec := e.adm.ctl.Admit(int(src), int(dst), dir, roi, bytes, pageSize, e.SpanClockNs())
	switch dec.Verdict {
	case admission.VerdictAdmit:
		e.AdmissionAdmits++
	case admission.VerdictDefer:
		e.AdmissionDefers++
		e.emitPairEventOnce(EventAdmissionDefer, src, dst, bytes)
	case admission.VerdictReject:
		e.AdmissionRejects++
		e.emitPairEventOnce(EventAdmissionReject, src, dst, bytes)
	}
	return dec
}

// AdmitFlip prices one planned zero-copy shadow-flip demotion. Flips
// bypass the copy-cost-denominated gates — the victim-ROI bound, token
// budgets, and waste shedding all price a copy that a flip never pays,
// so holding a flip to them rejects exactly the moves that are free —
// but the decision still carries flip-cost ROI evidence and the rule
// RuleShadowFlip for span provenance. The per-page thrash cool-down is
// NOT bypassed; FlipDemote enforces it separately. flipNs is the
// metadata cost of the flip (see migrate.FlipCost).
func (e *Engine) AdmitFlip(src, dst tier.NodeID, bytes int64, whi, reaccess, flipNs float64) admission.Decision {
	dec := admission.Decision{
		Verdict:      admission.VerdictAdmit,
		Rule:         admission.RuleShadowFlip,
		AllowedBytes: bytes,
	}
	if e.adm == nil || int(src) < 0 || int(dst) < 0 || src == dst {
		return dec
	}
	dec.ROI = admission.ROI(whi, reaccess, e.latencyGap(src, dst), flipNs)
	dec.BudgetBytes = e.adm.ctl.Tokens(int(src), int(dst), e.SpanClockNs())
	e.AdmissionAdmits++
	return dec
}

// PageMoveAllowed consults the thrash detector for one page about to
// move to dst: a page still inside the cool-down window of a committed
// move may not reverse direction. Suppressed pages are counted but not
// individually traced (a thrash storm would flood the ring; the
// per-pair event below is deduplicated per interval). Always true
// without the subsystem.
func (e *Engine) PageMoveAllowed(v *vm.VMA, idx int, dst tier.NodeID) bool {
	if e.adm == nil {
		return true
	}
	src := v.Node(idx)
	if int(src) < 0 || int(dst) < 0 || src == dst {
		return true
	}
	if e.adm.ctl.PageAllowed(admission.Cooldown(v.Stamp(idx)), e.moveDirection(src, dst), e.SpanClockNs()) {
		return true
	}
	e.ThrashSuppressed++
	e.emitPairEventOnce(EventThrashSuppressed, src, dst, int64(idx))
	return false
}

// admissionMoveCommitted debits a committed copy from its pair's bucket
// and stamps the page's cool-down (hysteresis against an immediate
// reversal). A flip copied nothing, so it is stamped but not debited.
// Called from commitMove.
func (e *Engine) admissionMoveCommitted(v *vm.VMA, idx int, src, dst tier.NodeID, flip bool) {
	if e.adm == nil || int(src) < 0 || int(dst) < 0 || src == dst {
		return
	}
	now := e.SpanClockNs()
	if !flip {
		e.adm.ctl.Commit(int(src), int(dst), v.PageSize, now)
	}
	v.SetStamp(idx, int64(e.adm.ctl.NotePageMove(e.moveDirection(src, dst), now)))
}

// admissionMoveAborted charges an aborted move's wasted bytes to its
// pair at the waste-penalty multiple: the load-shedding feedback loop.
// Called from abortMove.
func (e *Engine) admissionMoveAborted(pageSize int64, src, dst tier.NodeID) {
	if e.adm == nil || int(src) < 0 || int(dst) < 0 || src == dst {
		return
	}
	e.adm.ctl.Waste(int(src), int(dst), pageSize, e.SpanClockNs())
}

// admissionBreakerTrip zeroes a pair's budget when its health circuit
// breaker trips: the pair must re-earn its bandwidth from nothing once
// the breaker half-opens. Called from recordMoveAbort on a trip.
func (e *Engine) admissionBreakerTrip(src, dst tier.NodeID) {
	if e.adm == nil || int(src) < 0 || int(dst) < 0 {
		return
	}
	e.adm.ctl.ZeroBudget(int(src), int(dst), e.SpanClockNs())
}

// AdmissionLearnEnabled reports whether online MinROI learning is on.
func (e *Engine) AdmissionLearnEnabled() bool { return e.adm != nil && e.adm.learn }

// AdmissionMinROI reports the pair's effective promotion floor: the
// learned floor when learning is on, the static MinROI otherwise, 0
// when admission is disabled. Exposed for tests and tooling.
func (e *Engine) AdmissionMinROI(src, dst tier.NodeID) float64 {
	if e.adm == nil {
		return 0
	}
	return e.adm.ctl.MinROIFor(int(src), int(dst))
}

// LaneStats is the per-traffic-class admission breakdown exported in
// Result when priority lanes are enabled.
type LaneStats struct {
	Normal    admission.ClassCounts
	Drain     admission.ClassCounts
	Emergency admission.ClassCounts
	// Starvations counts starvation-watchdog firings: a critical class
	// waited more than admission.WatchdogIntervals consecutive intervals
	// with requests but no admits.
	Starvations int64
}

// AdmissionLaneStats assembles the per-class Result breakdown; nil
// unless lanes are enabled, so lane-free Result JSON is unchanged.
func (e *Engine) AdmissionLaneStats() *LaneStats {
	if e.adm == nil || !e.adm.lanes {
		return nil
	}
	ctl := e.adm.ctl
	return &LaneStats{
		Normal:      ctl.ClassStats(admission.ClassNormal).ClassCounts,
		Drain:       ctl.ClassStats(admission.ClassDrain).ClassCounts,
		Emergency:   ctl.ClassStats(admission.ClassEmergency).ClassCounts,
		Starvations: ctl.Starvations(),
	}
}

// admitLaneMove prices one engine-initiated page move on its class's
// lane. Drain moves skip the ROI gates and waste shedding (evacuating a
// dying tier is not optional) but draw on the pair's tokens plus the
// reserved slice, so a saturated pair paces the drain instead of
// stopping it. Emergency moves are never refused — the alternative is an
// OOM — so for them this is bookkeeping: the class counters and the
// starvation watchdog see the request, and the commit debits the bytes
// like any other move. Always true unless lanes are enabled; without
// lanes, engine-initiated moves bypass admission entirely.
func (e *Engine) admitLaneMove(cl admission.Class, src, dst tier.NodeID, pageSize int64) bool {
	if e.adm == nil || !e.adm.lanes || int(src) < 0 || int(dst) < 0 || src == dst {
		return true
	}
	dec := e.adm.ctl.AdmitClass(cl, int(src), int(dst),
		e.moveDirection(src, dst), 0, pageSize, pageSize, e.SpanClockNs())
	return dec.Verdict == admission.VerdictAdmit
}

// admissionChargeBackground charges background copy traffic (shadow
// sync) against the pair's token bucket when lanes make the budgets
// bind. No-op otherwise, keeping lane-free runs bit-identical.
func (e *Engine) admissionChargeBackground(src, dst tier.NodeID, bytes int64) {
	if e.adm == nil || !e.adm.lanes || int(src) < 0 || int(dst) < 0 || src == dst {
		return
	}
	e.adm.ctl.Charge(int(src), int(dst), bytes, e.SpanClockNs())
}

// admissionResetWaste clears a pair's waste ledger; called when the
// pair's circuit breaker transitions open→half-open so one pre-trip bad
// interval cannot immediately re-shed the recovering pair (the ledger
// froze during the open period — no moves, no decay). The budget is
// zeroed along with it: the clean ledger must not combine with tokens
// banked during the outage into a burst of unproven copies — the
// recovering pair re-earns its bandwidth from nothing, one refill
// interval at a time.
func (e *Engine) admissionResetWaste(src, dst tier.NodeID) {
	if e.adm == nil || int(src) < 0 || int(dst) < 0 {
		return
	}
	now := e.SpanClockNs()
	e.adm.ctl.ResetWasteWindow(int(src), int(dst), now)
	e.adm.ctl.ZeroBudget(int(src), int(dst), now)
}

// admissionEndInterval is the adaptive layer's once-per-interval work,
// run after the lineage ledger has fed this interval's promotion verdicts
// to the learner (lineageResolve):
//
//  1. Charge profiling traffic against the pair budgets (lanes mode).
//  2. Run the controller's EndInterval: demand-scaled refill, bounded
//     floor adaptation, starvation watchdog.
//  3. Surface watchdog firings as typed events/metrics/spans and
//     refresh the per-pair learned-floor gauges.
//
// Skipped entirely when neither learning nor lanes is on: a plain
// -admission run executes byte-identically to the static layer.
func (e *Engine) admissionEndInterval() {
	a := e.adm
	if a == nil || (!a.learn && !a.lanes) {
		return
	}
	now := e.SpanClockNs()
	if a.lanes {
		// Profiling traffic: the profiler's scan/sample reads flow from
		// every accessed node toward the home socket's fastest tier.
		for d, n := range e.intAccesses {
			if tier.NodeID(d) == a.profDst || n <= 0 {
				continue
			}
			if bytes := n / profSampleDiv * profSampleBytes; bytes > 0 {
				a.ctl.Charge(d, int(a.profDst), bytes, now)
			}
		}
	}
	for _, s := range a.ctl.EndInterval(now) {
		e.Metrics().Emit(EventLaneStarvation, s.Class.String(), int64(s.Waited))
		e.SpanEvent("admission", "lane-starvation",
			span.S("class", s.Class.String()),
			span.I("waited_intervals", int64(s.Waited)))
	}
	if a.minroi != nil {
		for s := range a.minroi {
			for d := range a.minroi[s] {
				if g := a.minroi[s][d]; g != nil {
					g.Set(a.ctl.MinROIFor(s, d))
				}
			}
		}
	}
}
