package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"mtm/internal/admission"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// FaultPlane is the engine's hook for deterministic fault injection (see
// internal/fault). All methods must be cheap and side-effect-free from the
// engine's point of view; any randomness must come from the plane's own
// source so that an attached-but-inactive plane leaves runs bit-identical
// to an engine with no plane at all.
type FaultPlane interface {
	// Attach sizes per-node state; called once by SetFaultPlane.
	Attach(sockets, nodes int)
	// BeginInterval redraws storm windows at each interval boundary.
	BeginInterval(interval int)
	// PageBusy reports whether one attempt to copy page idx of v to dst
	// fails with a transient EBUSY, and the wasted time of the attempt.
	PageBusy(v *vm.VMA, idx int, dst tier.NodeID) (bool, time.Duration)
	// DestPressure reports whether node n signals transient allocation
	// pressure this interval.
	DestPressure(n tier.NodeID) bool
	// SampleDropFrac is the fraction of PEBS samples lost this interval.
	SampleDropFrac() float64
	// LinkBWFactor is the bandwidth-degradation divisor (>= 1) of the
	// socket→node link this interval.
	LinkBWFactor(socket int, n tier.NodeID) float64
}

// SetFaultPlane attaches a fault plane to the engine (nil detaches). Planes
// that model co-tenant capacity loss implement an optional
// CapacityTax() float64 method; the reported fraction of every node's
// capacity is reserved up front, so workloads sized for the full machine
// hit genuine exhaustion (ErrOutOfMemory) instead of always fitting.
func (e *Engine) SetFaultPlane(fp FaultPlane) {
	e.faults = fp
	if fp == nil {
		return
	}
	fp.Attach(e.Sys.Topo.Sockets, len(e.Sys.Topo.Nodes))
	if t, ok := fp.(interface{ CapacityTax() float64 }); ok {
		if frac := t.CapacityTax(); frac > 0 {
			e.taxBytes = make([]int64, len(e.Sys.Topo.Nodes))
			for i := range e.Sys.Topo.Nodes {
				n := tier.NodeID(i)
				tax := int64(frac * float64(e.Sys.Capacity(n)))
				if e.Sys.Reserve(n, tax) {
					// Recorded so the residency auditor can subtract the
					// co-tenant share from the used ledger.
					e.taxBytes[i] = tax
				}
			}
		}
	}
}

// LinkBandwidth returns the effective bandwidth of the socket→node link,
// reduced while the fault plane degrades it.
func (e *Engine) LinkBandwidth(socket int, n tier.NodeID) int64 {
	bw := e.Sys.Topo.Links[socket][n].Bandwidth
	if e.faults != nil {
		if f := e.faults.LinkBWFactor(socket, n); f > 1 {
			bw = int64(float64(bw) / f)
			if bw < 1 {
				bw = 1
			}
		}
	}
	return bw
}

// admissionContention is the contention factor above which a destination
// tier counts as saturated for promotion admission control.
const admissionContention = 4.0

// PromotionPressure reports whether promotions into dst should be deferred
// this interval: the fault plane signals transient capacity pressure, or
// the node's observed bandwidth contention shows heavy oversubscription.
// Without a fault plane it always reports false, which keeps baseline runs
// bit-identical to the pre-fault-injection engine.
func (e *Engine) PromotionPressure(dst tier.NodeID) bool {
	if e.faults == nil {
		return false
	}
	return e.faults.DestPressure(dst) || e.contention[dst] >= admissionContention
}

// NoteDeferredPromotionTo records one promotion deferred by admission
// control with its pressured destination, so the event log can attribute
// the deferral to a tier.
func (e *Engine) NoteDeferredPromotionTo(dst tier.NodeID) {
	e.DeferredPromotions++
	e.emitEventOnce(EventPromotionDeferred, e.Sys.Topo.Nodes[dst].Name, 0)
	e.SpanEvent("policy", "promotion-deferred",
		span.S("dst", e.Sys.Topo.Nodes[dst].Name))
}

// copyAttempts is how many times one page copy is tried before the move
// aborts, like the kernel's migrate_pages(), which retries a busy page a
// handful of times before giving up with EBUSY.
const copyAttempts = 5

// copyBackoff is the virtual-time backoff after the n-th failed copy
// attempt (n >= 1): 5 µs doubled per retry, so 5, 10, 20 and 40 µs
// across a page's four retries. It is charged in virtual time, so
// retries stay deterministic: no wall-clock sleeping and no jitter.
func copyBackoff(n int) time.Duration {
	return 5 * time.Microsecond << (n - 1)
}

// PageMove is the outcome of one CopyPage transaction.
type PageMove struct {
	Src       tier.NodeID   // the page's node when the move began
	Committed bool          // false: every copy attempt was busy and the move aborted
	Retries   int64         // copy attempts retried after a busy one
	Backoff   time.Duration // virtual time waited between attempts
	Waste     time.Duration // busy-attempt penalties plus Backoff
}

// CopyPage moves page idx of v to dst as one transaction (copy-then-
// commit, the Nomad transactional migration shape). Room for the page is
// reserved on dst while it stays mapped on its source, the copy is tried
// up to copyAttempts times under the fault plane with copyBackoff between
// busy attempts, and the move then commits or aborts with the reservation
// rolled back. Either way the copy streamed the page, so the transfer is
// recorded on both nodes, and the outcome is attributed to the (Src, dst)
// pair the move began on. It reports false, changing nothing, when dst
// has no room.
//
// CopyPage charges no time: the caller prices the copy and mv.Waste on
// its own path (the critical path for the mechanisms, background for the
// health drain).
func (e *Engine) CopyPage(v *vm.VMA, idx int, dst tier.NodeID) (mv PageMove, ok bool) {
	if !e.reserveMove(v, dst) {
		return PageMove{}, false
	}
	mv.Src = v.Node(idx)
	for attempt := 1; ; attempt++ {
		busy, penalty := false, time.Duration(0)
		if e.faults != nil {
			busy, penalty = e.faults.PageBusy(v, idx, dst)
		}
		if !busy {
			mv.Committed = true
			break
		}
		mv.Waste += penalty
		if attempt == copyAttempts {
			break
		}
		backoff := copyBackoff(attempt)
		mv.Retries++
		mv.Backoff += backoff
		mv.Waste += backoff
		e.MigrationRetries++
		if e.met != nil {
			pairCounter(e.met.retriedPages, mv.Src, dst).Inc()
			pairCounter(e.met.backoffNs, mv.Src, dst).AddDuration(backoff)
		}
	}
	if mv.Committed {
		e.commitMove(v, idx, mv.Src, dst, false)
	} else {
		e.abortMove(v, idx, mv.Src, dst)
	}
	e.Sys.RecordTransfer(mv.Src, v.PageSize)
	e.Sys.RecordTransfer(dst, v.PageSize)
	return mv, true
}

// reserveMove reserves room for one page of v on dst, reclaiming the
// oldest shadow frames there if it does not fit (shadows are soft
// capacity). It reports false, leaving all state unchanged, when dst has
// no room.
func (e *Engine) reserveMove(v *vm.VMA, dst tier.NodeID) bool {
	if e.Sys.Reserve(dst, v.PageSize) {
		return true
	}
	return e.shadowMakeRoom(dst, v.PageSize) && e.Sys.Reserve(dst, v.PageSize)
}

// commitMove completes a reserved move of page idx of v from src: the
// source frame is released (or retained as a shadow) and the page
// rebinds to dst. Every committed move lands here: in the engine's
// committed-move ledger (checked by Audit), as a success on the pair's
// migration circuit breaker, in the admission cool-down and in the
// lineage ledger. A flip (FlipDemote) has already consumed the shadow and
// released src itself, and copied nothing, so the pair's budget is not
// debited.
func (e *Engine) commitMove(v *vm.VMA, idx int, src, dst tier.NodeID, flip bool) {
	if !flip && !e.shadowMoveCommitted(v, idx, src, dst) && src != vm.NoNode && src != dst {
		e.Sys.Release(src, v.PageSize)
	}
	v.Place(idx, dst)
	e.committedPages++
	e.committedBytes += v.PageSize
	e.recordMoveSuccess(src, dst)
	e.admissionMoveCommitted(v, idx, src, dst, flip)
	e.lineageMoveCommitted(v, idx, src, dst, flip)
	if e.met != nil {
		pairCounter(e.met.movedPages, src, dst).Inc()
	}
}

// abortMove rolls back a reserved move of page idx of v from src: the dst
// reservation is released, the page keeps its source frame, and the
// abort plus its thrown-away copy bytes are recorded against the (src,
// dst) pair. The abort also feeds the pair's circuit breaker.
func (e *Engine) abortMove(v *vm.VMA, idx int, src, dst tier.NodeID) {
	e.Sys.Release(dst, v.PageSize)
	e.MigrationAborts++
	e.WastedBytes += v.PageSize
	if e.met != nil {
		pairCounter(e.met.abortedPages, src, dst).Inc()
	}
	e.emitPairEventOnce(EventMigrationAbort, src, dst, int64(idx))
	srcName := ""
	if int(src) >= 0 && int(src) < len(e.Sys.Topo.Nodes) {
		srcName = e.Sys.Topo.Nodes[src].Name
	}
	e.SpanEvent("migration", "abort",
		span.S("src", srcName),
		span.S("dst", e.Sys.Topo.Nodes[dst].Name),
		span.S("vma", v.Name),
		span.I("page", int64(idx)),
		span.I("wasted_bytes", v.PageSize))
	e.admissionMoveAborted(v.PageSize, src, dst)
	e.recordMoveAbort(src, dst)
}

// ErrOutOfMemory is the sentinel for capacity exhaustion: every tier is
// full (after emergency demotion failed to consolidate enough room) while
// a fault needed a frame. Use errors.Is against run errors.
var ErrOutOfMemory = errors.New("sim: out of memory")

// OOMError carries the details of a failed placement. It unwraps to
// ErrOutOfMemory.
type OOMError struct {
	VMA  string // the faulting VMA's description
	Page int    // faulting page index
	Need int64  // bytes that could not be placed
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("sim: out of memory placing %s page %d (%d bytes)", e.VMA, e.Page, e.Need)
}

func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// Err returns the engine's sticky failure (an *OOMError), or nil. Once a
// failure is recorded the engine stops servicing accesses and Run returns
// the error.
func (e *Engine) Err() error { return e.failed }

// fail records the first failure; later calls keep the original.
func (e *Engine) fail(err *OOMError) {
	if e.failed == nil {
		e.failed = err
		if e.met != nil {
			e.met.reg.Emit(EventOOM, err.VMA, int64(err.Page))
		}
		e.SpanEvent("emergency", "oom",
			span.S("vma", err.VMA),
			span.I("page", int64(err.Page)),
			span.I("need_bytes", err.Need))
	}
}

// emergencyDemotePageCost is the fixed per-page kernel work of the
// emergency (direct-reclaim-style) demotion path, on top of the copy.
const emergencyDemotePageCost = 2 * time.Microsecond

// emergencyReclaim is the simulator's direct-reclaim analogue, run only
// when every tier failed FirstFit for a faulting page: walk the view
// fastest-first and try to consolidate enough room on one node by pushing
// its coldest resident pages down to slower nodes with free space. This
// rescues the fragmented-capacity case (free bytes exist but no single
// node can hold the new page); when total capacity is genuinely exhausted
// it returns Invalid and the fault fails with ErrOutOfMemory.
func (e *Engine) emergencyReclaim(socket int, need int64) tier.NodeID {
	view := e.Sys.Topo.View(socket)
	for vi, cand := range view {
		if e.Sys.Free(cand) >= need {
			return cand
		}
		lower := view[vi+1:]
		if len(lower) == 0 {
			break
		}
		if e.demoteColdest(cand, lower, need-e.Sys.Free(cand)) {
			e.EmergencyDemotions++
			e.emitEventOnce(EventEmergencyDemotion, e.Sys.Topo.Nodes[cand].Name, need)
			e.SpanEvent("emergency", "emergency-demotion",
				span.S("node", e.Sys.Topo.Nodes[cand].Name),
				span.I("need_bytes", need))
			return cand
		}
	}
	return tier.Invalid
}

// pageRef names one page of one VMA.
type pageRef struct {
	v   *vm.VMA
	idx int
}

// residentOn returns the present pages mapped on node in (VMA, page)
// order, the deterministic candidate order of the emergency-demotion,
// drain and poison paths. The walk is word-wide over the present plane.
func (e *Engine) residentOn(node tier.NodeID) []pageRef {
	var out []pageRef
	for _, v := range e.AS.VMAs() {
		for w := 0; w < v.Words(); w++ {
			word := v.PresentWord(w)
			for word != 0 {
				i := w*vm.WordPages + bits.TrailingZeros64(word)
				word &= word - 1
				if v.Node(i) == node {
					out = append(out, pageRef{v, i})
				}
			}
		}
	}
	return out
}

// demoteColdest pushes the coldest resident pages of node down to the
// first lower-tier node with room until need bytes are freed. It reports
// whether the full amount was freed; partial progress is kept (the
// capacity accounting stays exact either way).
func (e *Engine) demoteColdest(node tier.NodeID, lower []tier.NodeID, need int64) bool {
	pages := e.residentOn(node)
	// Coldest first; residentOn returns (VMA, page) order, so the stable
	// sort keeps victim selection deterministic.
	sort.SliceStable(pages, func(a, b int) bool {
		return pages[a].v.Count(pages[a].idx) < pages[b].v.Count(pages[b].idx)
	})
	var freed int64
	e.SetMoveContext("emergency-demotion", "")
	defer e.ClearMoveContext()
	for _, p := range pages {
		if freed >= need {
			break
		}
		var dst tier.NodeID = tier.Invalid
		for _, l := range lower {
			if e.Sys.Free(l) >= p.v.PageSize {
				dst = l
				break
			}
		}
		if dst == tier.Invalid {
			break
		}
		// Emergency lane: record-only — the OOM path is never refused,
		// but the class counters and starvation watchdog must see it.
		e.admitLaneMove(admission.ClassEmergency, node, dst, p.v.PageSize)
		if !e.MovePage(p.v, p.idx, dst) {
			break
		}
		freed += p.v.PageSize
		// Emergency demotion runs synchronously inside the fault path:
		// the copy and fixed kernel work land on application time.
		e.intApp += e.Sys.CopyTime(HomeSocket, node, dst, p.v.PageSize) + emergencyDemotePageCost
		e.Sys.RecordTransfer(node, p.v.PageSize)
		e.Sys.RecordTransfer(dst, p.v.PageSize)
		e.NoteDemotion(p.v.PageSize)
	}
	return freed >= need
}
