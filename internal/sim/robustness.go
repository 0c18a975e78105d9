package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

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

// FaultPlaneAttached reports whether a fault plane is installed.
func (e *Engine) FaultPlaneAttached() bool { return e.faults != nil }

// PageBusy consults the fault plane for an EBUSY-style transient failure
// of copying page idx of v to dst. Without a plane it is always (false, 0).
func (e *Engine) PageBusy(v *vm.VMA, idx int, dst tier.NodeID) (bool, time.Duration) {
	if e.faults == nil {
		return false, 0
	}
	return e.faults.PageBusy(v, idx, dst)
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
	if e.sp != nil {
		e.SpanEvent("policy", "promotion-deferred",
			span.S("dst", e.Sys.Topo.Nodes[dst].Name))
	}
}

// NoteMigrationRetry records one retried page-copy attempt on the src→dst
// tier pair and the virtual backoff waited before the next attempt. The
// backoff only feeds the metrics layer; the caller charges the time.
func (e *Engine) NoteMigrationRetry(src, dst tier.NodeID, backoff time.Duration) {
	e.MigrationRetries++
	if e.met != nil {
		pairCounter(e.met.retriedPages, src, dst).Inc()
		pairCounter(e.met.backoffNs, src, dst).AddDuration(backoff)
	}
}

// MoveBegin opens a page-move transaction: room for the page is reserved
// on dst while the page stays mapped on its source (copy-then-commit, the
// Nomad transactional migration shape). It reports false, leaving all
// state unchanged, when dst has no room. The source node is captured at
// begin time, and MoveCommit/MoveAborted attribute the outcome to that
// captured (src, dst) pair: an abort followed by a successful retry on a
// re-planned destination counts one abort on the original pair and one
// move on the new pair, never both on the original. Transactions do not
// nest; opening a second one before resolving the first panics.
func (e *Engine) MoveBegin(v *vm.VMA, idx int, dst tier.NodeID) bool {
	if e.txnOpen {
		panic("sim: MoveBegin with a move transaction already open")
	}
	if !e.Sys.Reserve(dst, v.PageSize) {
		// Shadow frames on dst are soft capacity: reclaim the oldest
		// until the page fits before giving up.
		if !e.shadowMakeRoom(dst, v.PageSize) || !e.Sys.Reserve(dst, v.PageSize) {
			return false
		}
	}
	e.txnOpen = true
	e.txnSrc = v.Node(idx)
	return true
}

// MoveCommit completes a transaction opened by MoveBegin: the source frame
// is released and the page rebinds to dst. The commit lands in the
// engine's committed-move ledger (checked by Audit) and counts as a
// success on the pair's migration circuit breaker.
func (e *Engine) MoveCommit(v *vm.VMA, idx int, dst tier.NodeID) {
	if !e.txnOpen {
		panic("sim: MoveCommit without MoveBegin")
	}
	src := e.txnSrc
	e.txnOpen = false
	if !e.shadowMoveCommitted(v, idx, src, dst) && src != vm.NoNode && src != dst {
		e.Sys.Release(src, v.PageSize)
	}
	v.Place(idx, dst)
	e.committedPages++
	e.committedBytes += v.PageSize
	e.recordMoveSuccess(src, dst)
	e.admissionMoveCommitted(v, idx, src, dst)
	e.lineageMoveCommitted(v, idx, src, dst, false)
	if e.met != nil {
		pairCounter(e.met.movedPages, src, dst).Inc()
	}
}

// MoveAborted rolls back a transaction opened by MoveBegin: the dst
// reservation is released, the page keeps its source frame, and the abort
// plus its thrown-away copy bytes are recorded against the begin-time
// (src, dst) pair. The abort also feeds the pair's circuit breaker.
func (e *Engine) MoveAborted(v *vm.VMA, idx int, dst tier.NodeID) {
	if !e.txnOpen {
		panic("sim: MoveAborted without MoveBegin")
	}
	src := e.txnSrc
	e.txnOpen = false
	e.Sys.Release(dst, v.PageSize)
	e.MigrationAborts++
	e.WastedBytes += v.PageSize
	if e.met != nil {
		pairCounter(e.met.abortedPages, src, dst).Inc()
	}
	e.emitPairEventOnce(EventMigrationAbort, src, dst, int64(idx))
	if e.sp != nil {
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
	}
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
func (e *Engine) fail(err error) {
	if e.failed == nil {
		e.failed = err
		if e.met != nil {
			if oe, ok := err.(*OOMError); ok {
				e.met.reg.Emit(EventOOM, oe.VMA, int64(oe.Page))
			} else {
				e.met.reg.Emit(EventOOM, err.Error(), 0)
			}
		}
		if e.sp != nil {
			if oe, ok := err.(*OOMError); ok {
				e.SpanEvent("emergency", "oom",
					span.S("vma", oe.VMA),
					span.I("page", int64(oe.Page)),
					span.I("need_bytes", oe.Need))
			} else {
				e.SpanEvent("emergency", "oom", span.S("error", err.Error()))
			}
		}
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
			if e.sp != nil {
				e.SpanEvent("emergency", "emergency-demotion",
					span.S("node", e.Sys.Topo.Nodes[cand].Name),
					span.I("need_bytes", need))
			}
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
// order, the deterministic candidate order of the emergency-demotion and
// drain paths. The walk is word-wide over the present plane.
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
		e.admitEmergencyMove(node, dst, p.v.PageSize)
		if !e.MovePage(p.v, p.idx, dst) {
			break
		}
		freed += p.v.PageSize
		// Emergency demotion runs synchronously inside the fault path:
		// the copy and fixed kernel work land on application time.
		e.intApp += e.Sys.CopyTime(e.HomeSocket, node, dst, p.v.PageSize) + emergencyDemotePageCost
		e.Sys.RecordTransfer(node, p.v.PageSize)
		e.Sys.RecordTransfer(dst, p.v.PageSize)
		e.NoteDemotion(p.v.PageSize)
	}
	return freed >= need
}
