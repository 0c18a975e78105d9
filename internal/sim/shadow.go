// Engine-side non-exclusive tiering (Nomad): retained shadow frames.
// Disabled by default — an engine without EnableShadow runs exactly the
// pre-shadow code (commitMove releases every source frame).
//
// Lifecycle of a shadow: a committed promotion retains the slow-tier
// source frame as a shadow instead of releasing it (shadowMoveCommitted);
// the first write to the fast copy invalidates it (TouchN clears the
// page's validity bit, and AccessBatch counts the invalidation); the
// per-interval background sync re-copies diverged pages back to their
// shadow frames off the critical path and revalidates them (ShadowSync);
// demotion of a page whose shadow is still valid is a metadata flip with
// zero copy bytes, committed like any other move (FlipDemote). Shadows
// are soft capacity: allocation pressure reclaims them oldest-first
// before the emergency demotion path runs, and poison/drain/offline
// events drop any shadows on the affected frames so a dead frame is
// never flipped to.
//
// Where a shadow lives: the VMA is its only index. The shadowAll and
// shadowValid planes say whether page idx has a shadow and whether it is
// still valid, and the page record holds the shadow's node, so FlipDemote
// reads it from the record it already loads. The System's shadow ledger
// holds the bytes. Beside them the engine keeps one FIFO of (VMA, idx)
// records per node, in retention order, for the paths that must pick
// shadows by age: pressure reclaim takes the oldest, node-wide drops go
// oldest first.
//
// Determinism contract: iteration is in (VMA, page) or per-node FIFO
// order, and an engine that never calls EnableShadow is bit-identical to
// a build without this file.
package sim

import (
	"math/bits"
	"slices"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

// shadowState is the per-node retention FIFOs behind one nil check.
type shadowState struct {
	// fifo[n] holds node n's retention records, oldest first; heads[n]
	// is its consumed prefix. A record is live while its seq still equals
	// the page's ShadowSeq: dropping the shadow, or shadowing the page
	// again, advances the page's seq and leaves the record to be skipped.
	fifo  [][]shadowRec
	heads []int
}

// shadowRec is one retention, recorded in its node's FIFO.
type shadowRec struct {
	v   *vm.VMA
	idx int32
	seq uint32
}

func (r shadowRec) live() bool { return r.v.ShadowSeq(int(r.idx)) == r.seq }

// push appends r to node n's FIFO. A full queue first sheds its stale
// records, in order, and grows only if they were fewer than half: the
// queue stays within about twice its live records, and a steady state
// of drops and retentions reuses one array.
func (s *shadowState) push(n tier.NodeID, r shadowRec) {
	q := s.fifo[n]
	if len(q) == cap(q) {
		kept := q[:0]
		for _, x := range q[s.heads[n]:] {
			if x.live() {
				kept = append(kept, x)
			}
		}
		q = slices.Grow(kept, len(kept)+1)
		s.heads[n] = 0
	}
	s.fifo[n] = append(q, r)
}

// each calls fn with node n's live retention records, oldest first. fn
// may drop shadows: a drop advances the page's seq and leaves the queue
// as it is.
func (s *shadowState) each(n tier.NodeID, fn func(shadowRec)) {
	for _, r := range s.fifo[n][s.heads[n]:] {
		if r.live() {
			fn(r)
		}
	}
}

// EnableShadow attaches shadow retention (idempotent). Policies that
// migrate non-exclusively (Nomad) call it from their first
// IntervalStart; everything else leaves it off and runs bit-identically
// to a shadow-free engine.
func (e *Engine) EnableShadow() {
	if e.shd != nil {
		return
	}
	n := len(e.Sys.Topo.Nodes)
	e.shd = &shadowState{
		fifo:  make([][]shadowRec, n),
		heads: make([]int, n),
	}
}

// ShadowCount returns the number of live shadow frames (0 when disabled).
func (e *Engine) ShadowCount() int {
	n := 0
	for _, v := range e.AS.VMAs() {
		n += v.ShadowedCount()
	}
	return n
}

// shadowMoveCommitted runs inside commitMove: for a committed promotion
// it retains the source frame as the page's shadow and reports true (the
// caller must then *not* release src); any pre-existing shadow of the
// page is dropped first (it described bytes that no longer match a
// committed move). Returns false when the source frame should be
// released normally.
func (e *Engine) shadowMoveCommitted(v *vm.VMA, idx int, src, dst tier.NodeID) bool {
	if e.shd == nil {
		return false
	}
	e.dropShadow(v, idx)
	if src == vm.NoNode || src == dst ||
		e.Sys.Topo.Rank(HomeSocket, dst) >= e.Sys.Topo.Rank(HomeSocket, src) ||
		!e.Sys.Allocatable(src) {
		return false
	}
	// Promotion: convert the source frame from the used ledger to the
	// shadow ledger. The release/reserve pair moves the same byte count,
	// so the reserve can only fail if src went offline — checked above.
	e.Sys.Release(src, v.PageSize)
	if !e.Sys.ReserveShadow(src, v.PageSize) {
		return true // frame released; nothing retained
	}
	seq := v.MarkShadowed(idx, src)
	e.shd.push(src, shadowRec{v: v, idx: int32(idx), seq: seq})
	e.shadowRetains++
	return true
}

// releaseShadow returns page idx's shadow frame to the ledger and
// forgets the shadow. The page must have one.
func (e *Engine) releaseShadow(v *vm.VMA, idx int) {
	e.Sys.ReleaseShadow(v.ShadowNode(idx), v.PageSize)
	v.ClearShadowed(idx)
}

// dropShadow discards the shadow of page idx, if any.
func (e *Engine) dropShadow(v *vm.VMA, idx int) bool {
	if !v.Shadowed(idx) {
		return false
	}
	e.releaseShadow(v, idx)
	e.shadowDrops++
	return true
}

// oldestShadowOn returns the oldest live retention record on node n. The
// head is left pointing at it: the caller drops it before the next call,
// which then advances past it.
func (e *Engine) oldestShadowOn(n tier.NodeID) (shadowRec, bool) {
	s := e.shd
	q := s.fifo[n]
	for h := s.heads[n]; h < len(q); h++ {
		if q[h].live() {
			s.heads[n] = h
			return q[h], true
		}
	}
	s.fifo[n] = q[:0]
	s.heads[n] = 0
	return shadowRec{}, false
}

// shadowDropNode drops every shadow resident on node n, in FIFO order.
// Called when n drains, goes offline, or takes memory errors (the dying
// device backs shadow frames too).
func (e *Engine) shadowDropNode(n tier.NodeID) {
	if e.shd == nil {
		return
	}
	e.shd.each(n, func(r shadowRec) { e.dropShadow(r.v, int(r.idx)) })
}

// shadowMakeRoom reclaims shadow frames on dst, oldest first, until need
// bytes are free. Shadows are the first capacity sacrificed under
// pressure: dropping one loses only a future free demotion, never data.
func (e *Engine) shadowMakeRoom(dst tier.NodeID, need int64) bool {
	if e.shd == nil || !e.Sys.Allocatable(dst) {
		return false
	}
	for e.Sys.Free(dst) < need {
		r, ok := e.oldestShadowOn(dst)
		if !ok {
			return false
		}
		e.dropShadow(r.v, int(r.idx))
	}
	return true
}

// shadowReclaimFor finds a node in view order whose shadows can be
// reclaimed to fit need bytes, and reclaims them. tier.Invalid when no
// node gets there; runs in the fault path before emergency demotion.
func (e *Engine) shadowReclaimFor(view []tier.NodeID, need int64) tier.NodeID {
	if e.shd == nil {
		return tier.Invalid
	}
	for _, n := range view {
		if e.Sys.ShadowBytes(n) == 0 {
			continue
		}
		if e.shadowMakeRoom(n, need) {
			return n
		}
	}
	return tier.Invalid
}

// FlipDemote demotes page idx of v by flipping it back to its still-valid
// shadow frame: no bytes are copied, only the mapping and the capacity
// ledgers change. It reports the destination and whether the flip
// happened; a page without a valid shadow, a shadow on a dead/unusable
// node, or a thrash-suppressed page reports false and (except for
// suppression) drops the unusable shadow so the caller falls back to the
// copy path. A completed flip commits through commitMove like a copy; on
// top of that it counts as a free demotion.
func (e *Engine) FlipDemote(v *vm.VMA, idx int) (tier.NodeID, bool) {
	if e.shd == nil || !v.Present(idx) || !v.ShadowValid(idx) {
		return tier.Invalid, false
	}
	dst := v.ShadowNode(idx)
	e.ShadowHits++
	src := v.Node(idx)
	if src == dst || !e.Sys.Allocatable(dst) ||
		e.Sys.Topo.Rank(HomeSocket, dst) <= e.Sys.Topo.Rank(HomeSocket, src) {
		// Not a demotion anymore (or the shadow frame is unusable):
		// drop it so capacity comes back and the copy path decides.
		e.dropShadow(v, idx)
		return tier.Invalid, false
	}
	if !e.PageMoveAllowed(v, idx, dst) {
		return tier.Invalid, false
	}
	// Consume the shadow: its bytes move from the shadow ledger back to
	// the used ledger on dst, and the fast frame on src is freed.
	e.releaseShadow(v, idx)
	if !e.Sys.Reserve(dst, v.PageSize) {
		panic("sim: FlipDemote failed to reserve the bytes its shadow drop just freed")
	}
	e.Sys.Release(src, v.PageSize)
	e.FreeDemotions++
	e.FreeDemotionBytes += v.PageSize
	e.NoteDemotion(v.PageSize)
	e.commitMove(v, idx, src, dst, true)
	return dst, true
}

// ShadowSync re-copies up to maxBytes of diverged (written-since-
// retention) shadowed pages back to their shadow frames and revalidates
// them, in VMA order. A page written since the previous pass is skipped
// (see shadowSync's quiet gate), so the budget concentrates on pages that
// went quiet. Policies run it once per interval before planning
// demotions, so pages that went clean demote as free flips. Returns the
// bytes synced.
func (e *Engine) ShadowSync(maxBytes int64) int64 {
	var synced int64
	for _, v := range e.AS.VMAs() {
		synced += e.shadowSync(v, 0, v.NPages, maxBytes-synced, true)
	}
	return synced
}

// ShadowSyncRange is the targeted variant of ShadowSync: it writes back
// up to maxBytes of diverged shadows inside [start, end) of v with no
// quiet gate. Policies call it on a chosen demotion victim immediately
// before flipping — the caller has decided these pages leave the fast
// tier now, so divergence is written back unconditionally (background
// bandwidth, off the critical path; the planning point is quiesced, so
// no write can race the copy) and the subsequent demotion is a free
// flip instead of a critical-path copy. Returns the bytes synced.
func (e *Engine) ShadowSyncRange(v *vm.VMA, start, end int, maxBytes int64) int64 {
	return e.shadowSync(v, start, end, maxBytes, false)
}

// shadowSync re-copies up to maxBytes of the stale shadows of present
// pages in [start, end) of v back to their shadow frames and revalidates
// them, dropping shadows whose frame is no longer allocatable. Every
// candidate's dirty bit is harvested. With quiet set, a page whose bit
// was set (written since the previous pass) is skipped: it is still hot,
// and a re-copy would be invalidated again before it pays off, so a page
// must go one full pass without a write before its shadow re-syncs. The
// copies are asynchronous helper-thread work: they charge background
// time and bandwidth, never the critical path. Returns the bytes synced.
func (e *Engine) shadowSync(v *vm.VMA, start, end int, maxBytes int64, quiet bool) int64 {
	if e.shd == nil || maxBytes <= 0 || !v.HasShadows() {
		return 0
	}
	var synced int64
	for w := start / vm.WordPages; w*vm.WordPages < end; w++ {
		word := v.ShadowStaleWord(w) & v.PresentRangeWord(w, start, end)
		for word != 0 {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			if synced >= maxBytes {
				return synced
			}
			dst := v.ShadowNode(i)
			if !e.Sys.Allocatable(dst) {
				e.dropShadow(v, i)
				continue
			}
			if v.TestAndClearDirty(i) && quiet {
				continue
			}
			src := v.Node(i)
			e.ChargeBackground(e.Sys.CopyTime(HomeSocket, src, dst, v.PageSize))
			e.Sys.RecordTransfer(src, v.PageSize)
			e.Sys.RecordTransfer(dst, v.PageSize)
			// Binding budgets: the write-back competes for the same pair
			// bandwidth migration does (no-op unless lanes are enabled).
			e.admissionChargeBackground(src, dst, v.PageSize)
			v.RevalidateShadow(i)
			e.ShadowSyncBytes += v.PageSize
			synced += v.PageSize
		}
	}
	return synced
}

// ShadowDemoteDest returns the shadow node of the first valid-shadow page
// in [start, end) of v — the representative destination a policy prices a
// flip-demotion of the range against — or tier.Invalid when the range has
// no flippable page.
func (e *Engine) ShadowDemoteDest(v *vm.VMA, start, end int) tier.NodeID {
	if e.shd == nil || !v.HasShadows() {
		return tier.Invalid
	}
	for w := start / vm.WordPages; w*vm.WordPages < end; w++ {
		word := v.ShadowValidRangeWord(w, start, end) & v.PresentWord(w)
		if word != 0 {
			return v.ShadowNode(w*vm.WordPages + bits.TrailingZeros64(word))
		}
	}
	return tier.Invalid
}
