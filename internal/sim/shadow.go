// Engine-side non-exclusive tiering (Nomad): the shadow-frame table of
// internal/tier attached to the simulation. Disabled by default — an
// engine without EnableShadow runs exactly the pre-shadow code (MoveCommit
// releases every source frame, TouchN pays one nil check).
//
// Lifecycle of a shadow: a committed promotion retains the slow-tier
// source frame as a shadow instead of releasing it (shadowMoveCommitted);
// the first write to the fast copy invalidates it (the VMA's dirty-plane
// hook); the per-interval background sync re-copies diverged pages back
// to their shadow frames off the critical path and revalidates them
// (ShadowSync); demotion of a page whose shadow is still valid is a
// metadata flip with zero copy bytes (FlipDemote). Shadows are soft
// capacity: allocation pressure reclaims them oldest-first before the
// emergency demotion path runs, and poison/drain/offline events drop any
// shadows on the affected frames so a dead frame is never flipped to.
//
// Determinism contract: iteration is in (VMA, page) or per-node FIFO
// order — never map order — and an engine that never calls
// EnableShadow is bit-identical to a build without this file.
package sim

import (
	"math/bits"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

// shadowState bundles the table and its page back-references behind one
// nil check.
type shadowState struct {
	table *tier.ShadowTable
	// pages maps shadow key (page virtual address) back to the page, so
	// drops triggered from the table side (pressure reclaim, node-wide
	// drops) can clear the VMA planes.
	pages map[uint64]shadowPage
	// hooks caches the one write-invalidation closure per VMA.
	hooks map[*vm.VMA]func(int)
}

type shadowPage struct {
	v   *vm.VMA
	idx int
}

// EnableShadow attaches the shadow-frame table (idempotent). Policies
// that migrate non-exclusively (Nomad) call it from their first
// IntervalStart; everything else leaves it off and runs bit-identically
// to a shadow-free engine.
func (e *Engine) EnableShadow() {
	if e.shd != nil {
		return
	}
	e.shd = &shadowState{
		table: tier.NewShadowTable(e.Sys),
		pages: make(map[uint64]shadowPage),
		hooks: make(map[*vm.VMA]func(int)),
	}
}

// ShadowEnabled reports whether the shadow-frame table is attached.
func (e *Engine) ShadowEnabled() bool { return e.shd != nil }

// ShadowCount returns the number of live shadow frames (0 when disabled).
func (e *Engine) ShadowCount() int {
	if e.shd == nil {
		return 0
	}
	return e.shd.table.Count()
}

// shadowHook returns the per-VMA write-invalidation closure, cached so
// MarkShadowed installs the same function every time.
func (e *Engine) shadowHook(v *vm.VMA) func(int) {
	if fn, ok := e.shd.hooks[v]; ok {
		return fn
	}
	fn := func(idx int) { e.shadowWriteInvalidated(v, idx) }
	e.shd.hooks[v] = fn
	return fn
}

// shadowWriteInvalidated fires on the write that diverges a fast copy
// from its still-valid shadow (the VMA cleared the validity bit already;
// once per invalidation, not per write). The entry and its frame stay —
// the background sync may re-copy and revalidate it later.
func (e *Engine) shadowWriteInvalidated(_ *vm.VMA, _ int) {
	e.ShadowInvalidations++
}

// shadowMoveCommitted runs inside MoveCommit: for a committed promotion
// it retains the source frame as the page's shadow and reports true (the
// caller must then *not* release src); any pre-existing shadow of the
// page is dropped first (it described bytes that no longer match a
// committed move). Returns false when the source frame should be
// released normally.
func (e *Engine) shadowMoveCommitted(v *vm.VMA, idx int, src, dst tier.NodeID) bool {
	if e.shd == nil {
		return false
	}
	key := v.Addr(idx)
	if _, ok := e.shd.pages[key]; ok {
		e.dropShadow(key)
	}
	if src == vm.NoNode || src == dst ||
		e.Sys.Topo.Rank(e.HomeSocket, dst) >= e.Sys.Topo.Rank(e.HomeSocket, src) ||
		!e.Sys.Allocatable(src) {
		return false
	}
	// Promotion: convert the source frame from the used ledger to the
	// shadow ledger. The release/reserve pair moves the same byte count,
	// so Put can only fail if src went offline — checked above.
	e.Sys.Release(src, v.PageSize)
	if !e.shd.table.Put(key, src, v.PageSize) {
		return true // frame released; nothing retained
	}
	e.shd.pages[key] = shadowPage{v: v, idx: idx}
	v.MarkShadowed(idx, e.shadowHook(v))
	e.shadowRetains++
	return true
}

// dropShadow releases the shadow of key and clears the page's planes.
func (e *Engine) dropShadow(key uint64) bool {
	sp, ok := e.shd.pages[key]
	if !ok {
		return false
	}
	delete(e.shd.pages, key)
	e.shd.table.Drop(key)
	sp.v.ClearShadowed(sp.idx)
	e.shadowDrops++
	return true
}

// shadowDropPage drops the shadow of one page, if any. Called from the
// poison path so a dead frame is never flipped to.
func (e *Engine) shadowDropPage(v *vm.VMA, idx int) {
	if e.shd == nil {
		return
	}
	e.dropShadow(v.Addr(idx))
}

// shadowDropNode drops every shadow resident on node n, in FIFO order.
// Called when n drains, goes offline, or takes memory errors (the dying
// device backs shadow frames too).
func (e *Engine) shadowDropNode(n tier.NodeID) {
	if e.shd == nil {
		return
	}
	for _, key := range e.shd.table.KeysOn(n) {
		e.dropShadow(key)
	}
}

// shadowMakeRoom reclaims shadow frames on dst, oldest first, until need
// bytes are free. Shadows are the first capacity sacrificed under
// pressure: dropping one loses only a future free demotion, never data.
func (e *Engine) shadowMakeRoom(dst tier.NodeID, need int64) bool {
	if e.shd == nil || !e.Sys.Allocatable(dst) {
		return false
	}
	for e.Sys.Free(dst) < need {
		key, ok := e.shd.table.OldestOn(dst)
		if !ok {
			return false
		}
		e.dropShadow(key)
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
// copy path. A completed flip is a committed move: it lands in the move
// ledger, the demotion totals, FreeDemotions, the pair breaker, and the
// page's admission cool-down stamp.
func (e *Engine) FlipDemote(v *vm.VMA, idx int) (tier.NodeID, bool) {
	if e.shd == nil || !v.Present(idx) || !v.ShadowValid(idx) {
		return tier.Invalid, false
	}
	key := v.Addr(idx)
	sp, ok := e.shd.pages[key]
	if !ok || sp.v != v || sp.idx != idx {
		return tier.Invalid, false
	}
	dst, _, ok := e.shd.table.Get(key)
	if !ok {
		return tier.Invalid, false
	}
	e.ShadowHits++
	src := v.Node(idx)
	if src == dst || !e.Sys.Allocatable(dst) ||
		e.Sys.Topo.Rank(e.HomeSocket, dst) <= e.Sys.Topo.Rank(e.HomeSocket, src) {
		// Not a demotion anymore (or the shadow frame is unusable):
		// drop it so capacity comes back and the copy path decides.
		e.dropShadow(key)
		return tier.Invalid, false
	}
	if !e.PageMoveAllowed(v, idx, dst) {
		return tier.Invalid, false
	}
	// Consume the shadow: its bytes move from the shadow ledger back to
	// the used ledger on dst, and the fast frame on src is freed.
	delete(e.shd.pages, key)
	e.shd.table.Drop(key)
	v.ClearShadowed(idx)
	if !e.Sys.Reserve(dst, v.PageSize) {
		panic("sim: FlipDemote failed to reserve the bytes its shadow drop just freed")
	}
	e.Sys.Release(src, v.PageSize)
	v.Place(idx, dst)
	e.committedPages++
	e.committedBytes += v.PageSize
	e.FreeDemotions++
	e.FreeDemotionBytes += v.PageSize
	e.NoteDemotion(v.PageSize)
	e.recordMoveSuccess(src, dst)
	if e.adm != nil {
		e.adm.ctl.NotePageMove(key, e.moveDirection(src, dst), e.SpanClockNs())
	}
	if e.met != nil {
		pairCounter(e.met.movedPages, src, dst).Inc()
	}
	e.lineageMoveCommitted(v, idx, src, dst, true)
	return dst, true
}

// ShadowSync re-copies up to maxBytes of diverged (written-since-
// retention) shadowed pages back to their shadow frames and revalidates
// them. Each candidate's dirty bit is harvested first: a page written
// since the previous pass is skipped — it is still hot, and a re-copy
// would be invalidated before it pays off — so the budget concentrates
// on pages that went quiet (one full pass without a write). The copies
// are asynchronous helper-thread work: they charge background time and
// bandwidth, never the critical path. Policies run it once per interval
// before planning demotions, so pages that went clean demote as free
// flips. Returns the bytes synced.
func (e *Engine) ShadowSync(maxBytes int64) int64 {
	if e.shd == nil || maxBytes <= 0 {
		return 0
	}
	var synced int64
	for _, v := range e.AS.VMAs() {
		if !v.HasShadows() {
			continue
		}
		for w := 0; w < v.Words(); w++ {
			word := v.ShadowStaleWord(w) & v.PresentWord(w)
			for word != 0 {
				i := w*vm.WordPages + bits.TrailingZeros64(word)
				word &= word - 1
				if synced >= maxBytes {
					return synced
				}
				key := v.Addr(i)
				dst, _, ok := e.shd.table.Get(key)
				if !ok {
					// Plane bit without a table entry: stale marker.
					v.ClearShadowed(i)
					delete(e.shd.pages, key)
					continue
				}
				if !e.Sys.Allocatable(dst) {
					e.dropShadow(key)
					continue
				}
				if v.TestAndClearDirty(i) {
					// Written since the last sync pass: still hot, a re-copy
					// now would be invalidated again before it pays off. The
					// harvest arms quiet-detection — a page must go one full
					// pass without a write before its shadow re-syncs, which
					// keeps the budget for pages actually going cold.
					continue
				}
				synced += e.syncShadowPage(v, i, dst)
			}
		}
	}
	return synced
}

// syncShadowPage re-copies one stale shadowed present page back to its
// shadow frame on dst and revalidates it, charging background time and
// bandwidth. Returns the page's size. Callers have already resolved dst
// from the table and checked it is allocatable.
func (e *Engine) syncShadowPage(v *vm.VMA, i int, dst tier.NodeID) int64 {
	src := v.Node(i)
	e.ChargeBackground(e.Sys.CopyTime(e.HomeSocket, src, dst, v.PageSize))
	e.Sys.RecordTransfer(src, v.PageSize)
	e.Sys.RecordTransfer(dst, v.PageSize)
	// Binding budgets: the write-back competes for the same pair
	// bandwidth migration does (no-op unless lanes are enabled).
	e.admissionChargeBackground(src, dst, v.PageSize)
	v.RevalidateShadow(i)
	e.ShadowSyncBytes += v.PageSize
	return v.PageSize
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
			key := v.Addr(i)
			dst, _, ok := e.shd.table.Get(key)
			if !ok {
				v.ClearShadowed(i)
				delete(e.shd.pages, key)
				continue
			}
			if !e.Sys.Allocatable(dst) {
				e.dropShadow(key)
				continue
			}
			v.TestAndClearDirty(i) // harvest; the write-back supersedes it
			synced += e.syncShadowPage(v, i, dst)
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
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			if n, _, ok := e.shd.table.Get(v.Addr(i)); ok {
				return n
			}
		}
	}
	return tier.Invalid
}
