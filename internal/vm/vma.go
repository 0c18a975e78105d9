package vm

import (
	"fmt"
	"math/bits"

	"mtm/internal/tier"
)

// Page sizes supported by the simulator.
const (
	BasePageSize = 4 * tier.KB // 4 KB base page
	HugePageSize = 2 * tier.MB // 2 MB transparent huge page
	HugeRatio    = int(HugePageSize / BasePageSize)
)

// NoNode marks a page that has no physical frame yet (not present).
const NoNode = tier.Invalid

// VMA is one virtual memory area: a contiguous range of same-sized pages.
// With THP enabled (the paper's default) a VMA uses 2 MB huge pages; page
// indices then count 2 MB units.
//
// Per-page state is split by how it is read. The PTE bits that sweeps
// read (present, dirty) and the ground-truth touched summary live in flat
// Bitmap planes, 64 pages per word, so sweeps test a word at a time. Everything an access reads or writes besides those bits
// sits in one packed page record, so TouchN touches one record line
// instead of a line in each of several arrays. PTE(idx) reconstructs the
// combined entry; profilers sweep the planes word-wide instead. State only
// the migration features keep (cool-down stamps, shadow sequence numbers)
// sits in side chunks allocated per plane word on first use.
type VMA struct {
	Name     string
	Base     uint64 // starting virtual address, HugePageSize-aligned
	PageSize int64  // BasePageSize or HugePageSize
	// PageShift is log2(PageSize): a byte offset's page is off >> PageShift.
	PageShift uint
	NPages    int

	pages []page

	// Hot PTE bit planes, maintained as invariants of every mutation:
	// present mirrors the Present bit, dirty the MMU's dirty bit.
	present Bitmap
	dirty   Bitmap

	// touched is the summary of the records' ground-truth counters: a page
	// with a non-zero count or write count is touched. Oracle-backed
	// sweeps (ObserveScans, stats) skip untouched pages word-wide without
	// loading records, and ResetCounts zeroes only the touched records.
	touched Bitmap

	// Shadow planes for non-exclusive tiering (nil until the first
	// MarkShadowed). shadowAll marks pages whose old frame is retained as
	// a shadow copy; shadowValid marks the subset whose shadow is still
	// byte-identical to the page. A write clears validity: the fast copy
	// diverged.
	shadowAll   Bitmap
	shadowValid Bitmap

	// side holds the per-page state only migration features use, one
	// chunk per 64-page plane word: nil until the first SetStamp or
	// MarkShadowed, and a chunk is allocated on the first write to its
	// word. Moved pages cluster, so a few chunks cover them, and a run
	// that never moves or shadows a page pays nothing.
	side []*sideChunk
}

// sideChunk is the side state of the 64 pages of one plane word.
type sideChunk struct {
	// stamp is an opaque per-page word the admission layer keeps its
	// cool-down in (admission.Cooldown); zero until SetStamp.
	stamp [WordPages]int64
	// seq counts the page's shadow transitions: MarkShadowed and the
	// clearing of a shadow each advance it, so a record that saved the
	// seq of a retention can tell whether that shadow still exists.
	seq [WordPages]uint32
}

// recShadowValid is the record's copy of the page's shadowValid bit, in
// the flag byte's one bit no PTE flag uses, so TouchHit tells a write to a
// valid shadow from the record it loads anyway. PTE masks it out.
const recShadowValid PTE = 1 << 7

// page is the per-access state of one page, 12 bytes.
type page struct {
	// Ground-truth access and write counts for the current profiling
	// interval. They are not PTE bits: ObserveScans models what repeated
	// scans would observe from them, and the oracle computes
	// recall/accuracy metrics against them.
	count, writes uint32
	// node is the page's placement complemented, ^NodeID, so the zero
	// record is a page with no frame (^NoNode == 0) and a new VMA's
	// records need no fill.
	node int8
	// sock is the socket that issued the most recent access to the page,
	// backing the hint-fault "who touched it" channel (§6.2).
	sock  int8
	flags PTE // cold bits only: Poisoned and recShadowValid
	// shadow is the node of the page's retained shadow frame; meaningful
	// only while the page's shadowAll bit is set. It fills the byte the
	// record would otherwise pad.
	shadow int8
}

func newVMA(name string, base uint64, pageSize int64, nPages int) *VMA {
	return &VMA{
		Name:      name,
		Base:      base,
		PageSize:  pageSize,
		PageShift: uint(bits.TrailingZeros64(uint64(pageSize))),
		NPages:    nPages,
		pages:     make([]page, nPages),
		present:   NewBitmap(nPages),
		dirty:     NewBitmap(nPages),
		touched:   NewBitmap(nPages),
	}
}

// Bytes returns the size of the VMA in bytes.
func (v *VMA) Bytes() int64 { return int64(v.NPages) * v.PageSize }

// End returns the first address past the VMA.
func (v *VMA) End() uint64 { return v.Base + uint64(v.Bytes()) }

// Addr returns the virtual address of page idx.
func (v *VMA) Addr(idx int) uint64 { return v.Base + uint64(int64(idx)*v.PageSize) }

// PageOf returns the page index containing addr, which must lie in the VMA.
func (v *VMA) PageOf(addr uint64) int { return int((addr - v.Base) >> v.PageShift) }

// PTE reconstructs the page-table entry of page idx from the flag byte and
// the bit planes.
func (v *VMA) PTE(idx int) PTE {
	p := v.pages[idx].flags &^ recShadowValid
	if v.present.Test(idx) {
		p |= Present
	}
	if v.dirty.Test(idx) {
		p |= Dirty
	}
	return p
}

// Node returns the memory node holding page idx, or NoNode.
func (v *VMA) Node(idx int) tier.NodeID { return tier.NodeID(^v.pages[idx].node) }

// Present reports whether page idx has a physical frame.
func (v *VMA) Present(idx int) bool { return v.present.Test(idx) }

// Words returns the number of 64-page bitmap words covering the VMA.
func (v *VMA) Words() int { return v.present.Words() }

// PresentWord returns word w of the present plane.
func (v *VMA) PresentWord(w int) uint64 { return v.present.Word(w) }

// DirtyWord returns word w of the dirty plane.
func (v *VMA) DirtyWord(w int) uint64 { return v.dirty.Word(w) }

// Touched reports whether page idx was accessed this interval (ground
// truth; oracle code only).
func (v *VMA) Touched(idx int) bool { return v.touched.Test(idx) }

// ActiveWord returns the pages of word w that are both present and touched
// this interval — the pages a scan sweep can observe anything on.
func (v *VMA) ActiveWord(w int) uint64 { return v.present.Word(w) & v.touched.Word(w) }

// ActiveRangeWord returns ActiveWord(w) restricted to pages [lo, hi).
func (v *VMA) ActiveRangeWord(w, lo, hi int) uint64 {
	return v.present.RangeWord(w, lo, hi) & v.touched.Word(w)
}

// FirstPresent returns the lowest present page index in [lo, hi), or -1.
func (v *VMA) FirstPresent(lo, hi int) int {
	i := v.present.NextSet(lo)
	if i < 0 || i >= hi {
		return -1
	}
	return i
}

// PresentCount returns the number of present pages in [lo, hi) via
// word-wide popcounts.
func (v *VMA) PresentCount(lo, hi int) int { return v.present.CountRange(lo, hi) }

// PresentRangeWord returns the present pages of word w restricted to
// [lo, hi); see Bitmap.RangeWord for the iteration idiom.
func (v *VMA) PresentRangeWord(w, lo, hi int) uint64 { return v.present.RangeWord(w, lo, hi) }

// TouchedRangeWord returns the touched pages of word w restricted to
// [lo, hi). Oracle code only; profilers must observe through ObserveScans.
func (v *VMA) TouchedRangeWord(w, lo, hi int) uint64 { return v.touched.RangeWord(w, lo, hi) }

// Place installs page idx on node n, marking it present. It is the
// allocator/migrator's entry point and does not touch access bits. It
// panics on a node the page record cannot hold (outside int8).
func (v *VMA) Place(idx int, n tier.NodeID) {
	if tier.NodeID(int8(n)) != n {
		panic("vm: Place: node outside int8") // constant, so Place inlines
	}
	v.pages[idx].node = ^int8(n)
	v.present.Set(idx)
}

// FirstWriteRange places the leading pages of [lo, hi) on node n as a
// first write from socket to each would, and returns the page it stopped
// at: present and dirty bits, node and last-accessor socket, but not the
// ground-truth counters or the touched plane, which the caller accounts
// for. It stops at a present page and at a page whose first write does
// more than place it: a poisoned page, whose fault may recover it, and a
// page whose shadow is valid, which the write invalidates. It panics on a
// node the page record cannot hold, as Place does.
func (v *VMA) FirstWriteRange(lo, hi int, n tier.NodeID, socket int) int {
	if tier.NodeID(int8(n)) != n {
		panic("vm: FirstWriteRange: node outside int8")
	}
	node, sock := ^int8(n), int8(socket)
	i := lo
	for ; i < hi; i++ {
		p := &v.pages[i]
		if p.node != 0 || p.flags&(Poisoned|recShadowValid) != 0 {
			break
		}
		p.node, p.sock = node, sock
	}
	v.present.SetRange(lo, i)
	v.dirty.SetRange(lo, i)
	return i
}

// Unmap removes the frame of page idx (migration step 2). Access state is
// preserved so a remap continues tracking.
func (v *VMA) Unmap(idx int) {
	v.pages[idx].node = ^int8(NoNode)
	v.present.Clear(idx)
}

// Poison marks page idx as hit by an uncorrectable memory error, the
// analogue of Linux HWPOISON soft-offlining. The mapping is torn down
// (the frame is dead, not reusable), the access state is discarded with
// it, and the Poisoned bit is left so the next access takes a recovery
// fault rather than returning stale data.
func (v *VMA) Poison(idx int) {
	p := &v.pages[idx]
	p.node = ^int8(NoNode)
	p.flags = p.flags.Set(Poisoned)
	p.count, p.writes = 0, 0
	v.present.Clear(idx)
	v.dirty.Clear(idx)
	v.touched.Clear(idx)
	v.ClearShadowed(idx)
}

// IsPoisoned reports whether page idx carries a pending memory error.
func (v *VMA) IsPoisoned(idx int) bool { return v.pages[idx].flags.Has(Poisoned) }

// ClearPoison acknowledges the memory error on page idx (the recovery
// fault handler ran); the page can then be placed on a fresh frame.
func (v *VMA) ClearPoison(idx int) {
	v.pages[idx].flags = v.pages[idx].flags.Clear(Poisoned)
}

// TouchN simulates n MMU accesses (nw of them writes) to page idx from
// the given socket: it marks the page touched (and on a write dirty) and
// records ground truth. It returns the node the accesses hit and whether
// the page faulted (not present): a faulting access records nothing and
// must be retried after the fault handler places the page. One call
// equals n calls with n = 1.
func (v *VMA) TouchN(idx int, n, nw uint32, socket int) (tier.NodeID, bool) {
	if node := v.TouchHit(idx, n, nw, socket); node != NoNode {
		return node, false
	}
	if !v.present.Test(idx) {
		return NoNode, true
	}
	// A write to a page whose shadow is valid: the fast copy diverges.
	v.shadowValid.Clear(idx)
	v.pages[idx].flags &^= recShadowValid
	return v.TouchHit(idx, n, nw, socket), false
}

// TouchHit is TouchN for the common case, small enough to inline into an
// access loop: it returns the node of page idx after doing exactly what
// TouchN does, unless the page is not present or nw > 0 meets a valid
// shadow. Then it does nothing and returns NoNode.
func (v *VMA) TouchHit(idx int, n, nw uint32, socket int) tier.NodeID {
	p := &v.pages[idx]
	// ^NoNode == 0, so a zero node byte is a page with no frame, and
	// recShadowValid is the flag byte's top bit.
	if p.node == 0 || nw != 0 && p.flags >= recShadowValid {
		return NoNode
	}
	w, bit := idx>>6, uint64(1)<<(idx&63)
	v.touched[w] |= bit
	if nw != 0 {
		v.dirty[w] |= bit
	}
	p.count += n
	p.writes += nw
	p.sock = int8(socket)
	return tier.NodeID(^p.node)
}

// Count returns the ground-truth access count of page idx this interval.
// Only the oracle/metrics layer may call this; profilers must not.
func (v *VMA) Count(idx int) uint32 { return v.pages[idx].count }

// WriteCount returns the ground-truth write count of page idx this interval.
func (v *VMA) WriteCount(idx int) uint32 { return v.pages[idx].writes }

// LastSocket returns the socket of the most recent access to page idx.
func (v *VMA) LastSocket(idx int) int { return int(v.pages[idx].sock) }

// ResetCounts zeroes the ground-truth counters at an interval boundary.
// Only touched records can hold a non-zero counter (TouchHit, their one
// writer, sets touched; Poison zeroes both), so it visits the set bits of
// the touched plane instead of every record.
func (v *VMA) ResetCounts() {
	for w, word := range v.touched {
		for ; word != 0; word &= word - 1 {
			p := &v.pages[w<<6+bits.TrailingZeros64(word)]
			p.count, p.writes = 0, 0
		}
	}
	clear(v.touched)
}

// TestAndClearDirty returns whether the dirty bit was set and clears it.
func (v *VMA) TestAndClearDirty(idx int) bool {
	set := v.dirty.Test(idx)
	v.dirty.Clear(idx)
	return set
}

// MarkShadowed records that page idx has a retained, currently-valid
// shadow copy on node n and returns the page's new shadow sequence number
// (see ShadowSeq). The planes are allocated lazily on first use.
func (v *VMA) MarkShadowed(idx int, n tier.NodeID) uint32 {
	if v.shadowAll == nil {
		v.shadowAll = NewBitmap(v.NPages)
		v.shadowValid = NewBitmap(v.NPages)
	}
	v.shadowAll.Set(idx)
	v.shadowValid.Set(idx)
	v.pages[idx].flags |= recShadowValid
	v.pages[idx].shadow = int8(n)
	seq := &v.sideOf(idx).seq[idx&(WordPages-1)]
	*seq++
	return *seq
}

// ClearShadowed forgets the shadow of page idx (dropped or consumed),
// advancing its shadow sequence number. No-op if the page has none.
func (v *VMA) ClearShadowed(idx int) {
	if !v.Shadowed(idx) {
		return
	}
	v.shadowAll.Clear(idx)
	v.shadowValid.Clear(idx)
	v.pages[idx].flags &^= recShadowValid
	v.side[idx/WordPages].seq[idx&(WordPages-1)]++
}

// ShadowNode returns the node of page idx's shadow frame, or NoNode when
// the page has none.
func (v *VMA) ShadowNode(idx int) tier.NodeID {
	if !v.Shadowed(idx) {
		return NoNode
	}
	return tier.NodeID(v.pages[idx].shadow)
}

// ShadowSeq returns page idx's shadow sequence number: 0 for a page never
// shadowed, then advanced by every MarkShadowed and every clearing of the
// shadow. A caller that saved the number MarkShadowed returned holds the
// page's current shadow exactly while the two still match.
func (v *VMA) ShadowSeq(idx int) uint32 {
	if c := v.chunk(idx); c != nil {
		return c.seq[idx&(WordPages-1)]
	}
	return 0
}

// Stamp returns the side stamp of page idx: the last value SetStamp
// stored, 0 if none.
func (v *VMA) Stamp(idx int) int64 {
	if c := v.chunk(idx); c != nil {
		return c.stamp[idx&(WordPages-1)]
	}
	return 0
}

// SetStamp stores s as the side stamp of page idx.
func (v *VMA) SetStamp(idx int, s int64) { v.sideOf(idx).stamp[idx&(WordPages-1)] = s }

// chunk returns the side chunk holding page idx, nil if none exists.
func (v *VMA) chunk(idx int) *sideChunk {
	if v.side == nil {
		return nil
	}
	return v.side[idx/WordPages]
}

// sideOf returns the side chunk holding page idx, allocating the chunk
// (and on first use the chunk index) as needed.
func (v *VMA) sideOf(idx int) *sideChunk {
	if v.side == nil {
		v.side = make([]*sideChunk, v.Words())
	}
	c := v.side[idx/WordPages]
	if c == nil {
		c = new(sideChunk)
		v.side[idx/WordPages] = c
	}
	return c
}

// SideChunks returns the number of side chunks allocated (tests).
func (v *VMA) SideChunks() int {
	n := 0
	for _, c := range v.side {
		if c != nil {
			n++
		}
	}
	return n
}

// Shadowed reports whether page idx has a retained shadow copy (valid or
// stale).
func (v *VMA) Shadowed(idx int) bool { return v.shadowAll != nil && v.shadowAll.Test(idx) }

// ShadowValid reports whether page idx has a shadow copy that is still
// byte-identical to the page (no write since retention/revalidation).
func (v *VMA) ShadowValid(idx int) bool { return v.shadowValid != nil && v.shadowValid.Test(idx) }

// RevalidateShadow marks the shadow of page idx byte-identical again
// (after a background re-sync copied the dirty page back). No-op if the
// page is not shadowed.
func (v *VMA) RevalidateShadow(idx int) {
	if v.shadowAll != nil && v.shadowAll.Test(idx) {
		v.shadowValid.Set(idx)
		v.pages[idx].flags |= recShadowValid
	}
}

// HasShadows reports whether any page of the VMA ever grew a shadow plane
// (cheap pre-filter for sweeps).
func (v *VMA) HasShadows() bool { return v.shadowAll != nil }

// ShadowedWord returns word w of the shadowed plane (0 when no page was
// ever shadowed).
func (v *VMA) ShadowedWord(w int) uint64 {
	if v.shadowAll == nil {
		return 0
	}
	return v.shadowAll.Word(w)
}

// ShadowedIn reports whether any page in [lo, hi) has a shadow frame,
// testing the shadowed plane a word at a time.
func (v *VMA) ShadowedIn(lo, hi int) bool {
	if v.shadowAll == nil {
		return false
	}
	for w := lo / WordPages; w*WordPages < hi; w++ {
		if v.shadowAll.RangeWord(w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// ShadowValidRangeWord returns the valid-shadow pages of word w restricted
// to [lo, hi).
func (v *VMA) ShadowValidRangeWord(w, lo, hi int) uint64 {
	if v.shadowValid == nil {
		return 0
	}
	return v.shadowValid.RangeWord(w, lo, hi)
}

// ShadowStaleWord returns the pages of word w whose shadow exists but has
// diverged (shadowed AND NOT valid) — the background re-sync work list.
func (v *VMA) ShadowStaleWord(w int) uint64 {
	if v.shadowAll == nil {
		return 0
	}
	return v.shadowAll.Word(w) &^ v.shadowValid.Word(w)
}

// ShadowedCount returns the number of shadowed pages (audit use).
func (v *VMA) ShadowedCount() int {
	if v.shadowAll == nil {
		return 0
	}
	return v.shadowAll.CountRange(0, v.NPages)
}

func (v *VMA) String() string {
	return fmt.Sprintf("VMA{%s %#x+%dMB page=%dKB}", v.Name, v.Base, v.Bytes()/tier.MB, v.PageSize/tier.KB)
}
