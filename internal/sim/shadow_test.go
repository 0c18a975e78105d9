package sim

import (
	"strings"
	"testing"
	"time"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

// newShadowEngine builds a two-tier engine (node 0 fast DRAM, node 1
// slow PM) with shadow retention attached.
func newShadowEngine(dram, pm int64) *Engine {
	e := NewEngine(tier.TwoTierTopology(dram, pm), 1)
	e.Interval = 10 * time.Millisecond
	e.EnableShadow()
	return e
}

// promoteWithShadow faults page idx onto node 1 (via the fixed solution)
// and promotes it to node 0, retaining the slow frame as a shadow.
func promoteWithShadow(t *testing.T, e *Engine, v *vm.VMA, idx int) {
	t.Helper()
	e.Access(v, idx, 1, 0, 0)
	if v.Node(idx) != 1 {
		t.Fatalf("setup: page %d on node %d, want 1", idx, v.Node(idx))
	}
	if !e.MovePage(v, idx, 0) {
		t.Fatalf("setup: MovePage(%d) failed", idx)
	}
	e.NotePromotion(v.PageSize) // committed moves must be attributed
	if v.Node(idx) != 0 {
		t.Fatalf("setup: page %d not promoted", idx)
	}
}

func TestPromotionRetainsShadow(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)

	if e.ShadowCount() != 1 {
		t.Fatalf("shadow count = %d, want 1", e.ShadowCount())
	}
	// The slow frame moved from the used ledger to the shadow ledger.
	if e.Sys.Used(1) != 0 || e.Sys.ShadowBytes(1) != v.PageSize {
		t.Fatalf("node1 used=%d shadow=%d, want 0/%d", e.Sys.Used(1), e.Sys.ShadowBytes(1), v.PageSize)
	}
	if !v.Shadowed(0) || !v.ShadowValid(0) {
		t.Fatal("shadow planes not set after promotion")
	}
	mustAudit(t, e)

	// Demoting back is a free flip: no copy bytes, the shadow frame
	// returns to the used ledger, and the fast frame is released.
	dst, ok := e.FlipDemote(v, 0)
	if !ok || dst != 1 {
		t.Fatalf("FlipDemote = (%d,%v), want (1,true)", dst, ok)
	}
	if v.Node(0) != 1 {
		t.Fatalf("page on node %d after flip, want 1", v.Node(0))
	}
	if e.FreeDemotions != 1 || e.FreeDemotionBytes != v.PageSize {
		t.Fatalf("free demotions = %d/%d bytes", e.FreeDemotions, e.FreeDemotionBytes)
	}
	if e.ShadowHits != 1 {
		t.Fatalf("shadow hits = %d, want 1", e.ShadowHits)
	}
	if e.ShadowCount() != 0 || e.Sys.ShadowBytes(1) != 0 {
		t.Fatal("flip did not consume the shadow")
	}
	if e.Sys.Used(0) != 0 || e.Sys.Used(1) != v.PageSize {
		t.Fatalf("used after flip: n0=%d n1=%d", e.Sys.Used(0), e.Sys.Used(1))
	}
	mustAudit(t, e)
}

func TestDemotionDoesNotRetainShadow(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 0})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0)
	if !e.MovePage(v, 0, 1) {
		t.Fatal("MovePage failed")
	}
	e.NoteDemotion(v.PageSize)
	// A demotion releases its fast source frame normally: retention is
	// promotion-only (a fast-tier shadow would burn scarce capacity).
	if e.ShadowCount() != 0 || e.Sys.Used(0) != 0 {
		t.Fatalf("demotion retained: shadows=%d n0 used=%d", e.ShadowCount(), e.Sys.Used(0))
	}
	mustAudit(t, e)
}

func TestWriteInvalidatesShadowAndSyncRevalidates(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)

	// A read leaves the shadow valid; the first write invalidates it.
	e.Access(v, 0, 1, 0, 0)
	if !v.ShadowValid(0) || e.ShadowInvalidations != 0 {
		t.Fatal("read invalidated the shadow")
	}
	e.Access(v, 0, 2, 1, 0)
	if v.ShadowValid(0) {
		t.Fatal("write left the shadow valid")
	}
	if e.ShadowInvalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", e.ShadowInvalidations)
	}
	// Repeat writes do not re-count: the shadow is already diverged.
	e.Access(v, 0, 2, 1, 0)
	if e.ShadowInvalidations != 1 {
		t.Fatalf("invalidations after second write = %d, want 1", e.ShadowInvalidations)
	}
	// An invalidated shadow cannot be flipped to.
	if _, ok := e.FlipDemote(v, 0); ok {
		t.Fatal("flip to a diverged shadow succeeded")
	}

	// The quiet-gated background sync skips the page while its dirty bit
	// is set (harvesting it), and re-copies on the next pass.
	if got := e.ShadowSync(v.PageSize); got != 0 {
		t.Fatalf("first sync pass copied %d bytes, want 0 (quiet gate)", got)
	}
	if got := e.ShadowSync(v.PageSize); got != v.PageSize {
		t.Fatalf("second sync pass copied %d bytes, want %d", got, v.PageSize)
	}
	if !v.ShadowValid(0) || e.ShadowSyncBytes != v.PageSize {
		t.Fatal("sync did not revalidate the shadow")
	}
	if _, ok := e.FlipDemote(v, 0); !ok {
		t.Fatal("flip after resync failed")
	}
	mustAudit(t, e)
}

// TestFaultingWriteInvalidatesShadow: a write to a non-present page whose
// shadow is still valid reaches TouchN through the fault path. It counts
// one invalidation, as a write to a present page does, and a read fault
// counts none.
func TestFaultingWriteInvalidatesShadow(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)
	unmap := func() {
		e.Sys.Release(v.Node(0), v.PageSize)
		v.Unmap(0)
	}
	e.SetSolution(&fixedSolution{node: 0})

	unmap()
	e.Access(v, 0, 1, 0, 0)
	if !v.Present(0) || !v.ShadowValid(0) || e.ShadowInvalidations != 0 {
		t.Fatalf("read fault: present %v, shadow valid %v, invalidations %d; want true, true, 0",
			v.Present(0), v.ShadowValid(0), e.ShadowInvalidations)
	}
	unmap()
	faults := e.TotalFaults
	e.Access(v, 0, 3, 2, 0)
	if e.TotalFaults != faults+1 {
		t.Fatal("the write did not fault")
	}
	if v.ShadowValid(0) || e.ShadowInvalidations != 1 {
		t.Fatalf("write fault: shadow valid %v, invalidations %d; want false, 1", v.ShadowValid(0), e.ShadowInvalidations)
	}
	unmap()
	e.Access(v, 0, 1, 1, 0)
	if e.ShadowInvalidations != 1 {
		t.Fatalf("a write fault on a diverged shadow counted again: %d invalidations", e.ShadowInvalidations)
	}
	mustAudit(t, e)
}

func TestShadowSyncRangeBypassesQuietGate(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)
	e.Access(v, 0, 2, 1, 0) // diverge

	// The targeted write-back copies immediately, dirty or not: the
	// caller has already chosen this range as a demotion victim.
	if got := e.ShadowSyncRange(v, 0, v.NPages, v.PageSize); got != v.PageSize {
		t.Fatalf("range sync copied %d bytes, want %d", got, v.PageSize)
	}
	if dst := e.ShadowDemoteDest(v, 0, v.NPages); dst != 1 {
		t.Fatalf("demote dest = %d, want 1", dst)
	}
	if _, ok := e.FlipDemote(v, 0); !ok {
		t.Fatal("flip after targeted sync failed")
	}
	mustAudit(t, e)
}

// TestPoisonDropsShadowDuringDemotion is the regression test for the
// poison/shadow interaction: a page whose fast copy is poisoned between
// retention and demotion must lose its shadow — the flip path must
// refuse rather than resurrect a mapping onto a frame whose owner died.
func TestPoisonDropsShadowDuringDemotion(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.EnableHealth()
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)
	if e.ShadowCount() != 1 {
		t.Fatal("setup: no shadow retained")
	}

	// Poison strikes the promoted (fast) copy mid-lifecycle.
	if !e.PoisonPage(v, 0) {
		t.Fatal("PoisonPage refused")
	}
	if e.ShadowCount() != 0 || e.Sys.ShadowBytes(1) != 0 {
		t.Fatal("poisoned page still holds a shadow")
	}
	if v.Shadowed(0) {
		t.Fatal("shadow planes survived poison")
	}
	if _, ok := e.FlipDemote(v, 0); ok {
		t.Fatal("flip of a poisoned page succeeded")
	}
	mustAudit(t, e)
}

// memErrPlane is a minimal FaultPlane that reports memory errors on one
// node for one interval — enough to drive healthBeginInterval.
type memErrPlane struct {
	node  tier.NodeID
	pages int
}

func (p *memErrPlane) Attach(sockets, nodes int)  {}
func (p *memErrPlane) BeginInterval(interval int) {}
func (p *memErrPlane) PageBusy(v *vm.VMA, idx int, dst tier.NodeID) (bool, time.Duration) {
	return false, 0
}
func (p *memErrPlane) DestPressure(n tier.NodeID) bool           { return false }
func (p *memErrPlane) SampleDropFrac() float64                   { return 0 }
func (p *memErrPlane) LinkBWFactor(s int, n tier.NodeID) float64 { return 1 }
func (p *memErrPlane) MemErrorPages(n tier.NodeID) int {
	if n == p.node {
		k := p.pages
		p.pages = 0
		return k
	}
	return 0
}

// TestMemErrorsDropShadowsOnNode: memory errors on the slow tier must
// drop every shadow it backs — the dying device's retained copies are
// not trustworthy, whether or not the error hit them directly.
func TestMemErrorsDropShadowsOnNode(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 16*tier.MB)
	e.EnableHealth()
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 8*tier.MB)
	// Two resident pages on node 1, two promoted with shadows on node 1.
	e.Access(v, 2, 1, 0, 0)
	e.Access(v, 3, 1, 0, 0)
	promoteWithShadow(t, e, v, 0)
	promoteWithShadow(t, e, v, 1)
	if e.ShadowCount() != 2 {
		t.Fatalf("setup: shadows = %d, want 2", e.ShadowCount())
	}

	// The next interval delivers the error burst on node 1. The plane is
	// attached only now so its one-shot burst is not consumed by the setup
	// interval, before any shadow exists.
	e.SetFaultPlane(&memErrPlane{node: 1, pages: 1})
	e.endInterval()
	e.beginInterval()
	if e.ShadowCount() != 0 {
		t.Fatalf("shadows after memory errors = %d, want 0", e.ShadowCount())
	}
	if e.PoisonedPages == 0 {
		t.Fatal("no page was poisoned")
	}
	mustAudit(t, e)
}

// TestShadowsReclaimedUnderPressure: shadow frames are soft capacity —
// a reservation that would not fit reclaims them oldest-first, both on
// the transactional move path and the fault path.
func TestShadowsReclaimedUnderPressure(t *testing.T) {
	// Node 1 (4 pages): after two promotions it holds 2 resident + 2
	// shadow pages — nominally full.
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 16*tier.MB)
	e.Access(v, 2, 1, 0, 0)
	e.Access(v, 3, 1, 0, 0)
	promoteWithShadow(t, e, v, 0)
	promoteWithShadow(t, e, v, 1)
	if e.Sys.Free(1) != 0 {
		t.Fatalf("setup: node1 free = %d, want 0", e.Sys.Free(1))
	}

	// A demotion probe into the nominally-full node 1 reclaims the oldest
	// shadow (page 0's) instead of failing.
	if !e.reserveMove(v, 1) {
		t.Fatal("move into full node did not reclaim a shadow")
	}
	e.abortMove(v, 0, v.Node(0), 1) // release the probe reservation
	if e.ShadowCount() != 1 {
		t.Fatalf("shadows after pressure probe = %d, want 1 (oldest dropped)", e.ShadowCount())
	}
	if v.Shadowed(0) || !v.Shadowed(1) {
		t.Fatal("wrong shadow dropped: want page 0 (oldest) gone, page 1 kept")
	}

	// The fault path does the same: refill the page the probe freed, fill
	// node 0, then fault a fresh VMA when the only spare capacity left is
	// page 1's shadow frame on node 1.
	e.Access(v, 4, 1, 0, 0) // node 1's last free page
	e.Access(v, 5, 1, 0, 0) // overflows to node 0 via FirstFit
	e.Access(v, 6, 1, 0, 0)
	if e.Sys.Free(0) != 0 || e.Sys.Free(1) != 0 {
		t.Fatalf("setup: free n0=%d n1=%d, want 0/0", e.Sys.Free(0), e.Sys.Free(1))
	}
	u := e.AS.Alloc("u", 2*tier.MB)
	e.Access(u, 0, 1, 0, 0)
	if e.Err() != nil {
		t.Fatalf("fault OOMed with a reclaimable shadow: %v", e.Err())
	}
	if e.ShadowCount() != 0 {
		t.Fatalf("shadows after fault reclaim = %d, want 0", e.ShadowCount())
	}
	mustAudit(t, e)
}

// TestAuditCatchesShadowDrift: a shadow ledger that disagrees with the
// shadowed pages, or a retention FIFO that disagrees with the planes,
// must fail the audit.
func TestAuditCatchesShadowDrift(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)
	mustAudit(t, e)
	// Inject drift: ledger bytes with no shadowed page behind them.
	e.Sys.ReserveShadow(1, v.PageSize)
	if err := e.Audit(); err == nil {
		t.Fatal("audit accepted shadow ledger drift")
	}
	e.Sys.ReleaseShadow(1, v.PageSize)
	mustAudit(t, e)

	// Inject drift: a live FIFO record for a page whose plane bit is
	// clear — a record carrying the page's current seq, as if the shadow
	// had been cleared without advancing it.
	e.Access(v, 1, 1, 0, 0)
	if v.Shadowed(1) {
		t.Fatal("setup: page 1 is shadowed")
	}
	fifo := e.shd.fifo[1]
	e.shd.fifo[1] = append(fifo, shadowRec{v: v, idx: 1, seq: v.ShadowSeq(1)})
	err := e.Audit()
	if err == nil {
		t.Fatal("audit accepted a live FIFO record without a shadow")
	}
	for _, want := range []string{"shadow FIFO: 2 live records, but 1 pages are marked shadowed",
		"shadow FIFO: live PM record for v/1, but the page's shadow node is -1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("audit error %q lacks %q", err, want)
		}
	}
	e.shd.fifo[1] = fifo
	mustAudit(t, e)
}

// TestFlipIsByteAccountedAsDemotion: the engine's migration totals must
// close with flips included (FreeDemotionBytes ⊆ DemotedBytes).
func TestFlipIsByteAccountedAsDemotion(t *testing.T) {
	e := newShadowEngine(8*tier.MB, 8*tier.MB)
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	promoteWithShadow(t, e, v, 0)
	promoteWithShadow(t, e, v, 1)
	if _, ok := e.FlipDemote(v, 0); !ok {
		t.Fatal("flip failed")
	}
	e.endInterval()
	if e.DemotedBytes != v.PageSize {
		t.Fatalf("demoted = %d, want %d", e.DemotedBytes, v.PageSize)
	}
	if e.FreeDemotionBytes != v.PageSize || e.FreeDemotions != 1 {
		t.Fatalf("free demotions = %d/%d", e.FreeDemotions, e.FreeDemotionBytes)
	}
	mustAudit(t, e)
}
