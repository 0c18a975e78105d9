package sim

import (
	"errors"
	"testing"
	"time"

	"mtm/internal/health"
	"mtm/internal/tier"
)

// mustAudit cross-checks the engine's ledgers and fails the test on any
// drift. Every engine test ends with it: the auditor is cheap and the
// invariants must hold in every state a test can construct.
func mustAudit(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func newHealthEngine(topo *tier.Topology) *Engine {
	e := NewEngine(topo, 1)
	e.Interval = 10 * time.Millisecond
	e.EnableHealth()
	return e
}

func TestPoisonQuarantinesAndRecovers(t *testing.T) {
	e := newHealthEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB))
	e.SetSolution(&fixedSolution{node: 0})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0)

	if !e.PoisonPage(v, 0) {
		t.Fatal("PoisonPage refused a resident page")
	}
	if !v.IsPoisoned(0) || v.Present(0) {
		t.Fatal("page not torn down")
	}
	if e.Sys.Quarantined(0) != v.PageSize || e.Sys.Used(0) != 0 {
		t.Fatalf("quarantine accounting: used=%d quarantined=%d", e.Sys.Used(0), e.Sys.Quarantined(0))
	}
	if e.PoisonedPages != 1 {
		t.Fatalf("PoisonedPages = %d", e.PoisonedPages)
	}
	if e.TierHealth(0) != health.StateDegraded {
		t.Fatalf("tier state = %v, want Degraded after first error", e.TierHealth(0))
	}
	mustAudit(t, e)

	// The next access pays the machine-check penalty and refaults the
	// page onto a healthy frame; no access ever lands on a poisoned page.
	before := e.AppTimeThisInterval()
	e.Access(v, 0, 1, 0, 0)
	if e.PoisonRecoveries != 1 {
		t.Fatalf("PoisonRecoveries = %d", e.PoisonRecoveries)
	}
	// AppTimeThisInterval amortises the interval's work over Threads.
	want := health.RecoveryPenalty / time.Duration(e.Threads)
	if got := e.AppTimeThisInterval() - before; got < want {
		t.Fatalf("recovery charged %v, want >= %v", got, want)
	}
	if v.IsPoisoned(0) || !v.Present(0) {
		t.Fatal("page not refaulted after recovery")
	}
	// The dead frame never comes back: capacity stays quarantined.
	if e.Sys.Quarantined(0) != v.PageSize {
		t.Fatal("quarantined bytes returned")
	}
	mustAudit(t, e)
}

func TestPoisonPageRefusals(t *testing.T) {
	// Without health, PoisonPage is a no-op; with health, non-resident
	// pages cannot be poisoned (no frame to kill).
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 0})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0)
	if e.PoisonPage(v, 0) {
		t.Fatal("PoisonPage succeeded without EnableHealth")
	}

	eh := newHealthEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB))
	eh.SetSolution(&fixedSolution{node: 0})
	eh.beginInterval()
	u := eh.AS.Alloc("u", 4*tier.MB)
	if eh.PoisonPage(u, 0) {
		t.Fatal("PoisonPage succeeded on a non-resident page")
	}
	mustAudit(t, eh)
}

func TestBreakerTripsViaAbortedTransactions(t *testing.T) {
	e := newHealthEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB))
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0)
	e.Access(v, 1, 1, 0, 0)
	e.SetFaultPlane(&busyPlane{left: -1})

	if !e.DestUsable(1, 0) {
		t.Fatal("fresh pair not usable")
	}
	aborts := health.TripAborts
	for i := 0; i < aborts; i++ {
		if e.BreakerTrips != 0 {
			t.Fatalf("tripped after %d aborts, want %d", i, aborts)
		}
		if mv, ok := e.CopyPage(v, 0, 0); !ok || mv.Committed {
			t.Fatalf("CopyPage under an always-busy plane = (%+v, %v), want an abort", mv, ok)
		}
	}
	if e.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", e.BreakerTrips)
	}
	if e.MigrationAborts != int64(aborts) {
		t.Fatalf("MigrationAborts = %d", e.MigrationAborts)
	}
	if e.DestUsable(1, 0) {
		t.Fatal("pair usable while the breaker is open")
	}
	if e.DestUsable(1, 0) {
		t.Fatal("repeated DestUsable flipped the breaker early")
	}
	state, consec, until, trips := e.BreakerEvidence(1, 0)
	if state != "open" || consec != 0 || trips != 1 || until <= e.SpanClockNs() {
		t.Fatalf("evidence = %s/%d/%d/%d", state, consec, until, trips)
	}
	// An aborted transaction moved nothing: page still on node 1.
	if v.Node(0) != 1 {
		t.Fatalf("aborted move relocated the page to %d", v.Node(0))
	}
	mustAudit(t, e)

	// The open breaker into node 0 degrades it at the next interval.
	e.endInterval()
	e.beginInterval()
	if e.TierHealth(0) != health.StateDegraded {
		t.Fatalf("tier 0 = %v, want Degraded under an open breaker", e.TierHealth(0))
	}
	mustAudit(t, e)
}

func TestDrainCascadesPastFullTier(t *testing.T) {
	// DRAM 12MB, CXL0 32MB, CXL1 64MB. With CXL0 packed full, draining
	// DRAM must cascade past it and land every page on CXL1 (tier N+2).
	e := newHealthEngine(tier.CXLTopology(8192))
	e.SetSolution(&fixedSolution{node: 1})
	e.beginInterval()
	fill := e.AS.Alloc("fill", 32*tier.MB)
	for i := 0; i < fill.NPages; i++ {
		e.Access(fill, i, 1, 0, 0)
	}
	if e.Sys.Free(1) != 0 {
		t.Fatalf("setup: CXL0 free = %d, want 0", e.Sys.Free(1))
	}
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("v", 4*tier.MB)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}

	e.DrainTier(0)
	if e.TierHealth(0) != health.StateDraining {
		t.Fatalf("tier 0 = %v after DrainTier", e.TierHealth(0))
	}
	e.endInterval()

	for i := 0; i < v.NPages; i++ {
		if v.Node(i) != 2 {
			t.Fatalf("page %d drained to node %d, want CXL1 (cascade past full CXL0)", i, v.Node(i))
		}
	}
	if e.Sys.Used(0) != 0 {
		t.Fatalf("DRAM still holds %d bytes", e.Sys.Used(0))
	}
	if e.DrainedBytes != v.Bytes() {
		t.Fatalf("DrainedBytes = %d, want %d", e.DrainedBytes, v.Bytes())
	}
	if e.DrainStallErr() != nil {
		t.Fatalf("unexpected stall: %v", e.DrainStallErr())
	}
	// Empty after the drain: the next interval's drain step offlines it.
	e.beginInterval()
	e.endInterval()
	if e.TierHealth(0) != health.StateOffline {
		t.Fatalf("tier 0 = %v, want Offline once empty", e.TierHealth(0))
	}
	mustAudit(t, e)
}

func TestDrainStallsWithNoDestination(t *testing.T) {
	// Both tiers full: draining node 0 finds no destination. The drain
	// must surface a typed error, leave the pages in place, and retry
	// (not offline the tier, not lose pages).
	e := newHealthEngine(tier.TwoTierTopology(4*tier.MB, 4*tier.MB))
	e.SetSolution(&fixedSolution{node: 0})
	enableEventSinks(e)
	e.beginInterval()
	v := e.AS.Alloc("v", 8*tier.MB)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	if e.Sys.Free(0) != 0 || e.Sys.Free(1) != 0 {
		t.Fatal("setup: machine not full")
	}
	onNode0 := func() (n int) {
		for i := 0; i < v.NPages; i++ {
			if v.Node(i) == 0 {
				n++
			}
		}
		return
	}
	before := onNode0()

	e.DrainTier(0)
	e.endInterval()

	err := e.DrainStallErr()
	if err == nil || !errors.Is(err, health.ErrNoDestination) {
		t.Fatalf("DrainStallErr = %v, want wrapped health.ErrNoDestination", err)
	}
	if e.DrainStalls != 1 {
		t.Fatalf("DrainStalls = %d", e.DrainStalls)
	}
	if got := onNode0(); got != before {
		t.Fatalf("stalled drain moved pages: %d -> %d", before, got)
	}
	if e.TierHealth(0) != health.StateDraining {
		t.Fatalf("tier 0 = %v, want still Draining", e.TierHealth(0))
	}
	mustAudit(t, e)

	// Free room on node 1: the next interval's drain makes progress.
	e.beginInterval()
	for i := 0; i < v.NPages; i++ {
		if v.Node(i) == 1 {
			e.Sys.Release(1, v.PageSize)
			v.Unmap(i)
		}
	}
	e.endInterval()
	if onNode0() != 0 {
		t.Fatal("drain did not resume after room appeared")
	}
	wantLines(t, "ring", ringRows(e), []string{
		`0 0 health-transition "DRAM Online->Degraded" 1`,
		`0 0 health-transition "DRAM Degraded->Draining" 2`,
		`0 0 drain-stall "DRAM" 2`,
		`1 19939 health-transition "DRAM Draining->Offline" 3`,
	})
	wantLines(t, "spans", spanInstants(e), []string{
		`0 19939 health/transition node="DRAM" from="Online" to="Degraded" reason="operator drain request" poisoned_pages=0`,
		`0 19939 health/transition node="DRAM" from="Degraded" to="Draining" reason="operator drain request" poisoned_pages=0`,
		`0 19939 health/drain-stall node="DRAM" resident_pages=2`,
		`1 19939 health/transition node="DRAM" from="Draining" to="Offline" reason="evacuation complete" poisoned_pages=0`,
	})
	mustAudit(t, e)
}

func TestPoisonLastVictimDuringOOMEmergency(t *testing.T) {
	// One huge page per tier, both resident. Poisoning the PM page—the
	// only frame an emergency demotion could free into—just before a new
	// fault leaves the machine with no reclaimable room at all: the fault
	// must fail with a graceful typed OOM, and the ledgers must balance.
	e := newHealthEngine(tier.TwoTierTopology(2*tier.MB, 2*tier.MB))
	e.SetSolution(&fixedSolution{node: 0})
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0)
	e.Access(v, 1, 1, 0, 0)
	if v.Node(0) != 0 || v.Node(1) != 1 {
		t.Fatalf("setup: pages on %d/%d", v.Node(0), v.Node(1))
	}

	if !e.PoisonPage(v, 1) {
		t.Fatal("poison failed")
	}
	// PM now has zero free bytes (its whole page is quarantined), so
	// demoting the DRAM resident cannot free room.
	if e.Sys.Free(1) != 0 {
		t.Fatalf("PM free = %d after quarantine, want 0", e.Sys.Free(1))
	}
	extra := e.AS.Alloc("extra", 2*tier.MB)
	e.Access(extra, 0, 1, 0, 0)
	if !errors.Is(e.Err(), ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", e.Err())
	}
	if e.EmergencyDemotions != 0 {
		t.Fatalf("EmergencyDemotions = %d, want 0 (nowhere to demote)", e.EmergencyDemotions)
	}
	mustAudit(t, e)
}

func TestHealthDisabledIsInert(t *testing.T) {
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 0})
	e.beginInterval()
	if !e.DestUsable(1, 0) || e.hlt != nil {
		t.Fatal("health leaked into a plain engine")
	}
	if e.TierStates() != nil {
		t.Fatal("TierStates non-nil without health")
	}
	e.DrainTier(0) // must be a no-op, not a panic
	e.endInterval()
	if e.Sys.Allocatable(0) != true {
		t.Fatal("DrainTier acted without health")
	}
	mustAudit(t, e)
}
