package health

import "testing"

func TestPoisonThresholds(t *testing.T) {
	tr := NewTracker(2)
	trs := tr.Poison(0, 1, 3)
	if len(trs) != 1 || trs[0].From != StateOnline || trs[0].To != StateDegraded {
		t.Fatalf("first poison transitions = %+v", trs)
	}
	if tr.State(0) != StateDegraded || tr.State(1) != StateOnline {
		t.Fatal("wrong states after first poison")
	}
	// Crossing the drain threshold mid-burst.
	trs = tr.Poison(0, 7, 4)
	if len(trs) != 1 || trs[0].To != StateDraining {
		t.Fatalf("drain transition = %+v", trs)
	}
	if tr.PoisonedPages(0) != 8 {
		t.Fatalf("poisoned pages = %d", tr.PoisonedPages(0))
	}
}

func TestPoisonBurstEmitsBothSteps(t *testing.T) {
	// One burst past both thresholds must record Online→Degraded and
	// Degraded→Draining so the provenance trail never skips a state.
	tr := NewTracker(1)
	trs := tr.Poison(0, 10, 0)
	if len(trs) != 2 || trs[0].To != StateDegraded || trs[1].To != StateDraining {
		t.Fatalf("transitions = %+v", trs)
	}
}

func TestDegradedRecoversAfterQuietPeriod(t *testing.T) {
	tr := NewTracker(1)
	tr.Poison(0, 1, 0)
	for i := 1; i < 4; i++ {
		if trs := tr.BeginInterval(i, nil); len(trs) != 0 {
			t.Fatalf("interval %d: early transition %+v", i, trs)
		}
	}
	trs := tr.BeginInterval(4, nil)
	if len(trs) != 1 || trs[0].To != StateOnline {
		t.Fatalf("recovery transition = %+v", trs)
	}
	// New poison after recovery degrades again (cumulative count is
	// already past DegradedAfter).
	if trs := tr.Poison(0, 1, 5); len(trs) != 1 || trs[0].To != StateDegraded {
		t.Fatalf("re-degrade = %+v", trs)
	}
}

func TestOpenBreakerDegradesAndBlocksRecovery(t *testing.T) {
	tr := NewTracker(1)
	open := true
	trs := tr.BeginInterval(0, func(int) bool { return open })
	if len(trs) != 1 || trs[0].To != StateDegraded {
		t.Fatalf("breaker degrade = %+v", trs)
	}
	// While the breaker stays open the quiet clock never starts.
	for i := 1; i < 10; i++ {
		if trs := tr.BeginInterval(i, func(int) bool { return open }); len(trs) != 0 {
			t.Fatalf("interval %d: transition while open %+v", i, trs)
		}
	}
	// The breaker was last open at interval 9; the quiet clock runs from
	// there, so recovery lands at interval 13 (9 + RecoverAfter).
	open = false
	for i := 10; i < 13; i++ {
		if trs := tr.BeginInterval(i, func(int) bool { return open }); len(trs) != 0 {
			t.Fatalf("interval %d: recovered early %+v", i, trs)
		}
	}
	if trs := tr.BeginInterval(13, func(int) bool { return open }); len(trs) != 1 || trs[0].To != StateOnline {
		t.Fatalf("recovery = %+v", trs)
	}
}

func TestDrainingIsOneWay(t *testing.T) {
	tr := NewTracker(1)
	tr.Poison(0, 8, 0)
	if tr.State(0) != StateDraining {
		t.Fatal("setup: not draining")
	}
	// Quiet intervals never un-drain a tier.
	for i := 1; i < 20; i++ {
		if trs := tr.BeginInterval(i, nil); len(trs) != 0 {
			t.Fatalf("draining tier transitioned: %+v", trs)
		}
	}
	trs := tr.DrainedEmpty(0, 20)
	if len(trs) != 1 || trs[0].To != StateOffline {
		t.Fatalf("offline transition = %+v", trs)
	}
	// DrainedEmpty on a non-draining tier is a no-op.
	if trs := tr.DrainedEmpty(0, 21); len(trs) != 0 {
		t.Fatalf("offline tier transitioned again: %+v", trs)
	}
	if got := tr.Draining(); len(got) != 0 {
		t.Fatalf("Draining() = %v after offline", got)
	}
}

func TestForceDrainingStepsThroughDegraded(t *testing.T) {
	tr := NewTracker(2)
	trs := tr.ForceDraining(1, 0)
	if len(trs) != 2 || trs[0].To != StateDegraded || trs[1].To != StateDraining {
		t.Fatalf("transitions = %+v", trs)
	}
	if got := tr.Draining(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Draining() = %v", got)
	}
	// Idempotent on an already-draining tier.
	if trs := tr.ForceDraining(1, 1); len(trs) != 0 {
		t.Fatalf("second ForceDraining = %+v", trs)
	}
}

func TestBreakerTripsAfterConsecutiveAborts(t *testing.T) {
	var b Breaker
	if b.RecordAbort(10, 1000) || b.RecordAbort(20, 1000) {
		t.Fatal("tripped before the threshold")
	}
	if !b.RecordAbort(30, 1000) {
		t.Fatal("third consecutive abort did not trip")
	}
	if b.State != BreakerOpen || b.Trips != 1 || b.Consec != 0 {
		t.Fatalf("state=%v trips=%d consec=%d", b.State, b.Trips, b.Consec)
	}
	if b.OpenUntil != 1030 {
		t.Fatalf("openUntil = %d, want 1030", b.OpenUntil)
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	var b Breaker
	b.RecordAbort(1, 1000)
	b.RecordAbort(2, 1000)
	b.RecordSuccess()
	if b.RecordAbort(3, 1000) || b.RecordAbort(4, 1000) {
		t.Fatal("tripped with a success in between")
	}
	if !b.RecordAbort(5, 1000) {
		t.Fatal("did not trip after three fresh consecutive aborts")
	}
}

func TestBreakerTripsAtMostOncePerCoolDown(t *testing.T) {
	var b Breaker
	for i := 0; i < 2; i++ {
		b.RecordAbort(int64(i), 1000)
	}
	if !b.RecordAbort(2, 1000) {
		t.Fatal("no trip")
	}
	// While open, the pair is vetoed and further aborts never re-trip.
	for now := int64(3); now < 1000; now += 100 {
		if ok, _ := b.Allow(now); ok {
			t.Fatalf("Allow during cool-down at %d", now)
		}
		if b.RecordAbort(now, 1000) {
			t.Fatalf("re-trip during cool-down at %d", now)
		}
	}
	if b.Trips != 1 || b.OpenUntil != 1002 {
		t.Fatalf("trips = %d, open until %d; want 1, 1002", b.Trips, b.OpenUntil)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	mk := func() *Breaker {
		b := &Breaker{}
		b.RecordAbort(0, 1000)
		b.RecordAbort(0, 1000)
		b.RecordAbort(0, 1000) // trips; openUntil = 1000
		return b
	}

	// Probe succeeds: the breaker closes. Only the call that moves the
	// pair from open to half-open reports reopened.
	b := mk()
	if ok, reopened := b.Allow(999); ok || reopened {
		t.Fatalf("Allow during cool-down = %v, %v", ok, reopened)
	}
	if ok, reopened := b.Allow(1000); !ok || !reopened {
		t.Fatalf("cool-down elapsed: Allow = %v, %v, want true, true", ok, reopened)
	}
	if b.State != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State)
	}
	if ok, reopened := b.Allow(1001); !ok || reopened {
		t.Fatalf("half-open: Allow = %v, %v, want true, false", ok, reopened)
	}
	b.RecordSuccess()
	if ok, reopened := b.Allow(1002); !ok || reopened {
		t.Fatalf("closed: Allow = %v, %v, want true, false", ok, reopened)
	}
	if b.State != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}

	// Probe fails: immediate re-trip with a fresh cool-down.
	b = mk()
	b.Allow(2000)
	if !b.RecordAbort(2000, 1000) {
		t.Fatal("failed half-open probe did not re-trip")
	}
	if b.State != BreakerOpen || b.OpenUntil != 3000 || b.Trips != 2 {
		t.Fatalf("after re-trip: state=%v until=%d trips=%d", b.State, b.OpenUntil, b.Trips)
	}
}

func TestOpenAtIsReadOnly(t *testing.T) {
	var b Breaker
	if b.OpenAt(0) {
		t.Fatal("a closed breaker reads as open")
	}
	for i := 0; i < 3; i++ {
		b.RecordAbort(0, 1000)
	}
	if !b.OpenAt(500) {
		t.Fatal("open breaker not reported")
	}
	// Past the cool-down it reads as not-open, but must not move the
	// breaker to half-open (that is Allow's job).
	if b.OpenAt(1000) {
		t.Fatal("OpenAt true after cool-down")
	}
	if b.State != BreakerOpen {
		t.Fatal("OpenAt mutated the breaker state")
	}
}
