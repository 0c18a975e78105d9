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
	b := NewBreaker(3, 1000)
	if b.RecordAbort(0, 1, 10) || b.RecordAbort(0, 1, 20) {
		t.Fatal("tripped before the threshold")
	}
	if !b.RecordAbort(0, 1, 30) {
		t.Fatal("third consecutive abort did not trip")
	}
	if b.StateOf(0, 1) != BreakerOpen || b.Trips(0, 1) != 1 {
		t.Fatalf("state=%v trips=%d", b.StateOf(0, 1), b.Trips(0, 1))
	}
	if b.OpenUntil(0, 1) != 1030 {
		t.Fatalf("openUntil = %d, want 1030", b.OpenUntil(0, 1))
	}
	// Other pairs are untouched.
	if b.StateOf(1, 0) != BreakerClosed || b.StateOf(0, 2) != BreakerClosed {
		t.Fatal("trip leaked to other pairs")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	b := NewBreaker(2, 1000)
	b.RecordAbort(0, 1, 1)
	b.RecordAbort(0, 1, 2)
	b.RecordSuccess(0, 1)
	if b.RecordAbort(0, 1, 3) || b.RecordAbort(0, 1, 4) {
		t.Fatal("tripped with a success in between")
	}
	if !b.RecordAbort(0, 1, 5) {
		t.Fatal("did not trip after three fresh consecutive aborts")
	}
}

func TestBreakerTripsAtMostOncePerCoolDown(t *testing.T) {
	b := NewBreaker(2, 1000)
	for i := 0; i < 2; i++ {
		b.RecordAbort(0, 1, int64(i))
	}
	if !b.RecordAbort(0, 1, 2) {
		t.Fatal("no trip")
	}
	// While open, the pair is vetoed and further aborts never re-trip.
	for now := int64(3); now < 1000; now += 100 {
		if b.Allow(0, 1, now) {
			t.Fatalf("Allow during cool-down at %d", now)
		}
		if b.RecordAbort(0, 1, now) {
			t.Fatalf("re-trip during cool-down at %d", now)
		}
	}
	if b.Trips(0, 1) != 1 || b.TotalTrips() != 1 {
		t.Fatalf("trips = %d/%d, want 1", b.Trips(0, 1), b.TotalTrips())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	mk := func() *Breaker {
		b := NewBreaker(2, 1000)
		b.RecordAbort(0, 1, 0)
		b.RecordAbort(0, 1, 0)
		b.RecordAbort(0, 1, 0) // trips; openUntil = 1000
		return b
	}

	// Probe succeeds: the breaker closes.
	b := mk()
	if !b.Allow(0, 1, 1000) {
		t.Fatal("cool-down elapsed but probe refused")
	}
	if b.StateOf(0, 1) != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.StateOf(0, 1))
	}
	b.RecordSuccess(0, 1)
	if b.StateOf(0, 1) != BreakerClosed {
		t.Fatal("successful probe did not close the breaker")
	}

	// Probe fails: immediate re-trip with a fresh cool-down.
	b = mk()
	b.Allow(0, 1, 2000)
	if !b.RecordAbort(0, 1, 2000) {
		t.Fatal("failed half-open probe did not re-trip")
	}
	if b.StateOf(0, 1) != BreakerOpen || b.OpenUntil(0, 1) != 3000 || b.Trips(0, 1) != 2 {
		t.Fatalf("after re-trip: state=%v until=%d trips=%d",
			b.StateOf(0, 1), b.OpenUntil(0, 1), b.Trips(0, 1))
	}
}

func TestOpenIntoIsReadOnly(t *testing.T) {
	b := NewBreaker(3, 1000)
	for i := 0; i < 3; i++ {
		b.RecordAbort(2, 1, 0)
	}
	if !b.OpenInto(1, 500) {
		t.Fatal("open breaker into node 1 not reported")
	}
	if b.OpenInto(0, 500) || b.OpenInto(2, 500) {
		t.Fatal("OpenInto reported the wrong destination")
	}
	// Past the cool-down it reads as not-open, but must not flip the cell
	// to half-open (that is Allow's job).
	if b.OpenInto(1, 1000) {
		t.Fatal("OpenInto true after cool-down")
	}
	if b.StateOf(2, 1) != BreakerOpen {
		t.Fatal("OpenInto mutated the breaker state")
	}
}
