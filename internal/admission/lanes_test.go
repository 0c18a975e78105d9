package admission

import "testing"

// laneCtl builds a two-node lanes controller with a known rate/burst on
// the 0→1 pair and a 1s interval.
func laneCtl(t *testing.T) *Controller {
	t.Helper()
	c := NewController(2, false, true)
	c.SetInterval(1e9)
	c.SetRate(0, 1, 1000, 4000)
	return c
}

// TestDrainLaneSpendsReserve asserts the drain lane may draw on the
// reserved burst slice after normal traffic has emptied the bucket.
func TestDrainLaneSpendsReserve(t *testing.T) {
	c := laneCtl(t)
	// Exhaust the pair's live tokens.
	c.Commit(0, 1, 4000, 0)
	// Normal traffic sees an empty bucket and defers.
	if d := c.AdmitClass(ClassNormal, 0, 1, DirDemote, 1, 512, 512, 0); d.Verdict != VerdictDefer || d.Rule != RuleBudget {
		t.Fatalf("normal on empty bucket = %v/%q, want defer/%s", d.Verdict, d.Rule, RuleBudget)
	}
	// Drain traffic still fits inside the reserve (ReserveFrac × 4000 = 1000).
	if d := c.AdmitClass(ClassDrain, 0, 1, DirDemote, 0, 512, 512, 0); d.Verdict != VerdictAdmit {
		t.Fatalf("drain inside reserve = %v/%q, want admit", d.Verdict, d.Rule)
	}
	// Emergency traffic is never refused, even deep in the red.
	c.Waste(0, 1, 1<<20, 0)
	if d := c.AdmitClass(ClassEmergency, 0, 1, DirDemote, 0, 512, 512, 0); d.Verdict != VerdictAdmit {
		t.Fatalf("emergency in debt = %v/%q, want admit", d.Verdict, d.Rule)
	}
}

// TestStarvationWatchdog asserts a critical class that keeps requesting
// and never gets admitted fires the watchdog after WatchdogIntervals
// consecutive starved intervals — and that an admit resets the count.
func TestStarvationWatchdog(t *testing.T) {
	c := laneCtl(t)
	// Drive the bucket to maximum debt so even the reserve cannot cover
	// one 512-byte drain page.
	c.Waste(0, 1, 1<<20, 0)

	starve := func(interval int) []Starvation {
		if d := c.AdmitClass(ClassDrain, 0, 1, DirDemote, 0, 512, 512, 0); d.Verdict == VerdictAdmit {
			t.Fatalf("interval %d: drain admitted with bucket in max debt", interval)
		}
		return c.EndInterval(0)
	}

	// The first WatchdogIntervals intervals: starved but within tolerance.
	for i := 1; i <= WatchdogIntervals; i++ {
		if fired := starve(i); len(fired) != 0 {
			t.Fatalf("watchdog fired after %d starved intervals, tolerance is %d", i, WatchdogIntervals)
		}
	}
	// The next interval crosses the tolerance.
	fired := starve(WatchdogIntervals + 1)
	if len(fired) != 1 || fired[0].Class != ClassDrain || fired[0].Waited != WatchdogIntervals+1 {
		t.Fatalf("watchdog = %+v, want one ClassDrain firing with Waited=%d", fired, WatchdogIntervals+1)
	}
	if got := c.ClassStats(ClassDrain).Starvations; got != 1 {
		t.Fatalf("ClassStats(drain).Starvations = %d, want 1", got)
	}
	// The counter resets after a firing: the next firing needs another
	// full tolerance run.
	for i := 1; i <= WatchdogIntervals; i++ {
		if fired := starve(WatchdogIntervals + 1 + i); len(fired) != 0 {
			t.Fatalf("watchdog re-fired after %d post-reset starved intervals", i)
		}
	}
	if fired := starve(2*WatchdogIntervals + 2); len(fired) != 1 {
		t.Fatalf("watchdog did not re-fire after a second full starvation run")
	}

	// An admitted drain move clears the wait. Refill the bucket first.
	c.ResetWasteWindow(0, 1, 0)
	c.SetRate(0, 1, 1000, 4000)
	if d := c.AdmitClass(ClassDrain, 0, 1, DirDemote, 0, 512, 512, 0); d.Verdict != VerdictAdmit {
		t.Fatalf("drain after refill = %v, want admit", d.Verdict)
	}
	if fired := c.EndInterval(0); len(fired) != 0 {
		t.Fatalf("watchdog fired on an interval with an admitted drain move")
	}
}

// TestClassStatsAccumulate asserts per-class lifetime counters track
// requests, admits, defers and bytes independently per class.
func TestClassStatsAccumulate(t *testing.T) {
	c := laneCtl(t)
	c.AdmitClass(ClassNormal, 0, 1, DirDemote, 1, 512, 512, 0)
	c.AdmitClass(ClassEmergency, 0, 1, DirDemote, 0, 512, 512, 0)
	c.AdmitClass(ClassEmergency, 0, 1, DirDemote, 0, 512, 512, 0)
	n, e := c.ClassStats(ClassNormal), c.ClassStats(ClassEmergency)
	if n.Requests != 1 || n.Admits != 1 {
		t.Fatalf("normal stats = %+v, want 1 request, 1 admit", n)
	}
	if e.Requests != 2 || e.Admits != 2 || e.Bytes != 1024 {
		t.Fatalf("emergency stats = %+v, want 2 requests, 2 admits, 1024 bytes", e)
	}
	if d := c.ClassStats(ClassDrain); d.Requests != 0 {
		t.Fatalf("drain stats = %+v, want untouched", d)
	}
}

// TestDemandScaledRefill asserts lanes mode re-rates each pair's bucket
// to its observed traffic: an idle pair collapses to the rate floor
// (statRate/64), a busy pair is clamped at the rated budget.
func TestDemandScaledRefill(t *testing.T) {
	c := laneCtl(t)
	// No traffic at all: after one interval the refill rate floors at
	// statRate/64 ≈ 15 B/s, so one virtual second credits ~15 bytes.
	c.Commit(0, 1, 4000, 0) // empty the bucket (counts as this interval's traffic)
	// Idle intervals: the traffic EMA decays by 1/8 each, so after a few
	// dozen the demand-scaled rate bottoms out at the floor.
	for i := 0; i < 64; i++ {
		c.EndInterval(0)
	}
	before := c.Tokens(0, 1, 0)
	got := c.Tokens(0, 1, 1e9) - before
	if got < 1 || got > 1000/64+1 {
		t.Fatalf("idle-pair refill over 1s = %d bytes, want ~statRate/64 = %d", got, 1000/64)
	}
	// Heavy sustained traffic: the rate climbs back toward (and never
	// beyond) the rated statRate.
	for i := 0; i < 8; i++ {
		c.Charge(0, 1, 100000, 2e9)
		c.EndInterval(2e9)
	}
	base := c.Tokens(0, 1, 2e9)
	if got := c.Tokens(0, 1, 3e9) - base; got > 1000 {
		t.Fatalf("busy-pair refill over 1s = %d bytes, exceeds rated 1000", got)
	}
}
