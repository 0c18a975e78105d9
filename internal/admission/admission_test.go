package admission

import (
	"testing"
	"time"
)

const page = int64(1 << 21)

// newCtl builds a two-node controller with a known rate/burst on the
// 0→1 pair: 1000 bytes per virtual second, burst of 4000.
func newCtl(t *testing.T) *Controller {
	t.Helper()
	c := NewController(2, false, false)
	c.SetRate(0, 1, 1000, 4000)
	return c
}

func TestBucketRefillBoundaries(t *testing.T) {
	c := newCtl(t)
	// Buckets start full.
	if got := c.Tokens(0, 1, 0); got != 4000 {
		t.Fatalf("initial tokens = %d, want full burst 4000", got)
	}
	// Drain below zero is impossible via Commit clamping? Commit allows
	// debt; drive the bucket to a known level first.
	c.Commit(0, 1, 4000, 0)
	if got := c.Tokens(0, 1, 0); got != 0 {
		t.Fatalf("tokens after full debit = %d, want 0", got)
	}
	// Refill is proportional to elapsed virtual time: 1000 B/s for
	// 500ms credits exactly 500 bytes.
	if got := c.Tokens(0, 1, int64(500*time.Millisecond)); got != 500 {
		t.Fatalf("tokens after 500ms = %d, want 500", got)
	}
	// Re-reading at the same timestamp must not credit again.
	if got := c.Tokens(0, 1, int64(500*time.Millisecond)); got != 500 {
		t.Fatalf("repeated refill at same now credited tokens: %d", got)
	}
	// A time far in the future caps at burst, never beyond.
	if got := c.Tokens(0, 1, int64(time.Hour)); got != 4000 {
		t.Fatalf("tokens after 1h = %d, want burst cap 4000", got)
	}
	// Sub-byte remainders truncate: 1000 B/s for 1.5ms is 1 byte.
	c.Commit(0, 1, 4000, int64(time.Hour))
	if got := c.Tokens(0, 1, int64(time.Hour)+int64(1500*time.Microsecond)); got != 1 {
		t.Fatalf("fractional refill = %d, want truncation to 1", got)
	}
}

func TestWastePenaltyDrainsBudget(t *testing.T) {
	c := newCtl(t)
	// A wasted move debits (1+WastePenalty)x its bytes: 5 × 800 = 4000...
	c.Waste(0, 1, 800, 0)
	if got := c.Tokens(0, 1, 0); got != 0 {
		t.Fatalf("tokens after penalized waste = %d, want 0", got)
	}
	// ...and debt clamps at -burst so the pair can recover.
	c.Waste(0, 1, 100000, 0)
	if got := c.Tokens(0, 1, 0); got != -4000 {
		t.Fatalf("debt = %d, want clamp at -burst (-4000)", got)
	}
	if b := c.pair(0, 1); b.moved != 0 || b.wasted == 0 {
		t.Fatalf("moved %d, wasted %d bytes; want all of it wasted (nothing committed)", b.moved, b.wasted)
	}
}

func TestZeroBudgetRestartsRefillClock(t *testing.T) {
	c := newCtl(t)
	// Zeroing at t=1s must both empty the bucket and restart the refill
	// clock: the pair may not retroactively earn credit for the time
	// before the breaker tripped.
	c.ZeroBudget(0, 1, int64(time.Second))
	if got := c.Tokens(0, 1, int64(time.Second)); got != 0 {
		t.Fatalf("tokens after ZeroBudget = %d, want 0", got)
	}
	if got := c.Tokens(0, 1, int64(2*time.Second)); got != 1000 {
		t.Fatalf("tokens 1s after ZeroBudget = %d, want 1000 (one second of refill)", got)
	}
	// Zeroing preserves debt: a pair in the red stays there.
	c.Waste(0, 1, 100000, int64(2*time.Second))
	c.ZeroBudget(0, 1, int64(2*time.Second))
	if got := c.Tokens(0, 1, int64(2*time.Second)); got >= 0 {
		t.Fatalf("ZeroBudget forgave debt: tokens = %d", got)
	}
}

func TestAdmitVerdicts(t *testing.T) {
	c := NewController(2, false, false)
	c.SetRate(0, 1, page, 4*page)

	// Cold promotion (below MinROI 0.1): rejected outright.
	d := c.AdmitClass(ClassNormal, 0, 1, DirPromote, 0.05, page, page, 0)
	if d.Verdict != VerdictReject || d.Rule != RuleLowROI {
		t.Fatalf("cold promote: got %v/%s, want reject/%s", d.Verdict, d.Rule, RuleLowROI)
	}
	// Hot promotion: admitted with a page-aligned allowance capped by
	// the bucket.
	d = c.AdmitClass(ClassNormal, 0, 1, DirPromote, 10, 8*page, page, 0)
	if d.Verdict != VerdictAdmit || d.AllowedBytes != 4*page {
		t.Fatalf("hot promote: got %v allowed=%d, want admit allowed=%d", d.Verdict, d.AllowedBytes, 4*page)
	}
	// Hot demotion victim (above MaxVictimROI 64): rejected as too hot
	// to evict.
	d = c.AdmitClass(ClassNormal, 0, 1, DirDemote, 65, page, page, 0)
	if d.Verdict != VerdictReject || d.Rule != RuleVictimHot {
		t.Fatalf("hot victim: got %v/%s, want reject/%s", d.Verdict, d.Rule, RuleVictimHot)
	}
	// Cold demotion victim: admitted.
	d = c.AdmitClass(ClassNormal, 0, 1, DirDemote, 1, page, page, 0)
	if d.Verdict != VerdictAdmit {
		t.Fatalf("cold victim: got %v/%s, want admit", d.Verdict, d.Rule)
	}
	// Drain the bucket below the low-water mark: a marginal promotion
	// (above MinROI, below MinROI*PressureFactor = 0.4) sheds...
	c.Commit(0, 1, 4*page, 0)
	d = c.AdmitClass(ClassNormal, 0, 1, DirPromote, 0.2, page, page, 0)
	if d.Verdict != VerdictDefer || d.Rule != RuleShed {
		t.Fatalf("marginal promote under pressure: got %v/%s, want defer/%s", d.Verdict, d.Rule, RuleShed)
	}
	// ...and even a clearly profitable one defers once the bucket
	// cannot cover a single page.
	d = c.AdmitClass(ClassNormal, 0, 1, DirPromote, 100, page, page, 0)
	if d.Verdict != VerdictDefer || d.Rule != RuleBudget {
		t.Fatalf("promote on empty bucket: got %v/%s, want defer/%s", d.Verdict, d.Rule, RuleBudget)
	}
	// Unknown pairs (self-moves, out-of-range) admit unbounded.
	d = c.AdmitClass(ClassNormal, 1, 1, DirPromote, 0, 3*page, page, 0)
	if d.Verdict != VerdictAdmit || d.AllowedBytes != 3*page {
		t.Fatalf("self pair: got %v allowed=%d, want unbounded admit", d.Verdict, d.AllowedBytes)
	}
}

func TestCooldownHysteresisAndExpiry(t *testing.T) {
	c := NewController(2, false, false)
	c.SetInterval(int64(500 * time.Millisecond)) // cool-down: two intervals, 1s
	// Fresh page: any direction allowed.
	var fresh Cooldown
	if !c.PageAllowed(fresh, DirPromote, 0) || !c.PageAllowed(fresh, DirDemote, 0) {
		t.Fatal("fresh page blocked")
	}
	s := c.NotePageMove(DirDemote, 0)
	if s.Until() != int64(time.Second) || s.Dir() != DirDemote {
		t.Fatalf("stamp = (%d, %v), want (1s, demote)", s.Until(), s.Dir())
	}
	// During the cool-down the reverse direction is blocked...
	if c.PageAllowed(s, DirPromote, int64(999*time.Millisecond)) {
		t.Fatal("reverse move allowed during cool-down")
	}
	// ...but the same direction stays allowed (no hysteresis against
	// continuing downward).
	if !c.PageAllowed(s, DirDemote, int64(500*time.Millisecond)) {
		t.Fatal("same-direction move blocked during cool-down")
	}
	// At exactly the expiry instant the page is free again, in both
	// directions and for good: an expired stamp blocks nothing.
	for _, now := range []int64{int64(time.Second), int64(time.Hour)} {
		if !c.PageAllowed(s, DirPromote, now) || !c.PageAllowed(s, DirDemote, now) {
			t.Fatalf("page still blocked at %d, after its cool-down expired", now)
		}
	}
	// A promotion stamps the other direction.
	if p := c.NotePageMove(DirPromote, int64(time.Second)); p.Dir() != DirPromote ||
		c.PageAllowed(p, DirDemote, int64(1500*time.Millisecond)) {
		t.Fatal("promotion stamp does not block an immediate demotion")
	}
}

func TestROI(t *testing.T) {
	// 10 accesses/page/interval, certain reaccess, 32-interval horizon
	// (HorizonIntervals), 250ns gap, 80µs copy: ROI = 10*1*32*250/80000 = 1.
	if got := ROI(10, 1, 250, 80000); got != 1 {
		t.Fatalf("ROI = %v, want 1", got)
	}
	if got := ROI(0, 1, 250, 80000); got != 0 {
		t.Fatalf("ROI of cold page = %v, want 0", got)
	}
	if got := ROI(10, 1, 250, 0); got != 0 {
		t.Fatalf("ROI with zero copy cost = %v, want 0", got)
	}
}

func TestWasteShedHalfOpenRecovery(t *testing.T) {
	c := NewController(2, false, false)
	rate := 100 * page              // bytes per virtual second
	c.SetRate(0, 1, rate, 400*page) // decay window = burst/rate = 4s
	now := int64(1e9)

	// One commit and one abort: waste ratio 0.5 hits the cutoff with a
	// full page of decayed waste on the ledger, so the pair sheds.
	c.Commit(0, 1, page, now)
	c.Waste(0, 1, page, now)
	d := c.AdmitClass(ClassNormal, 0, 1, DirPromote, 1, page, page, now)
	if d.Verdict != VerdictDefer || d.Rule != RuleWaste {
		t.Fatalf("Admit on wasteful pair = %v/%s, want defer/%s", d.Verdict, d.Rule, RuleWaste)
	}
	// The shed applies to demotions through the pair too.
	d = c.AdmitClass(ClassNormal, 0, 1, DirDemote, 1, page, page, now)
	if d.Verdict != VerdictDefer || d.Rule != RuleWaste {
		t.Fatalf("demote through wasteful pair = %v/%s, want defer/%s", d.Verdict, d.Rule, RuleWaste)
	}

	// One decay window later the ledger halves: the ratio still sits at
	// the cutoff, but the decayed waste is under one page — the
	// half-open probe lets a single move through.
	later := now + 4*int64(time.Second)
	d = c.AdmitClass(ClassNormal, 0, 1, DirPromote, 1, page, page, later)
	if d.Verdict != VerdictAdmit {
		t.Fatalf("probe after decay window = %v/%s, want admit", d.Verdict, d.Rule)
	}

	// A failed probe refills the ledger and the pair sheds again.
	c.Waste(0, 1, page, later)
	d = c.AdmitClass(ClassNormal, 0, 1, DirPromote, 1, page, page, later)
	if d.Verdict != VerdictDefer || d.Rule != RuleWaste {
		t.Fatalf("Admit after failed probe = %v/%s, want defer/%s", d.Verdict, d.Rule, RuleWaste)
	}

	// A pair below the cutoff never sheds: mostly-successful traffic.
	c2 := NewController(2, false, false)
	c2.SetRate(0, 1, rate, 400*page)
	c2.Commit(0, 1, 3*page, now)
	c2.Waste(0, 1, page, now)
	if d := c2.AdmitClass(ClassNormal, 0, 1, DirPromote, 1, page, page, now); d.Verdict != VerdictAdmit {
		t.Fatalf("Admit on mostly-healthy pair = %v/%s, want admit", d.Verdict, d.Rule)
	}
}
