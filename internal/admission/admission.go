// Package admission implements migration admission control: a
// deterministic gate in front of every planned page move that decides
// admit, defer, or reject before the move consumes tier-pair bandwidth.
//
// The design follows TierBPF's argument that migration benefit must be
// estimated online and low-ROI moves refused up front, and Nomad's
// observation that unguarded migration actively hurts in ping-pong
// regimes. Four mechanisms combine:
//
//   - Per-tier-pair token buckets, refilled lazily in *virtual* time,
//     bound the byte rate each pair may spend on migration. Committed
//     moves debit their bytes; aborted moves debit their wasted bytes
//     at a penalty multiple, so a pair that keeps failing sheds its own
//     budget and further moves defer until the bucket recovers.
//   - An ROI estimator prices each move: expected stall nanoseconds
//     saved over a retention horizon versus the copy cost of the page.
//     Promotions below MinROI are rejected; demotion victims whose ROI
//     still exceeds MaxVictimROI are rejected as too hot to evict.
//   - A per-page cool-down with direction hysteresis suppresses
//     ping-pong: a page that just demoted cannot immediately
//     re-promote (and vice versa) until the cool-down expires. Moves
//     that continue in the same direction stay allowed.
//   - Load shedding under budget pressure: when a bucket runs below
//     its low-water mark, marginal promotions (admittable but not
//     clearly profitable) defer instead, reserving the remaining
//     budget for high-ROI moves. A pair whose recent attempts mostly
//     aborted (waste ratio over WasteCutoff) defers everything until
//     its decaying waste ledger clears, probing half-open-style on the
//     way back. An open health circuit breaker zeroes the pair's
//     bucket outright.
//
// The package is pure bookkeeping over plain int node IDs and int64
// virtual nanoseconds — no engine types, no wall clock, no RNG — so a
// Controller fed the same calls in the same order behaves bit-identically.
package admission

import "time"

// Verdict is the outcome of an admission check.
type Verdict uint8

const (
	// VerdictAdmit lets the move proceed, possibly for fewer bytes than
	// asked (Decision.AllowedBytes).
	VerdictAdmit Verdict = iota
	// VerdictDefer refuses the move for now; it stays eligible and may
	// be retried next interval once the pair's budget refills.
	VerdictDefer
	// VerdictReject refuses the move on its merits: the ROI does not
	// justify the copy, or the victim is too hot to evict.
	VerdictReject
)

// String returns the lower-case verdict name used as span outcome.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictDefer:
		return "defer"
	default:
		return "reject"
	}
}

// Class is the traffic class of a planned move. Admission prices the
// three classes differently: normal migrations pass every gate,
// health-drain evacuation skips the ROI gates and may spend into the
// reserved bandwidth slice, and emergency demotion (the OOM path) is
// never refused — an engine that can refuse the move that prevents an
// OOM has its priorities inverted.
type Class uint8

const (
	// ClassNormal is policy-driven migration traffic.
	ClassNormal Class = iota
	// ClassDrain is health-drain evacuation off a dying tier.
	ClassDrain
	// ClassEmergency is emergency demotion making room under OOM.
	ClassEmergency
	// NumClasses counts the traffic classes.
	NumClasses = 3
)

// String returns the lower-case class name used in provenance.
func (c Class) String() string {
	switch c {
	case ClassDrain:
		return "drain"
	case ClassEmergency:
		return "emergency"
	default:
		return "normal"
	}
}

// Direction classifies a move relative to the tier order.
type Direction uint8

const (
	// DirPromote moves pages toward a faster tier.
	DirPromote Direction = iota
	// DirDemote moves pages toward a slower tier.
	DirDemote
)

// String returns the lower-case direction name.
func (d Direction) String() string {
	if d == DirDemote {
		return "demote"
	}
	return "promote"
}

// Admission rule names, recorded in decision provenance so
// `spanreport -explain` can say why a move was refused.
const (
	// RuleAdmitted marks an admitted move.
	RuleAdmitted = "roi-admitted"
	// RuleLowROI marks a promotion whose ROI falls below MinROI.
	RuleLowROI = "roi-below-min"
	// RuleVictimHot marks a demotion whose victim is still hot enough
	// that evicting it would likely ping-pong straight back.
	RuleVictimHot = "victim-too-hot"
	// RuleBudget marks a move deferred because the pair's token bucket
	// cannot cover even one page.
	RuleBudget = "budget-exhausted"
	// RuleShed marks a marginal promotion deferred under budget
	// pressure (bucket below the low-water mark).
	RuleShed = "low-roi-shed"
	// RuleWaste marks a move deferred because the pair's recent waste
	// ratio (aborted share of attempted bytes) crossed WasteCutoff.
	RuleWaste = "waste-shed"
	// RuleShadowFlip marks a demotion admitted on its flip cost: the
	// page's still-valid shadow frame makes the demotion a zero-copy
	// metadata flip, so the copy-cost-denominated gates (victim ROI,
	// token budget, waste shedding) do not apply.
	RuleShadowFlip = "shadow-flip-admitted"
)

// Tuning constants. Every run uses these values; online learning and
// lanes are the only switches (NewController).
const (
	// BudgetFrac is the fraction of a tier pair's rated link bandwidth
	// granted to migration, the token refill rate.
	BudgetFrac = 0.25
	// BurstIntervals sizes each bucket's burst capacity in multiples of
	// one interval's refill; the burst also sets the waste ledger's
	// decay window.
	BurstIntervals = 6
	// MinROI is the admission threshold for promotions: estimated
	// stall-time saved divided by copy cost. Lenient, because profiler
	// hotness scales differ per policy (MTM reports per-page access
	// averages, HeMem raw PEBS sample counts). ROI ≥ 1 means the move
	// pays for itself within HorizonIntervals.
	MinROI = 0.1
	// MaxVictimROI rejects demotion victims whose own ROI (the benefit
	// of *keeping* them fast) still exceeds this bound.
	MaxVictimROI = 64
	// HorizonIntervals is the retention horizon the ROI estimator
	// assumes: how many future intervals a moved page keeps its current
	// access rate.
	HorizonIntervals = 32
	// PressureFactor multiplies the promotion floor while a bucket sits
	// below its low-water mark, shedding marginal promotions.
	PressureFactor = 4
	// LowWaterFrac is the bucket fill fraction below which shedding
	// kicks in.
	LowWaterFrac = 0.25
	// WastePenalty is the extra budget debit charged per wasted byte:
	// an aborted move costs (1 + WastePenalty) times its bytes, so a
	// flaky pair throttles itself.
	WastePenalty = 4
	// WasteCutoff is the pair waste ratio — aborted bytes over attempted
	// bytes, decayed with a sliding window of one burst — above which
	// further moves through the pair defer ("waste-shed"). The decay
	// doubles as a half-open probe: once the decayed waste falls below
	// one page, a single move is let through to test whether the pair
	// has recovered.
	WasteCutoff = 0.5
	// LearnStep bounds one interval's learned-floor adjustment: the
	// floor is multiplied by (1 ± LearnStep).
	LearnStep = 0.25
	// EvidenceFloor is the minimum number of resolved verdicts a pair
	// must accumulate before its floor adapts; below it the floor
	// freezes (evidence carries over, it is not discarded).
	EvidenceFloor = 4
	// TargetWaste is the tolerated promoted-wasted share of resolved
	// verdicts: above it the floor rises, at or below it the floor
	// falls back toward admitting more.
	TargetWaste = 0.25
	// LearnMin and LearnMax clamp the learned floor to a band around
	// MinROI, which seeds every floor.
	LearnMin = MinROI / 4
	LearnMax = MinROI * 64
	// ReserveFrac is the fraction of each pair's rated burst reserved
	// for the drain lane on top of the pair's live tokens (lanes only).
	ReserveFrac = 0.25
	// WatchdogIntervals is how many consecutive fully-refused intervals
	// a critical class tolerates before the starvation watchdog fires
	// (lanes only).
	WatchdogIntervals = 4
	// DemandMult scales the demand-tracking refill: next interval's
	// refill rate is DemandMult times the pair's smoothed observed
	// volume, clamped to the rated budget (lanes only).
	DemandMult = 2
)

// ROI estimates the return on investment of moving one page: the stall
// nanoseconds the move is expected to save over the retention horizon
// (HorizonIntervals), divided by the nanoseconds the copy costs. whi is
// the profiler's weighted hotness (accesses per page per interval on
// whatever scale the active policy uses), reaccess the evidence-based
// likelihood the page stays hot (see the engine's reaccess grading),
// gapNs the per-access latency gap between source and destination, and
// copyNsPerPage the copy cost.
func ROI(whi, reaccess, gapNs, copyNsPerPage float64) float64 {
	if copyNsPerPage <= 0 || whi <= 0 {
		return 0
	}
	return whi * reaccess * HorizonIntervals * gapNs / copyNsPerPage
}

// Decision reports one admission check, with enough evidence to
// reconstruct why: the verdict, the rule that fired, the estimated ROI
// and the threshold it was held against, the byte allowance granted,
// and the pair's bucket level after refill.
type Decision struct {
	Verdict   Verdict
	Rule      string
	ROI       float64
	Threshold float64
	// AllowedBytes is the admitted byte allowance (page-aligned), zero
	// unless Verdict is VerdictAdmit.
	AllowedBytes int64
	// BudgetBytes is the pair's token balance after refill, before any
	// debit; negative means the pair is in debt from waste penalties.
	BudgetBytes int64
	// Floor is the effective promotion floor the decision was priced
	// against: the static MinROI, or the pair's learned floor when
	// online learning is active. Zero for demotions.
	Floor float64
}

// bucket is one tier pair's token-bucket state plus its waste ledger.
type bucket struct {
	rate   int64 // refill, bytes per virtual second
	burst  int64 // capacity, bytes
	tokens int64 // current balance; may go negative down to -burst
	lastNs int64 // virtual time of the last refill
	moved  int64 // committed bytes through this pair (window-decayed)
	wasted int64 // aborted bytes through this pair (window-decayed)
	winNs  int64 // waste-ledger decay window (one burst's worth of refill)
	winAt  int64 // virtual time the current decay window started
	// Demand scaling (lanes mode): intBytes accumulates every byte
	// charged through the pair this interval — committed, wasted, and
	// background (shadow sync, profiling); ema smooths it. statRate and
	// statBurst keep the rated values SetRate installed, the ceiling
	// demand scaling may never exceed.
	intBytes  int64
	ema       int64
	statRate  int64
	statBurst int64
	// floor is the pair's promotion ROI floor: MinROI, adapted at
	// interval end when learning is on from the decaying hindsight
	// evidence good (promoted pages later reaccessed) and bad
	// (promoted-wasted ones).
	floor     float64
	good, bad float64
}

// refill credits tokens for the virtual time elapsed since the last
// refill, and halves the waste ledger once per elapsed decay window so
// old aborts stop indicting a pair that has recovered. Sub-byte
// remainders truncate — deterministically, since the computation is a
// pure function of (rate, elapsed).
func (b *bucket) refill(nowNs int64) {
	if nowNs <= b.lastNs {
		return
	}
	if b.rate > 0 {
		b.tokens += int64(float64(b.rate) * float64(nowNs-b.lastNs) / 1e9)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.lastNs = nowNs
	if b.winNs > 0 && nowNs-b.winAt >= b.winNs {
		k := (nowNs - b.winAt) / b.winNs
		b.winAt += k * b.winNs
		if k > 62 {
			k = 62
		}
		b.moved >>= uint(k)
		b.wasted >>= uint(k)
	}
}

// debit charges n bytes, clamping debt at one burst so a storm of
// waste penalties cannot dig a hole the pair never climbs out of.
func (b *bucket) debit(n int64) {
	b.tokens -= n
	if b.tokens < -b.burst {
		b.tokens = -b.burst
	}
}

// Controller holds the admission state for one engine: an N×N matrix
// of pair buckets with their floors, and the per-class tallies. The
// per-page cool-down is not held here: the engine keeps each page's
// Cooldown beside the page, and the controller supplies the rule
// (NotePageMove stamps, PageAllowed judges). Not safe for concurrent
// use. No method draws randomness or reads the wall clock, so results
// are bit-identical across runs.
type Controller struct {
	pairs []bucket // n*n, indexed src*n + dst
	n     int
	// learn adapts each pair's floor to its hindsight verdicts.
	learn bool
	// lanes turns on the traffic-class lanes (see NewController).
	lanes bool
	// cls tracks per-traffic-class admission activity for the lane
	// watchdog and the per-class Result breakdowns.
	cls [NumClasses]ClassStat
	// intervalNs is the engine's interval length (SetInterval), needed
	// to convert observed per-interval demand into a refill rate and to
	// size the per-page cool-down.
	intervalNs int64
}

// ClassStat tracks one traffic class's admission activity: per-interval
// tallies for the starvation watchdog, lifetime totals exported in
// Result, and the watchdog's firings.
type ClassStat struct {
	reqs, admits  int64 // this interval (watchdog inputs)
	waitIntervals int   // consecutive fully-refused intervals

	ClassCounts
	Starvations int64 // watchdog firings
}

// ClassCounts is one traffic class's lifetime admission activity, the
// per-class block of Result's lane breakdown.
type ClassCounts struct {
	Requests int64 // admission checks
	Admits   int64
	Defers   int64
	Bytes    int64 // admitted bytes
}

// Starvation reports one starvation-watchdog firing: a critical traffic
// class went Waited consecutive intervals with requests but no admits.
type Starvation struct {
	Class  Class
	Waited int
}

// NewController builds a controller for n nodes. Pair budgets start
// unbounded (rate 0, no enforcement) until SetRate is called.
//
// learn turns on online per-pair promotion floors: each pair's floor
// starts at MinROI and is adjusted at interval end from realized
// hindsight verdicts (NoteOutcome).
//
// lanes turns on traffic-class priority lanes. Lanes give health drain
// and emergency demotion strict priority over normal migration traffic:
// a reserved slice of every pair's rated burst (ReserveFrac) is
// spendable only by the drain lane, and a watchdog reports a critical
// class starved for more than WatchdogIntervals consecutive intervals.
// Lanes also make the budgets bind: each pair's refill rate is scaled to
// its observed traffic volume (DemandMult). Without lanes, drain and
// emergency traffic bypass admission entirely.
func NewController(n int, learn, lanes bool) *Controller {
	c := &Controller{
		pairs: make([]bucket, n*n),
		n:     n,
		learn: learn,
		lanes: lanes,
	}
	for i := range c.pairs {
		c.pairs[i].floor = MinROI
	}
	return c
}

func (c *Controller) pair(src, dst int) *bucket {
	if src < 0 || dst < 0 || src >= c.n || dst >= c.n || src == dst {
		return nil
	}
	return &c.pairs[src*c.n+dst]
}

// SetRate fixes a pair's refill rate (bytes per virtual second) and
// burst capacity. The bucket starts full so the first interval is not
// artificially starved.
func (c *Controller) SetRate(src, dst int, bytesPerSec, burst int64) {
	b := c.pair(src, dst)
	if b == nil {
		return
	}
	b.rate = bytesPerSec
	b.burst = burst
	b.tokens = burst
	b.statRate = bytesPerSec
	b.statBurst = burst
	if bytesPerSec > 0 {
		b.winNs = burst * int64(time.Second) / bytesPerSec
	}
}

// SetInterval tells the controller the engine's interval length in
// virtual nanoseconds. The per-page cool-down lasts two intervals, and
// demand-scaled refill needs it to convert observed per-interval volume
// into a rate.
func (c *Controller) SetInterval(ns int64) { c.intervalNs = ns }

// Tokens reports a pair's balance after refilling to nowNs.
func (c *Controller) Tokens(src, dst int, nowNs int64) int64 {
	b := c.pair(src, dst)
	if b == nil {
		return 0
	}
	b.refill(nowNs)
	return b.tokens
}

// AdmitClass prices one planned move of up to bytes from src to dst in
// the given traffic class and returns the verdict with full evidence.
// pageSize aligns the granted allowance; roi is the caller's estimate
// (see ROI). Normal traffic passes every gate against the pair's
// effective floor (learned when learning is on). Drain traffic skips the
// ROI gates and waste shedding — evacuating a dying tier is not optional
// — and may draw on the reserved bandwidth slice on top of the pair's
// tokens.
// Emergency traffic is admitted unconditionally: refusing the demotion
// that prevents an OOM is never the right trade.
func (c *Controller) AdmitClass(cl Class, src, dst int, dir Direction, roi float64, bytes, pageSize, nowNs int64) Decision {
	d := Decision{ROI: roi}
	s := &c.cls[cl]
	s.reqs++
	s.Requests++
	b := c.pair(src, dst)
	if b == nil || bytes <= 0 || cl == ClassEmergency {
		if b != nil {
			b.refill(nowNs)
			d.BudgetBytes = b.tokens
		}
		d.Verdict, d.Rule, d.AllowedBytes = VerdictAdmit, RuleAdmitted, bytes
		s.admits++
		s.Admits++
		s.Bytes += bytes
		return d
	}
	b.refill(nowNs)
	d.BudgetBytes = b.tokens
	if cl == ClassNormal {
		if dir == DirDemote {
			if roi > MaxVictimROI {
				d.Verdict, d.Rule, d.Threshold = VerdictReject, RuleVictimHot, MaxVictimROI
				return d
			}
		} else {
			floor := b.floor
			d.Floor = floor
			if roi < floor {
				d.Verdict, d.Rule, d.Threshold = VerdictReject, RuleLowROI, floor
				return d
			}
			// Budget pressure: below the low-water mark only clearly
			// profitable promotions spend what's left; marginal ones wait.
			if low := int64(LowWaterFrac * float64(b.burst)); b.tokens < low {
				if need := floor * PressureFactor; roi < need {
					d.Verdict, d.Rule, d.Threshold = VerdictDefer, RuleShed, need
					s.Defers++
					return d
				}
			}
		}
		// Waste shedding: a pair whose recent attempts mostly aborted stops
		// accepting moves until the ledger decays. The wasted ≥ pageSize
		// guard is the half-open probe — once decay brings the ledger under
		// one page, a single move is admitted to test the pair.
		if w := b.moved + b.wasted; w > 0 && (pageSize <= 0 || b.wasted >= pageSize) {
			if ratio := float64(b.wasted) / float64(w); ratio >= WasteCutoff {
				d.Verdict, d.Rule, d.Threshold = VerdictDefer, RuleWaste, WasteCutoff
				s.Defers++
				return d
			}
		}
	}
	avail := b.tokens
	if cl == ClassDrain && c.lanes {
		// The reserve: a slice of the rated burst only critical lanes may
		// spend, sized so drain always makes progress even when normal
		// traffic has drained the bucket (or driven it into debt).
		avail += int64(ReserveFrac * float64(b.statBurst))
	}
	allowed := bytes
	if b.rate > 0 && avail < allowed {
		allowed = avail
	}
	if pageSize > 0 {
		allowed -= allowed % pageSize
	}
	if allowed <= 0 || (pageSize > 0 && allowed < pageSize) {
		d.Verdict, d.Rule = VerdictDefer, RuleBudget
		s.Defers++
		return d
	}
	d.Verdict, d.Rule, d.AllowedBytes = VerdictAdmit, RuleAdmitted, allowed
	s.admits++
	s.Admits++
	s.Bytes += allowed
	return d
}

// Commit debits a committed move's bytes from its pair's bucket.
func (c *Controller) Commit(src, dst int, bytes, nowNs int64) {
	b := c.pair(src, dst)
	if b == nil {
		return
	}
	b.refill(nowNs)
	b.debit(bytes)
	b.moved += bytes
	b.intBytes += bytes
}

// Waste debits an aborted move's bytes at the waste-penalty multiple:
// the feedback loop that makes a failing pair shed its own load.
func (c *Controller) Waste(src, dst int, bytes, nowNs int64) {
	b := c.pair(src, dst)
	if b == nil {
		return
	}
	b.refill(nowNs)
	b.debit(bytes + int64(WastePenalty*float64(bytes)))
	b.wasted += bytes
	b.intBytes += bytes
}

// Charge debits background traffic — shadow sync, profiling — against
// the pair's bucket without touching the waste ledger (background bytes
// are neither committed migrations nor aborts, and must not dilute the
// waste ratio). This is what makes the budget bind: every byte the pair
// moves for any reason competes for the same tokens.
func (c *Controller) Charge(src, dst int, bytes, nowNs int64) {
	b := c.pair(src, dst)
	if b == nil || bytes <= 0 {
		return
	}
	b.refill(nowNs)
	b.debit(bytes)
	b.intBytes += bytes
}

// ResetWasteWindow clears a pair's waste ledger and restarts its decay
// window at nowNs — the breaker half-open hook: the open period froze
// the ledger (no refill calls, no decay), so the pre-trip aborts would
// otherwise re-shed the recovering pair the moment it is probed.
func (c *Controller) ResetWasteWindow(src, dst int, nowNs int64) {
	b := c.pair(src, dst)
	if b == nil {
		return
	}
	b.moved, b.wasted = 0, 0
	b.winAt = nowNs
}

// ZeroBudget empties a pair's bucket and restarts its refill clock at
// nowNs — the circuit-breaker hook: a pair whose breaker just tripped
// must re-earn its budget from nothing.
func (c *Controller) ZeroBudget(src, dst int, nowNs int64) {
	b := c.pair(src, dst)
	if b == nil {
		return
	}
	if b.tokens > 0 {
		b.tokens = 0
	}
	b.lastNs = nowNs
}

// Cooldown is one page's hysteresis stamp: the virtual time its
// cool-down ends and the direction of the committed move that set it,
// packed into one word (untilNs<<1 | dir) so the engine can keep it
// beside the page. The zero Cooldown is a page that never moved; its
// window ended at time zero.
type Cooldown int64

// Until returns the virtual time the cool-down ends.
func (s Cooldown) Until() int64 { return int64(s) >> 1 }

// Dir returns the direction of the move that set the stamp.
func (s Cooldown) Dir() Direction { return Direction(s & 1) }

// PageAllowed reports whether a page carrying stamp s may move in dir
// at nowNs. The check happens at read time, so nothing has to expire a
// stamp ahead of it: a window that has ended allows every move, and
// moves continuing in the page's last direction are always allowed —
// hysteresis only blocks reversals, the ping-pong signature.
func (c *Controller) PageAllowed(s Cooldown, dir Direction, nowNs int64) bool {
	return nowNs >= s.Until() || s.Dir() == dir
}

// NotePageMove returns the stamp a committed move in dir at nowNs leaves
// on its page, replacing any earlier one. The cool-down lasts two
// intervals.
func (c *Controller) NotePageMove(dir Direction, nowNs int64) Cooldown {
	return Cooldown((nowNs+2*c.intervalNs)<<1 | int64(dir))
}

// NoteOutcome feeds one resolved hindsight verdict for a promotion
// through the pair into the online learner: reaccessed means the
// promoted page was touched again before the horizon (the move paid),
// otherwise it was promoted-wasted. No-op unless learning is on.
func (c *Controller) NoteOutcome(src, dst int, reaccessed bool) {
	b := c.pair(src, dst)
	if !c.learn || b == nil {
		return
	}
	if reaccessed {
		b.good++
	} else {
		b.bad++
	}
}

// MinROIFor reports the pair's effective promotion floor: the learned
// floor when learning is on, the static MinROI otherwise.
func (c *Controller) MinROIFor(src, dst int) float64 {
	if b := c.pair(src, dst); b != nil {
		return b.floor
	}
	return MinROI
}

// ClassStats returns one traffic class's lifetime admission counters.
func (c *Controller) ClassStats(cl Class) ClassStat {
	if int(cl) >= NumClasses {
		return ClassStat{}
	}
	return c.cls[cl]
}

// Starvations sums the starvation-watchdog firings over every class.
func (c *Controller) Starvations() int64 {
	var n int64
	for i := range c.cls {
		n += c.cls[i].Starvations
	}
	return n
}

// EndInterval runs the controller's once-per-interval work and returns
// any starvation-watchdog firings:
//
//   - Demand-scaled refill (lanes mode): each pair's refill rate for
//     the next interval tracks an EMA of its observed traffic, clamped
//     to [statRate/64, statRate]. At simulation scale the rated link
//     bandwidth dwarfs actual migration volume, so a statically-rated
//     bucket never empties and the budget never binds; scaling the
//     refill to DemandMult× observed volume makes headroom scarce
//     enough that the low-water, budget, and reserve mechanisms engage.
//   - Learner adaptation: each pair with at least EvidenceFloor
//     resolved verdicts moves its floor one bounded multiplicative step
//     — up when the promoted-wasted share exceeds TargetWaste, down
//     otherwise — then halves its evidence so old verdicts fade.
//     Below the evidence floor the tallies accumulate untouched: the
//     floor freezes rather than wandering on noise.
//   - Starvation watchdog (lanes mode): a critical class (drain,
//     emergency) that saw requests but zero admits for more than
//     WatchdogIntervals consecutive intervals yields a Starvation
//     record; the caller turns it into a typed event and metric.
//
// Pure function of controller state and nowNs — fixed iteration order,
// no maps, no clock — so it is bit-identical across runs.
func (c *Controller) EndInterval(nowNs int64) []Starvation {
	if c.lanes && c.intervalNs > 0 {
		for i := range c.pairs {
			b := &c.pairs[i]
			if b.statRate <= 0 {
				continue
			}
			b.refill(nowNs) // settle the elapsed interval at the old rate
			if b.ema == 0 && b.intBytes > 0 {
				b.ema = b.intBytes
			} else {
				b.ema += (b.intBytes - b.ema) / 8
			}
			b.intBytes = 0
			rate := int64(DemandMult * float64(b.ema) * 1e9 / float64(c.intervalNs))
			if min := b.statRate / 64; rate < min {
				rate = min
			}
			if rate < 1 {
				rate = 1
			}
			if rate > b.statRate {
				rate = b.statRate
			}
			b.rate = rate
			b.burst = int64(float64(rate) * BurstIntervals * float64(c.intervalNs) / 1e9)
			if b.burst < 1 {
				b.burst = 1
			}
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	if c.learn {
		for i := range c.pairs {
			b := &c.pairs[i]
			n := b.good + b.bad
			if n < EvidenceFloor {
				continue // frozen: not enough evidence to adapt on
			}
			if b.bad/n > TargetWaste {
				b.floor *= 1 + LearnStep
			} else {
				b.floor *= 1 - LearnStep
			}
			if b.floor < LearnMin {
				b.floor = LearnMin
			}
			if b.floor > LearnMax {
				b.floor = LearnMax
			}
			b.good /= 2
			b.bad /= 2
		}
	}
	var fired []Starvation
	if c.lanes {
		for cl := ClassDrain; cl <= ClassEmergency; cl++ {
			s := &c.cls[cl]
			switch {
			case s.reqs > 0 && s.admits == 0:
				s.waitIntervals++
				if s.waitIntervals > WatchdogIntervals {
					fired = append(fired, Starvation{Class: cl, Waited: s.waitIntervals})
					s.Starvations++
					s.waitIntervals = 0
				}
			case s.admits > 0:
				s.waitIntervals = 0
			}
		}
	}
	for i := range c.cls {
		c.cls[i].reqs, c.cls[i].admits = 0, 0
	}
	return fired
}
