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

import (
	"fmt"
	"time"
)

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

// Config tunes the admission layer. The zero value selects defaults
// via WithDefaults; negative values disable the respective gate.
type Config struct {
	// BudgetFrac is the fraction of a tier pair's rated link bandwidth
	// granted to migration, the token refill rate. Default 0.25.
	BudgetFrac float64
	// BurstIntervals sizes each bucket's burst capacity in multiples of
	// one interval's refill; the burst also sets the waste ledger's
	// decay window. Default 6.
	BurstIntervals float64
	// MinROI is the admission threshold for promotions: estimated
	// stall-time saved divided by copy cost. Default 0.1 — lenient,
	// because profiler hotness scales differ per policy (MTM reports
	// per-page access averages, HeMem raw PEBS sample counts). ROI ≥ 1
	// means the move pays for itself within HorizonIntervals.
	// Negative disables the ROI gate.
	MinROI float64
	// MaxVictimROI rejects demotion victims whose own ROI (the benefit
	// of *keeping* them fast) still exceeds this bound. Default 64.
	// Negative disables the victim gate.
	MaxVictimROI float64
	// HorizonIntervals is the retention horizon the ROI estimator
	// assumes: how many future intervals a moved page keeps its current
	// access rate. Default 32.
	HorizonIntervals float64
	// PressureFactor multiplies MinROI while a bucket sits below its
	// low-water mark, shedding marginal promotions. Default 4.
	PressureFactor float64
	// LowWaterFrac is the bucket fill fraction below which shedding
	// kicks in. Default 0.25.
	LowWaterFrac float64
	// WastePenalty is the extra budget debit charged per wasted byte:
	// an aborted move costs (1 + WastePenalty) times its bytes, so a
	// flaky pair throttles itself. Default 4. Negative disables the
	// penalty (aborts still debit their own bytes).
	WastePenalty float64
	// WasteCutoff is the pair waste ratio — aborted bytes over attempted
	// bytes, decayed with a sliding window of one burst — above which
	// further moves through the pair defer ("waste-shed"). The decay
	// doubles as a half-open probe: once the decayed waste falls below
	// one page, a single move is let through to test whether the pair
	// has recovered. Default 0.5. Negative disables waste shedding.
	WasteCutoff float64
	// CoolDown is the per-page hysteresis window after a committed
	// move, during which the page may not move in the opposite
	// direction. Zero lets the engine default it to two intervals.
	// Negative disables thrash suppression.
	CoolDown time.Duration
	// Learn enables online per-pair MinROI floors: each pair's
	// promotion floor is adjusted at interval end from realized
	// hindsight verdicts (NoteOutcome) instead of staying at the static
	// MinROI. The static MinROI seeds every floor.
	Learn bool
	// LearnStep bounds one interval's floor adjustment: the floor is
	// multiplied by (1 ± LearnStep). Default 0.25.
	LearnStep float64
	// EvidenceFloor is the minimum number of resolved verdicts a pair
	// must accumulate before its floor adapts; below it the floor
	// freezes (evidence carries over, it is not discarded). Default 4.
	EvidenceFloor int
	// TargetWaste is the tolerated promoted-wasted share of resolved
	// verdicts: above it the floor rises, at or below it the floor
	// falls back toward admitting more. Default 0.25.
	TargetWaste float64
	// LearnMin / LearnMax clamp the learned floor. Defaults MinROI/4
	// and MinROI*64.
	LearnMin float64
	LearnMax float64
	// Lanes configures traffic-class priority lanes (see LaneConfig).
	// The zero value disables lanes: drain and emergency traffic then
	// bypass admission entirely, as before.
	Lanes LaneConfig
}

// WithDefaults fills zero fields with the documented defaults.
// Negative sentinels are clamped to "disabled" (zero thresholds).
func (c Config) WithDefaults() Config {
	if c.BudgetFrac == 0 {
		c.BudgetFrac = 0.25
	}
	if c.BurstIntervals == 0 {
		c.BurstIntervals = 6
	}
	if c.MinROI == 0 {
		c.MinROI = 0.1
	} else if c.MinROI < 0 {
		c.MinROI = 0
	}
	if c.MaxVictimROI == 0 {
		c.MaxVictimROI = 64
	}
	if c.HorizonIntervals == 0 {
		c.HorizonIntervals = 32
	}
	if c.PressureFactor == 0 {
		c.PressureFactor = 4
	}
	if c.LowWaterFrac == 0 {
		c.LowWaterFrac = 0.25
	}
	if c.WastePenalty == 0 {
		c.WastePenalty = 4
	} else if c.WastePenalty < 0 {
		c.WastePenalty = 0
	}
	if c.WasteCutoff == 0 {
		c.WasteCutoff = 0.5
	} else if c.WasteCutoff < 0 {
		c.WasteCutoff = 2 // a ratio can never exceed 1: disabled
	}
	if c.LearnStep == 0 {
		c.LearnStep = 0.25
	}
	if c.EvidenceFloor == 0 {
		c.EvidenceFloor = 4
	}
	if c.TargetWaste == 0 {
		c.TargetWaste = 0.25
	}
	if c.LearnMin == 0 {
		c.LearnMin = c.MinROI / 4
	}
	if c.LearnMax == 0 {
		c.LearnMax = c.MinROI * 64
	}
	c.Lanes = c.Lanes.WithDefaults()
	return c
}

// Validate bounds-checks the learner and lane knobs on a raw
// (pre-defaults) config. Zero values are valid — they select defaults.
func (c Config) Validate() error {
	if c.LearnStep < 0 || c.LearnStep >= 1 {
		return fmt.Errorf("admission: learn-step %v outside [0, 1)", c.LearnStep)
	}
	if c.EvidenceFloor < 0 {
		return fmt.Errorf("admission: evidence-floor %d negative", c.EvidenceFloor)
	}
	if c.TargetWaste < 0 || c.TargetWaste >= 1 {
		return fmt.Errorf("admission: target-waste %v outside [0, 1)", c.TargetWaste)
	}
	if c.LearnMin < 0 || c.LearnMax < 0 {
		return fmt.Errorf("admission: learn floor clamps must be non-negative")
	}
	if c.LearnMin > 0 && c.LearnMax > 0 && c.LearnMin > c.LearnMax {
		return fmt.Errorf("admission: learn-min %v exceeds learn-max %v", c.LearnMin, c.LearnMax)
	}
	return c.Lanes.Validate()
}

// ROI estimates the return on investment of moving one page: the stall
// nanoseconds the move is expected to save over the retention horizon,
// divided by the nanoseconds the copy costs. whi is the profiler's
// weighted hotness (accesses per page per interval on whatever scale
// the active policy uses), reaccess the evidence-based likelihood the
// page stays hot (see the engine's reaccess grading), horizon the
// assumed retention in intervals, gapNs the per-access latency gap
// between source and destination, and copyNsPerPage the copy cost.
func ROI(whi, reaccess, horizon, gapNs, copyNsPerPage float64) float64 {
	if copyNsPerPage <= 0 || whi <= 0 {
		return 0
	}
	return whi * reaccess * horizon * gapNs / copyNsPerPage
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

// cooldown is one page's hysteresis state: until when, and in which
// direction the page last moved (same-direction moves stay allowed).
type cooldown struct {
	untilNs int64
	dir     Direction
}

// Controller holds the admission state for one engine: an N×N matrix
// of pair buckets and the per-page cool-down table. Not safe for
// concurrent use. No method draws randomness or reads the wall clock,
// and the cool-down map is never iterated, so results are
// bit-identical across runs.
type Controller struct {
	cfg   Config
	pairs []bucket // n*n, indexed src*n + dst
	n     int
	cool  map[uint64]cooldown
	// coolQ records stamps in commit order so Prune can expire old map
	// entries without iterating the map (map iteration order would leak
	// into behaviour). coolHead is the consumed prefix.
	coolQ    []coolEntry
	coolHead int
	// learn holds per-pair learned floors and their evidence tallies
	// (src*n + dst, like pairs); nil unless Config.Learn.
	learn []learner
	// cls tracks per-traffic-class admission activity for the lane
	// watchdog and the per-class Result breakdowns.
	cls [NumClasses]ClassStat
	// intervalNs is the engine's interval length (SetInterval), needed
	// to convert observed per-interval demand into a refill rate.
	intervalNs int64
}

// learner is one pair's online MinROI state: the current floor plus the
// decaying hindsight evidence it adapts on. good counts promoted pages
// later reaccessed, bad counts promoted-wasted ones.
type learner struct {
	floor     float64
	good, bad float64
}

// ClassStat tracks one traffic class's admission activity: per-interval
// tallies for the starvation watchdog, and lifetime totals exported in
// Result.
type ClassStat struct {
	reqs, admits  int64 // this interval (watchdog inputs)
	waitIntervals int   // consecutive fully-refused intervals

	Requests    int64 // lifetime admission checks
	Admits      int64
	Defers      int64
	Bytes       int64 // lifetime admitted bytes
	Starvations int64 // watchdog firings
}

// Starvation reports one starvation-watchdog firing: a critical traffic
// class went Waited consecutive intervals with requests but no admits.
type Starvation struct {
	Class  Class
	Waited int
}

// coolEntry is one queued cool-down stamp. A page re-stamped later has a
// newer untilNs in the map than in this record; Prune only deletes the
// map entry when the two agree, so re-stamped pages survive until their
// newest record expires.
type coolEntry struct {
	key     uint64
	untilNs int64
}

// NewController builds a controller for n nodes. Pair budgets start
// unbounded (rate 0, no enforcement) until SetRate is called.
func NewController(cfg Config, n int) *Controller {
	c := &Controller{
		cfg:   cfg.WithDefaults(),
		pairs: make([]bucket, n*n),
		n:     n,
		cool:  make(map[uint64]cooldown),
	}
	if c.cfg.Learn {
		c.learn = make([]learner, n*n)
		for i := range c.learn {
			c.learn[i].floor = c.cfg.MinROI
		}
	}
	return c
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

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
// virtual nanoseconds; demand-scaled refill needs it to convert
// observed per-interval volume into a rate.
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

// WasteRatio reports the pair's aborted share of attempted bytes.
func (c *Controller) WasteRatio(src, dst int) float64 {
	b := c.pair(src, dst)
	if b == nil || b.moved+b.wasted == 0 {
		return 0
	}
	return float64(b.wasted) / float64(b.moved+b.wasted)
}

// Admit prices one planned move of up to bytes from src to dst and
// returns the verdict with full evidence. pageSize aligns the granted
// allowance; roi is the caller's estimate (see ROI). Equivalent to
// AdmitClass with ClassNormal.
func (c *Controller) Admit(src, dst int, dir Direction, roi float64, bytes, pageSize, nowNs int64) Decision {
	return c.AdmitClass(ClassNormal, src, dst, dir, roi, bytes, pageSize, nowNs)
}

// AdmitClass prices one planned move in the given traffic class.
// Normal traffic passes every gate against the pair's effective floor
// (learned when Learn is on). Drain traffic skips the ROI gates and
// waste shedding — evacuating a dying tier is not optional — and may
// draw on the reserved bandwidth slice on top of the pair's tokens.
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
			if c.cfg.MaxVictimROI > 0 && roi > c.cfg.MaxVictimROI {
				d.Verdict, d.Rule, d.Threshold = VerdictReject, RuleVictimHot, c.cfg.MaxVictimROI
				return d
			}
		} else {
			floor := c.cfg.MinROI
			if c.learn != nil {
				floor = c.learn[src*c.n+dst].floor
			}
			d.Floor = floor
			if roi < floor {
				d.Verdict, d.Rule, d.Threshold = VerdictReject, RuleLowROI, floor
				return d
			}
			// Budget pressure: below the low-water mark only clearly
			// profitable promotions spend what's left; marginal ones wait.
			if low := int64(c.cfg.LowWaterFrac * float64(b.burst)); b.tokens < low {
				if need := floor * c.cfg.PressureFactor; roi < need {
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
			if ratio := float64(b.wasted) / float64(w); ratio >= c.cfg.WasteCutoff {
				d.Verdict, d.Rule, d.Threshold = VerdictDefer, RuleWaste, c.cfg.WasteCutoff
				s.Defers++
				return d
			}
		}
	}
	avail := b.tokens
	if cl == ClassDrain && c.cfg.Lanes.Enabled {
		// The reserve: a slice of the rated burst only critical lanes may
		// spend, sized so drain always makes progress even when normal
		// traffic has drained the bucket (or driven it into debt).
		avail += int64(c.cfg.Lanes.ReserveFrac * float64(b.statBurst))
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
	b.debit(bytes + int64(c.cfg.WastePenalty*float64(bytes)))
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

// PageAllowed reports whether a page (keyed by its address) may move
// in dir at nowNs. Expired entries are dropped; moves continuing in
// the page's last direction are always allowed — hysteresis only
// blocks reversals, the ping-pong signature.
func (c *Controller) PageAllowed(key uint64, dir Direction, nowNs int64) bool {
	e, ok := c.cool[key]
	if !ok {
		return true
	}
	if nowNs >= e.untilNs {
		delete(c.cool, key)
		return true
	}
	return e.dir == dir
}

// NotePageMove stamps a committed move's cool-down on the page.
func (c *Controller) NotePageMove(key uint64, dir Direction, nowNs int64) {
	if c.cfg.CoolDown <= 0 {
		return
	}
	until := nowNs + int64(c.cfg.CoolDown)
	c.cool[key] = cooldown{untilNs: until, dir: dir}
	c.coolQ = append(c.coolQ, coolEntry{key: key, untilNs: until})
}

// Prune drops cool-down entries expired at nowNs and returns how many it
// removed. Without it the map only sheds entries for pages that happen
// to be looked up again (PageAllowed's lazy delete), so one-shot movers
// accumulate for the whole run. Stamps are queued in commit order and
// cool-downs are a fixed length, so the queue is sorted by expiry: one
// pass over the expired prefix suffices. Behaviour-neutral by
// construction — it removes exactly the entries PageAllowed would treat
// as expired anyway.
func (c *Controller) Prune(nowNs int64) int {
	removed := 0
	for c.coolHead < len(c.coolQ) && c.coolQ[c.coolHead].untilNs <= nowNs {
		rec := c.coolQ[c.coolHead]
		c.coolHead++
		// Only delete when the map still holds this exact stamp; a
		// re-stamped page has a newer record later in the queue.
		if e, ok := c.cool[rec.key]; ok && e.untilNs == rec.untilNs {
			delete(c.cool, rec.key)
			removed++
		}
	}
	if c.coolHead == len(c.coolQ) {
		c.coolQ = c.coolQ[:0]
		c.coolHead = 0
	} else if c.coolHead >= 1024 && c.coolHead*2 >= len(c.coolQ) {
		c.coolQ = append(c.coolQ[:0], c.coolQ[c.coolHead:]...)
		c.coolHead = 0
	}
	return removed
}

// CoolSize reports the live cool-down map size (tests and telemetry).
func (c *Controller) CoolSize() int { return len(c.cool) }

// NoteOutcome feeds one resolved hindsight verdict for a promotion
// through the pair into the online learner: reaccessed means the
// promoted page was touched again before the horizon (the move paid),
// otherwise it was promoted-wasted. No-op unless Learn is on.
func (c *Controller) NoteOutcome(src, dst int, reaccessed bool) {
	if c.learn == nil || src < 0 || dst < 0 || src >= c.n || dst >= c.n || src == dst {
		return
	}
	l := &c.learn[src*c.n+dst]
	if reaccessed {
		l.good++
	} else {
		l.bad++
	}
}

// MinROIFor reports the pair's effective promotion floor: the learned
// floor when Learn is on, the static MinROI otherwise.
func (c *Controller) MinROIFor(src, dst int) float64 {
	if c.learn == nil {
		return c.cfg.MinROI
	}
	if src < 0 || dst < 0 || src >= c.n || dst >= c.n || src == dst {
		return c.cfg.MinROI
	}
	return c.learn[src*c.n+dst].floor
}

// ClassStats returns one traffic class's lifetime admission counters.
func (c *Controller) ClassStats(cl Class) ClassStat {
	if int(cl) >= NumClasses {
		return ClassStat{}
	}
	return c.cls[cl]
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
	if c.cfg.Lanes.Enabled && c.intervalNs > 0 {
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
			rate := int64(c.cfg.Lanes.DemandMult * float64(b.ema) * 1e9 / float64(c.intervalNs))
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
			b.burst = int64(float64(rate) * c.cfg.BurstIntervals * float64(c.intervalNs) / 1e9)
			if b.burst < 1 {
				b.burst = 1
			}
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	if c.learn != nil {
		for i := range c.learn {
			l := &c.learn[i]
			n := l.good + l.bad
			if n < float64(c.cfg.EvidenceFloor) {
				continue // frozen: not enough evidence to adapt on
			}
			if l.bad/n > c.cfg.TargetWaste {
				l.floor *= 1 + c.cfg.LearnStep
			} else {
				l.floor *= 1 - c.cfg.LearnStep
			}
			if l.floor < c.cfg.LearnMin {
				l.floor = c.cfg.LearnMin
			}
			if l.floor > c.cfg.LearnMax {
				l.floor = c.cfg.LearnMax
			}
			l.good /= 2
			l.bad /= 2
		}
	}
	var fired []Starvation
	if c.cfg.Lanes.Enabled {
		for cl := ClassDrain; cl <= ClassEmergency; cl++ {
			s := &c.cls[cl]
			switch {
			case s.reqs > 0 && s.admits == 0:
				s.waitIntervals++
				if s.waitIntervals > c.cfg.Lanes.WatchdogIntervals {
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
