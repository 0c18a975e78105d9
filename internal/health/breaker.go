package health

// BreakerState is the classic circuit-breaker tri-state.
type BreakerState uint8

const (
	// BreakerClosed lets migrations flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects migrations until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe migration through; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// cell is the breaker state of one (src, dst) tier pair.
type cell struct {
	state     BreakerState
	consec    int   // consecutive aborts while closed
	openUntil int64 // virtual ns when a half-open probe becomes allowed
	trips     int64
}

// Breaker holds one circuit breaker per (src, dst) tier pair. All times
// are virtual nanoseconds supplied by the caller, which makes the
// breaker deterministic and independent of host scheduling.
type Breaker struct {
	coolDownNs int64
	cells      [][]cell
}

// NewBreaker creates a Breaker for an n-node machine tripping after
// TripAborts consecutive aborts and cooling down for coolDownNs.
func NewBreaker(n int, coolDownNs int64) *Breaker {
	b := &Breaker{coolDownNs: coolDownNs, cells: make([][]cell, n)}
	for i := range b.cells {
		b.cells[i] = make([]cell, n)
	}
	return b
}

// AllowAt reports whether a migration src→dst may be planned at virtual
// time nowNs. An open breaker whose cool-down has elapsed moves to
// half-open and allows the (single) probe. reopened is true exactly
// when this call moved the pair from open to half-open, the moment a
// recovering pair re-enters service. Callers use it to reset stale
// per-pair state accumulated before the trip (the admission waste
// ledger froze during the open period and would otherwise re-shed the
// pair on its first probe).
func (b *Breaker) AllowAt(src, dst int, nowNs int64) (ok, reopened bool) {
	c := &b.cells[src][dst]
	switch c.state {
	case BreakerOpen:
		if nowNs >= c.openUntil {
			c.state = BreakerHalfOpen
			return true, true
		}
		return false, false
	default:
		return true, false
	}
}

// RecordSuccess records a committed migration on the pair, closing a
// half-open breaker and resetting the consecutive-abort count.
func (b *Breaker) RecordSuccess(src, dst int) {
	c := &b.cells[src][dst]
	c.state = BreakerClosed
	c.consec = 0
}

// RecordAbort records an aborted migration on the pair at virtual time
// nowNs and reports whether this abort tripped the breaker. A breaker
// that is already open absorbs further aborts without re-tripping, so a
// pair trips at most once per cool-down window.
func (b *Breaker) RecordAbort(src, dst int, nowNs int64) bool {
	c := &b.cells[src][dst]
	switch c.state {
	case BreakerOpen:
		return false
	case BreakerHalfOpen:
		b.trip(c, nowNs)
		return true
	default:
		c.consec++
		if c.consec >= TripAborts {
			b.trip(c, nowNs)
			return true
		}
		return false
	}
}

func (b *Breaker) trip(c *cell, nowNs int64) {
	c.state = BreakerOpen
	c.consec = 0
	c.openUntil = nowNs + b.coolDownNs
	c.trips++
}

// OpenInto reports whether any breaker into dst is open (cool-down not
// yet elapsed) at virtual time nowNs. Read-only: it does not advance
// open breakers to half-open.
func (b *Breaker) OpenInto(dst int, nowNs int64) bool {
	for src := range b.cells {
		c := &b.cells[src][dst]
		if c.state == BreakerOpen && nowNs < c.openUntil {
			return true
		}
	}
	return false
}

// StateOf returns the raw breaker state of the pair without side effects.
func (b *Breaker) StateOf(src, dst int) BreakerState { return b.cells[src][dst].state }

// Consecutive returns the pair's current consecutive-abort count.
func (b *Breaker) Consecutive(src, dst int) int { return b.cells[src][dst].consec }

// OpenUntil returns the virtual ns at which the pair's breaker permits a
// half-open probe (0 if it never tripped).
func (b *Breaker) OpenUntil(src, dst int) int64 { return b.cells[src][dst].openUntil }

// Trips returns how many times the pair's breaker has tripped.
func (b *Breaker) Trips(src, dst int) int64 { return b.cells[src][dst].trips }

// TotalTrips returns the trip count summed over all pairs.
func (b *Breaker) TotalTrips() int64 {
	var n int64
	for i := range b.cells {
		for j := range b.cells[i] {
			n += b.cells[i][j].trips
		}
	}
	return n
}
