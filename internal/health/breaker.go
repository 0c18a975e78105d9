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

// Breaker is the circuit breaker of one (src, dst) tier pair; its zero
// value is closed. The engine keeps one in each pair's record. All times
// are virtual nanoseconds supplied by the caller, which makes the
// breaker deterministic and independent of host scheduling.
type Breaker struct {
	State     BreakerState
	Consec    int   // consecutive aborts while closed
	OpenUntil int64 // virtual ns when a half-open probe becomes allowed
	Trips     int64 // lifetime trip count
}

// Allow reports whether a migration on the pair may be planned at
// virtual time nowNs. An open breaker whose cool-down has elapsed moves
// to half-open and allows the (single) probe. reopened is true exactly
// when this call moved the pair from open to half-open, the moment a
// recovering pair re-enters service. Callers use it to reset stale
// per-pair state accumulated before the trip (the admission waste
// ledger froze during the open period and would otherwise re-shed the
// pair on its first probe).
func (b *Breaker) Allow(nowNs int64) (ok, reopened bool) {
	if b.State != BreakerOpen {
		return true, false
	}
	if nowNs < b.OpenUntil {
		return false, false
	}
	b.State = BreakerHalfOpen
	return true, true
}

// RecordSuccess records a committed migration on the pair, closing a
// half-open breaker and resetting the consecutive-abort count.
func (b *Breaker) RecordSuccess() {
	b.State = BreakerClosed
	b.Consec = 0
}

// RecordAbort records an aborted migration on the pair at virtual time
// nowNs and reports whether this abort tripped the breaker, which then
// stays open for coolDownNs. A breaker that is already open absorbs
// further aborts without re-tripping, so a pair trips at most once per
// cool-down window.
func (b *Breaker) RecordAbort(nowNs, coolDownNs int64) bool {
	switch b.State {
	case BreakerOpen:
		return false
	case BreakerClosed:
		b.Consec++
		if b.Consec < TripAborts {
			return false
		}
	}
	b.State = BreakerOpen
	b.Consec = 0
	b.OpenUntil = nowNs + coolDownNs
	b.Trips++
	return true
}

// OpenAt reports whether the breaker is open (cool-down not yet elapsed)
// at virtual time nowNs. Read-only: it does not advance an open breaker
// to half-open.
func (b *Breaker) OpenAt(nowNs int64) bool {
	return b.State == BreakerOpen && nowNs < b.OpenUntil
}
