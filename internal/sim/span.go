package sim

import (
	"time"

	"mtm/internal/span"
)

// Span tracing: the engine owns an optional span.Tracer recording the
// causally-linked pipeline of every interval (interval → per-shard
// profile scans → plan/decisions → migration → per-tier-pair transfers →
// emergency events) in virtual time. Spans are emitted in program order
// on the interval loop, which keeps the trace a pure function of the
// simulated execution.
//
// The helpers below are nil-safe no-ops when tracing is disabled, but
// call sites that build attribute lists must branch on SpansEnabled
// first: the variadic slice is allocated by the caller, and the
// zero-allocation guarantee for disabled tracing (see
// TestSpanHelpersZeroAllocDisabled) depends on not constructing it.

// EnableSpans attaches a span tracer to the engine (idempotent) and
// returns it. The tracer starts at interval -1, covering setup work
// before the first profiling interval.
func (e *Engine) EnableSpans(cfg span.Config) *span.Tracer {
	if e.sp == nil {
		e.sp = span.New(cfg)
	}
	return e.sp
}

// SpansEnabled reports whether span tracing is active. Sites that build
// attribute lists must check it before constructing them.
func (e *Engine) SpansEnabled() bool { return e.sp != nil }

// SpansExport snapshots the trace for Result embedding; nil when tracing
// is disabled.
func (e *Engine) SpansExport() *span.Export { return e.sp.Export() }

// SpanClockNs is the virtual timestamp for span emission during an
// interval: the committed clock plus the time this interval has
// accumulated so far (normalised app time, then profiling, then
// migration — the order endInterval advances the clock in). It is a pure
// function of engine accounting state.
func (e *Engine) SpanClockNs() int64 {
	return int64(e.clock + e.AppTimeThisInterval() + e.intProf + e.intMig)
}

// SpanBegin opens a span at the current virtual timestamp.
func (e *Engine) SpanBegin(cat, name string, attrs ...span.Attr) {
	if e.sp == nil {
		return
	}
	e.sp.Begin(cat, name, e.SpanClockNs(), attrs...)
}

// SpanEnd closes the innermost open span at the current virtual
// timestamp.
func (e *Engine) SpanEnd(attrs ...span.Attr) {
	if e.sp == nil {
		return
	}
	e.sp.End(e.SpanClockNs(), attrs...)
}

// SpanEmit records a complete span with explicit start and duration —
// the shape used by the per-shard scan spans, which are laid end to end
// from the tallies of a finished pass.
func (e *Engine) SpanEmit(cat, name string, startNs, durNs int64, attrs ...span.Attr) {
	if e.sp == nil {
		return
	}
	e.sp.Emit(cat, name, startNs, durNs, attrs...)
}

// SpanEvent records an instant event at the current virtual timestamp.
func (e *Engine) SpanEvent(cat, name string, attrs ...span.Attr) {
	if e.sp == nil {
		return
	}
	e.sp.Event(cat, name, e.SpanClockNs(), attrs...)
}

// spansBeginInterval rolls the tracer to the new interval and opens its
// root span at the committed clock.
func (e *Engine) spansBeginInterval() {
	if e.sp == nil {
		return
	}
	e.sp.BeginInterval(e.Intervals)
	e.sp.Begin("interval", "interval", int64(e.clock), span.I("index", int64(e.Intervals)))
}

// spansEndInterval emits the interval's three phase-summary spans (app,
// profiling, migration — laid end to end exactly as endInterval advances
// the clock) and closes the interval root. Runs before the clock
// advance, with the final accumulator values; the phase spans therefore
// reproduce the Result time breakdown exactly, which cmd/spanreport
// cross-checks.
func (e *Engine) spansEndInterval(app time.Duration) {
	if e.sp == nil {
		return
	}
	start := int64(e.clock)
	var acc int64
	for _, n := range e.intAccesses {
		acc += n
	}
	e.sp.Emit("phase", "app", start, int64(app), span.I("accesses", acc))
	e.sp.Emit("phase", "profiling", start+int64(app), int64(e.intProf))
	e.sp.Emit("phase", "migration", start+int64(app)+int64(e.intProf), int64(e.intMig),
		span.I("promoted_bytes", e.intPromoted),
		span.I("demoted_bytes", e.intDemoted),
		span.I("background_ns", int64(e.intBg)))
	e.sp.CloseAll(start + int64(app) + int64(e.intProf) + int64(e.intMig))
}
