package sim

import (
	"strconv"
	"testing"
	"time"

	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// TestSpanHelpersLandInExport: the engine's span helpers record into the
// tracer and the export.
func TestSpanHelpersLandInExport(t *testing.T) {
	e := NewEngine(tier.OptaneTopology(256), 1)
	tr := e.EnableSpans(span.Config{})
	e.SpanBegin("test", "outer", span.I("k", 1))
	e.SpanEvent("test", "inner")
	e.SpanEnd()
	if got := tr.Len(); got != 2 {
		t.Fatalf("tracer holds %d spans, want 2", got)
	}
	x := e.SpansExport()
	if x == nil || len(x.Spans) != 2 {
		t.Fatalf("export %+v, want 2 spans", x)
	}
}

// TestSpanAPIsNilSafe: with tracing disabled every Span* method is a
// no-op, not a nil dereference.
func TestSpanAPIsNilSafe(t *testing.T) {
	e := NewEngine(tier.OptaneTopology(256), 1)
	if e.SpansEnabled() {
		t.Fatal("tracing enabled by default")
	}
	e.SpanBegin("test", "x")
	e.SpanEnd()
	e.SpanEmit("test", "x", 0, 1)
	e.SpanEvent("test", "x")
	if e.SpansExport() != nil {
		t.Fatal("disabled tracer exported spans")
	}
}

// TestDisabledTracingZeroAllocs is the hot-path acceptance bound: with
// Config.Trace unset, the per-access path and the no-op Span* entry points
// must not allocate at all.
func TestDisabledTracingZeroAllocs(t *testing.T) {
	e := NewEngine(tier.OptaneTopology(256), 1)
	e.SetSolution(noopSolution{})
	v := e.AS.Alloc("x", 4*vm.HugePageSize)
	e.Access(v, 0, 1, 0, 0) // pre-fault so the steady-state path is measured
	if n := testing.AllocsPerRun(100, func() {
		e.Access(v, 0, 8, 2, 0)
	}); n != 0 {
		t.Errorf("Access allocates %.1f per op with tracing disabled", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.SpanBegin("test", "x")
		e.SpanEnd()
		e.SpanEmit("test", "x", 0, 1)
		e.SpanEvent("test", "x")
	}); n != 0 {
		t.Errorf("no-op span calls allocate %.1f per op", n)
	}
	// With attributes: a string built at run time, an integer above the
	// runtime's preboxed small values, and a float would each box if the
	// payload were converted to an interface before the tracer's nil
	// check.
	name := v.Name + "-" + strconv.Itoa(e.Intervals+7)
	if n := testing.AllocsPerRun(100, func() {
		e.SpanBegin("test", "x", span.S("vma", name), span.I("pages", 4096), span.F("whi", 1.5))
		e.SpanEnd(span.I("bytes", 1<<21), span.F("ratio", 0.25))
		e.SpanEmit("test", "x", 0, 1, span.S("vma", name), span.I("shard", 300))
		e.SpanEvent("test", "x", span.S("dst", name), span.I("page", 1000), span.F("threshold", 2.5))
	}); n != 0 {
		t.Errorf("no-op span calls with attributes allocate %.1f per op", n)
	}
	// The engine's event entry points, with both sinks off.
	events := func() {
		e.NoteDeferredPromotionTo(0)
		e.emitEventOnce(EventThrashSuppressed, e.pair(0, 2).name, 1)
	}
	if n := testing.AllocsPerRun(100, events); n != 0 {
		t.Errorf("events with both sinks off allocate %.1f per op", n)
	}
	// With metrics on and tracing off, a deduplicated event's repeat
	// within the interval writes no ring row and allocates nothing.
	e.EnableMetrics()
	e.Interval = time.Second
	e.beginInterval()
	events()
	if n := testing.AllocsPerRun(100, events); n != 0 {
		t.Errorf("repeated deduplicated events allocate %.1f per op", n)
	}
	if got := len(e.Metrics().Events()); got != 2 {
		t.Errorf("ring holds %d rows, want 2", got)
	}
}

// noopSolution satisfies Solution for engine-level tests.
type noopSolution struct{}

func (noopSolution) Name() string { return "noop" }
func (noopSolution) Place(e *Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return e.Sys.FirstFit(e.Sys.Topo.View(socket), v.PageSize)
}
func (noopSolution) IntervalStart(*Engine) {}
func (noopSolution) IntervalEnd(*Engine)   {}
