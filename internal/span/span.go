// Package span is a deterministic, virtual-clock span tracer for the
// simulation's interval pipeline. It records causally-linked spans —
// interval → per-shard profile scans → classify/plan decisions →
// migration → per-tier-pair transfers → emergency events — with
// timestamps taken from the engine's virtual clock and IDs from a
// per-interval counter, so the trace is a pure function of the simulated
// execution.
//
// All methods are nil-safe: a nil *Tracer no-ops, and a call to one
// allocates nothing, attributes included. An Attr holds its payload
// unboxed, and the tracer copies attributes into their recorded form
// (Field) instead of keeping the caller's slice, so the variadic array
// stays on the caller's stack. Call sites need no "enabled?" branch
// unless the work that builds their attributes allocates by itself.
package span

import (
	"math"
	"slices"
)

// Attr is one key/value annotation as a call site passes it: a key and
// an unboxed string, int64 or float64 payload. Construct with S, I or F.
// The tracer records it as a Field.
type Attr struct {
	Key string
	typ byte // 's', 'i' or 'f'; the zero Attr records a nil value
	str string
	num int64 // the int64 payload, or the float64 payload's bits
}

// S returns a string attribute.
func S(key, v string) Attr { return Attr{Key: key, typ: 's', str: v} }

// I returns an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, typ: 'i', num: v} }

// F returns a float attribute.
func F(key string, v float64) Attr {
	return Attr{Key: key, typ: 'f', num: int64(math.Float64bits(v))}
}

// Field is an attribute as a recorded Span holds it: Val is a string,
// int64, float64 or nil. encoding/json renders it as
// {"key":...,"value":...} with the payload's own type.
type Field struct {
	Key string `json:"key"`
	Val any    `json:"value"`
}

// record appends attrs to dst, boxing each payload; a nil dst stays nil
// without attrs.
func record(dst []Field, attrs []Attr) []Field {
	dst = slices.Grow(dst, len(attrs))
	for _, a := range attrs {
		f := Field{Key: a.Key}
		switch a.typ {
		case 's':
			f.Val = a.str
		case 'i':
			f.Val = a.num
		case 'f':
			f.Val = math.Float64frombits(uint64(a.num))
		}
		dst = append(dst, f)
	}
	return dst
}

// Span is one recorded span or instant event. Start and Dur are virtual
// nanoseconds; Instant events have Dur 0 and render as instants in the
// Chrome export.
type Span struct {
	ID       uint64  `json:"id"`
	Parent   uint64  `json:"parent,omitempty"`
	Interval int     `json:"interval"`
	Cat      string  `json:"cat"`
	Name     string  `json:"name"`
	Start    int64   `json:"ts_ns"`
	Dur      int64   `json:"dur_ns"`
	Instant  bool    `json:"instant,omitempty"`
	Attrs    []Field `json:"attrs,omitempty"`
}

// Config bounds the tracer.
type Config struct {
	// MaxSpans caps the recorded span count; the first MaxSpans spans are
	// kept and the rest are counted in the export's Dropped field (the
	// same first-N policy as the metrics event ring, so the kept prefix
	// is deterministic). 0 selects DefaultMaxSpans.
	MaxSpans int
}

// DefaultMaxSpans bounds a trace to a workable file size while holding
// every span of the evaluation-scale runs.
const DefaultMaxSpans = 1 << 17

// Tracer records spans. Not safe for concurrent use: like the engine it
// serves, it belongs to one run's goroutine.
type Tracer struct {
	max      int
	meta     map[string]string
	spans    []Span
	dropped  int64
	interval int
	seq      uint32
	stack    []int // indices of open spans; -1 marks a dropped open
}

// New creates a tracer positioned at interval -1 (the setup phase before
// the first profiling interval).
func New(cfg Config) *Tracer {
	max := cfg.MaxSpans
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Tracer{max: max, meta: map[string]string{}, interval: -1}
}

// SetMeta records a trace-level key/value (solution, workload, seed);
// exported in the JSONL header and the Chrome metadata events.
func (t *Tracer) SetMeta(key, value string) {
	if t == nil {
		return
	}
	t.meta[key] = value
}

// BeginInterval advances the tracer to the given profiling interval and
// restarts the per-interval ID counter, making span IDs a pure function
// of (interval, emission order).
func (t *Tracer) BeginInterval(interval int) {
	if t == nil {
		return
	}
	t.interval = interval
	t.seq = 0
}

// nextID returns the next deterministic span ID: the interval (offset so
// the setup phase is 0) in the high 32 bits, the per-interval sequence in
// the low.
func (t *Tracer) nextID() uint64 {
	t.seq++
	return uint64(uint32(t.interval+1))<<32 | uint64(t.seq)
}

// parentID is the innermost open, kept span.
func (t *Tracer) parentID() uint64 {
	for j := len(t.stack) - 1; j >= 0; j-- {
		if t.stack[j] >= 0 {
			return t.spans[t.stack[j]].ID
		}
	}
	return 0
}

func (t *Tracer) push(sp Span) int {
	if len(t.spans) >= t.max {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, sp)
	return len(t.spans) - 1
}

// Begin opens a span at startNs; close it with End. Spans nest: a Begin
// inside an open span records that span as its parent.
func (t *Tracer) Begin(cat, name string, startNs int64, attrs ...Attr) {
	if t == nil {
		return
	}
	sp := Span{
		ID: t.nextID(), Parent: t.parentID(), Interval: t.interval,
		Cat: cat, Name: name, Start: startNs, Attrs: record(nil, attrs),
	}
	t.stack = append(t.stack, t.push(sp))
}

// End closes the innermost open span at endNs, appending any extra
// attributes. Without an open span it no-ops.
func (t *Tracer) End(endNs int64, attrs ...Attr) {
	if t == nil {
		return
	}
	if len(t.stack) == 0 {
		return
	}
	idx := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if idx < 0 {
		return
	}
	sp := &t.spans[idx]
	if d := endNs - sp.Start; d > 0 {
		sp.Dur = d
	}
	sp.Attrs = record(sp.Attrs, attrs)
}

// Emit records a complete span (start and duration known up front),
// parented to the innermost open span.
func (t *Tracer) Emit(cat, name string, startNs, durNs int64, attrs ...Attr) {
	if t == nil {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	t.push(Span{
		ID: t.nextID(), Parent: t.parentID(), Interval: t.interval,
		Cat: cat, Name: name, Start: startNs, Dur: durNs, Attrs: record(nil, attrs),
	})
}

// Event records an instant event at atNs, parented to the innermost open
// span.
func (t *Tracer) Event(cat, name string, atNs int64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.push(Span{
		ID: t.nextID(), Parent: t.parentID(), Interval: t.interval,
		Cat: cat, Name: name, Start: atNs, Instant: true, Attrs: record(nil, attrs),
	})
}

// CloseAll ends every open span at endNs — the interval boundary's
// defensive sweep, closing the interval root and any straggler a panic
// or early return left open.
func (t *Tracer) CloseAll(endNs int64) {
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		t.End(endNs)
	}
}

// Len returns the number of recorded (kept) spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Dropped returns how many spans the MaxSpans cap discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Export snapshots the trace for serialisation. Nil on a nil tracer.
func (t *Tracer) Export() *Export {
	if t == nil {
		return nil
	}
	meta := make(map[string]string, len(t.meta))
	for k, v := range t.meta {
		meta[k] = v
	}
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	return &Export{Meta: meta, Spans: spans, Dropped: t.dropped}
}
