// Package metrics is the simulator's in-process observability layer: a
// deterministic registry of counters, gauges and fixed-bucket histograms,
// plus a bounded ring of structured events (migration aborts, OOM
// emergencies, fault activations, admission-control deferrals).
//
// The design constraints come from the simulation engine it serves:
//
//   - Zero allocation on the hot path. Instruments are registered once
//     (at engine construction or profiler Attach) and written through
//     pre-resolved handles; Add/Set/Observe never allocate and never
//     look anything up by name. A count the caller already keeps is
//     registered with CounterFunc instead and read only when the
//     registry samples or exports, so it is stored once.
//   - Deterministic. Everything is recorded from the engine's interval
//     loop, in program order; the per-interval time series and the event
//     log are pure functions of the simulation, so two runs of the same
//     seed export byte-identical JSON.
//   - Nil-safe. A nil *Registry hands out nil instruments whose methods
//     are no-ops, so instrumented code needs no "metrics enabled?"
//     branches and disabled runs stay bit-identical to uninstrumented
//     ones.
//
// Once per profiling interval the engine calls Sample, appending a row of
// every scalar instrument to a time series that is embedded in sim.Result
// and exportable as JSON or Prometheus text exposition format (see
// export.go).
package metrics

import (
	"fmt"
	"regexp"
	"sort"
	"time"
)

// Label is one name/value pair attached to an instrument. Label order is
// the registration order; it is preserved in both export formats.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label (shorthand for composite literals at call sites).
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind distinguishes the instrument types.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// validName is the Prometheus metric-name grammar; registration panics on
// violations (a bad name is a programming error, not a runtime condition).
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically increasing int64. The zero of a nil receiver
// is a no-op instrument.
type Counter struct {
	inst *instrument
	v    int64
}

// Add increases the counter by n (n >= 0). It panics on negative n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("metrics: Counter %s Add(%d): counters are monotonic", c.inst.full, n))
	}
	c.v += n
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration adds a virtual-time duration in nanoseconds.
func (c *Counter) AddDuration(d time.Duration) { c.Add(int64(d)) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable float64. The zero of a nil receiver is a no-op.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets chosen at registration
// (cumulative-bucket semantics at export, like Prometheus). The zero of a
// nil receiver is a no-op.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []int64   // len(bounds)+1
	sum    float64
	count  int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Event is one structured occurrence worth auditing after a run: a
// migration abort, an OOM emergency, a fault-class activation, an
// admission-control deferral. Events are stamped with the profiling
// interval and virtual clock the registry was last advanced to (SetNow).
type Event struct {
	Interval int    `json:"interval"`
	ClockNs  int64  `json:"clock_ns"`
	Type     string `json:"type"`
	Detail   string `json:"detail,omitempty"`
	Value    int64  `json:"value,omitempty"`
}

// DefaultEventCapacity bounds the event ring when the registry is built
// with New. The ring keeps the FIRST events of a run and counts the
// overflow: early events carry the context that explains everything after
// them, and a fixed-prefix policy keeps the export deterministic under
// truncation.
const DefaultEventCapacity = 4096

// instrument is the registry's record of one registered metric.
type instrument struct {
	kind   Kind
	name   string
	help   string
	labels []Label
	full   string // name plus rendered label set; the identity key

	c *Counter
	f func() int64 // a CounterFunc's source; c stays nil
	g *Gauge
	h *Histogram
}

// count returns a counter instrument's current value.
func (in *instrument) count() int64 {
	if in.f != nil {
		return in.f()
	}
	return in.c.v
}

// Registry owns the instruments, the event ring and the per-interval time
// series. It is not safe for concurrent use: like the simulation engine it
// serves, it belongs to one run's goroutine. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	instruments []*instrument
	byFull      map[string]*instrument
	scalars     []*instrument // counters+gauges, registration order: the series columns

	events        []Event
	eventCap      int
	eventsDropped int64

	series      []Snapshot
	nowInterval int
	nowClockNs  int64
}

// New creates an empty registry with the default event capacity.
func New() *Registry {
	return &Registry{
		byFull:   map[string]*instrument{},
		eventCap: DefaultEventCapacity,
	}
}

// SetEventCapacity resizes the event ring bound (existing events kept).
func (r *Registry) SetEventCapacity(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.eventCap = n
}

// fullName renders the instrument identity: name{k="v",...}.
func fullName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	s := name + "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += l.Key + `="` + l.Value + `"`
	}
	return s + "}"
}

// register validates and installs a new instrument, or returns the
// existing one when the same (name, labels) was registered before with the
// same kind — registration is idempotent so Attach-style hooks need no
// "already registered?" state.
func (r *Registry) register(kind Kind, name, help string, labels []Label) *instrument {
	if !validName.MatchString(name) {
		panic("metrics: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validName.MatchString(l.Key) {
			panic("metrics: invalid label key " + l.Key + " on " + name)
		}
	}
	full := fullName(name, labels)
	if in, ok := r.byFull[full]; ok {
		if in.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", full, kind, in.kind))
		}
		return in
	}
	in := &instrument{kind: kind, name: name, help: help, labels: labels, full: full}
	r.instruments = append(r.instruments, in)
	r.byFull[full] = in
	return in
}

// Counter registers (or finds) a counter. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	in := r.register(KindCounter, name, help, labels)
	if in.f != nil {
		panic("metrics: " + in.full + " is already a CounterFunc")
	}
	if in.c == nil {
		in.c = &Counter{inst: in}
		r.scalars = append(r.scalars, in)
	}
	return in.c
}

// CounterFunc registers (or re-points) a counter whose value is f(), read
// whenever the registry samples or exports: the metric of a count the
// caller already keeps. It takes the series column and export position a
// Counter registered at the same point would. It panics when the name and
// labels belong to a plain Counter or another kind, and does nothing on a
// nil registry.
func (r *Registry) CounterFunc(name, help string, f func() int64, labels ...Label) {
	if r == nil {
		return
	}
	in := r.register(KindCounter, name, help, labels)
	if in.c != nil {
		panic("metrics: " + in.full + " is already a Counter")
	}
	if in.f == nil {
		r.scalars = append(r.scalars, in)
	}
	in.f = f
}

// Gauge registers (or finds) a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	in := r.register(KindGauge, name, help, labels)
	if in.g == nil {
		in.g = &Gauge{}
		r.scalars = append(r.scalars, in)
	}
	return in.g
}

// Histogram registers (or finds) a histogram with the given ascending
// upper bounds; an implicit +Inf bucket is appended. Returns nil on a nil
// registry. Histograms are exported whole but not included in the scalar
// time series (their per-interval count would duplicate a counter).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram " + name + " bounds not strictly ascending")
		}
	}
	in := r.register(KindHistogram, name, help, labels)
	if in.h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		in.h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
	}
	return in.h
}

// SetNow advances the registry's notion of simulation time; subsequent
// events and samples are stamped with it. The engine calls it at interval
// boundaries.
func (r *Registry) SetNow(interval int, clockNs int64) {
	if r == nil {
		return
	}
	r.nowInterval = interval
	r.nowClockNs = clockNs
}

// Emit appends a structured event, stamped with the current (interval,
// clock). Past the ring capacity events are counted as dropped, keeping
// the recorded prefix deterministic.
func (r *Registry) Emit(typ, detail string, value int64) {
	if r == nil {
		return
	}
	if len(r.events) >= r.eventCap {
		r.eventsDropped++
		return
	}
	r.events = append(r.events, Event{
		Interval: r.nowInterval,
		ClockNs:  r.nowClockNs,
		Type:     typ,
		Detail:   detail,
		Value:    value,
	})
}

// Events returns the recorded events (the bounded prefix).
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// EventsDropped returns how many events overflowed the ring.
func (r *Registry) EventsDropped() int64 {
	if r == nil {
		return 0
	}
	return r.eventsDropped
}

// Snapshot is one row of the per-interval time series: the value of every
// scalar instrument (column order = Series().Columns) at the end of one
// profiling interval.
type Snapshot struct {
	Interval int       `json:"interval"`
	ClockNs  int64     `json:"clock_ns"`
	Values   []float64 `json:"values"`
}

// Sample appends one time-series row with the current values of all
// scalar instruments, stamped with the registry's current (interval,
// clock). The engine calls it once per profiling interval.
func (r *Registry) Sample() {
	if r == nil {
		return
	}
	vals := make([]float64, len(r.scalars))
	for i, in := range r.scalars {
		switch in.kind {
		case KindCounter:
			vals[i] = float64(in.count())
		case KindGauge:
			vals[i] = in.g.v
		}
	}
	r.series = append(r.series, Snapshot{Interval: r.nowInterval, ClockNs: r.nowClockNs, Values: vals})
}

// Samples returns the collected time-series rows.
func (r *Registry) Samples() []Snapshot {
	if r == nil {
		return nil
	}
	return r.series
}

// sortedInstruments returns the instruments grouped by metric name (name
// ascending; label variants keep registration order within a name), the
// order both export formats use.
func (r *Registry) sortedInstruments() []*instrument {
	out := make([]*instrument, len(r.instruments))
	copy(out, r.instruments)
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
