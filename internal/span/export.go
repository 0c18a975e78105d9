package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Export is a serialisable snapshot of a trace. It embeds into
// sim.Result, so its JSON form must be deterministic: spans are in
// emission order, attribute lists in insertion order, and the meta map
// is rendered with sorted keys by encoding/json.
type Export struct {
	Meta    map[string]string `json:",omitempty"`
	Spans   []Span
	Dropped int64 `json:",omitempty"`
}

// jsonlHeader is the self-describing first line of the JSONL stream.
type jsonlHeader struct {
	Format  string            `json:"format"`
	Version int               `json:"version"`
	Meta    map[string]string `json:"meta,omitempty"`
	Spans   int               `json:"spans"`
	Dropped int64             `json:"dropped,omitempty"`
}

// JSONLFormat identifies the stream in its header line.
const JSONLFormat = "mtm-spans"

// JSONLVersion is bumped on breaking schema changes.
const JSONLVersion = 1

// jsonlLine is one span in the JSONL stream. Attributes collapse to a
// plain object (map keys are sorted by encoding/json, keeping the byte
// stream deterministic).
type jsonlLine struct {
	ID       uint64         `json:"id"`
	Parent   uint64         `json:"parent,omitempty"`
	Interval int            `json:"interval"`
	Cat      string         `json:"cat"`
	Name     string         `json:"name"`
	Start    int64          `json:"ts_ns"`
	Dur      int64          `json:"dur_ns"`
	Instant  bool           `json:"instant,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Field) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// WriteJSONL writes the self-describing JSONL stream: a header line
// ({"format":"mtm-spans",...}) followed by one JSON object per span.
func (x *Export) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	err := enc.Encode(jsonlHeader{
		Format: JSONLFormat, Version: JSONLVersion,
		Meta: x.Meta, Spans: len(x.Spans), Dropped: x.Dropped,
	})
	if err != nil {
		return err
	}
	for i := range x.Spans {
		sp := &x.Spans[i]
		line := jsonlLine{
			ID: sp.ID, Parent: sp.Parent, Interval: sp.Interval,
			Cat: sp.Cat, Name: sp.Name, Start: sp.Start, Dur: sp.Dur,
			Instant: sp.Instant, Attrs: attrMap(sp.Attrs),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes Chrome trace-event JSON (the JSON-object form with a
// traceEvents array), loadable in Perfetto or chrome://tracing.
// Timestamps and durations convert from virtual nanoseconds to the
// format's microseconds. Interval and phase spans land on one track
// (tid 1), detail spans on another (tid 2), so the per-interval
// app/profiling/migration breakdown reads as a lane above the pipeline
// internals.
func (x *Export) WriteChrome(w io.Writer) error {
	evs := make([]map[string]any, 0, len(x.Spans)+len(x.Meta)+1)
	evs = append(evs, map[string]any{
		"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
		"args": map[string]any{"name": "mtmsim (virtual time)"},
	})
	keys := make([]string, 0, len(x.Meta))
	for k := range x.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		evs = append(evs, map[string]any{
			"ph": "M", "pid": 1, "tid": 0, "name": "trace_meta:" + k,
			"args": map[string]any{"name": x.Meta[k]},
		})
	}
	for i := range x.Spans {
		sp := &x.Spans[i]
		tid := 2
		if sp.Cat == "interval" || sp.Cat == "phase" {
			tid = 1
		}
		ev := map[string]any{
			"name": sp.Name, "cat": sp.Cat, "pid": 1, "tid": tid,
			"ts": float64(sp.Start) / 1000.0,
		}
		if args := attrMap(sp.Attrs); args != nil {
			ev["args"] = args
		}
		if sp.Instant {
			ev["ph"] = "i"
			ev["s"] = "t"
		} else {
			ev["ph"] = "X"
			ev["dur"] = float64(sp.Dur) / 1000.0
		}
		evs = append(evs, ev)
	}
	out := map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSONL reads a stream WriteJSONL wrote. It validates the header
// line, calls fn with each span line in order, and checks that the
// stream holds exactly as many span lines as the header counts, so a
// truncated trace is an error rather than a short one. Errors name the
// line as name:N; name is how the caller refers to the stream, such as
// its path. An error fn returns is wrapped the same way.
func ReadJSONL(r io.Reader, name string, fn func(line []byte) error) (meta map[string]string, spans int, dropped int64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, 0, fmt.Errorf("%s:1: %w", name, err)
		}
		return nil, 0, 0, fmt.Errorf("%s: empty span trace", name)
	}
	var h jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, 0, 0, fmt.Errorf("%s:1: span: bad JSONL header: %w", name, err)
	}
	if h.Format != JSONLFormat {
		return nil, 0, 0, fmt.Errorf("%s:1: span: not a %s stream (format %q)", name, JSONLFormat, h.Format)
	}
	if h.Version != JSONLVersion {
		return nil, 0, 0, fmt.Errorf("%s:1: span: unsupported stream version %d", name, h.Version)
	}
	n := 0
	for sc.Scan() {
		n++
		if err := fn(sc.Bytes()); err != nil {
			return nil, 0, 0, fmt.Errorf("%s:%d: %w", name, n+1, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("%s:%d: %w", name, n+2, err)
	}
	if n != h.Spans {
		return nil, 0, 0, fmt.Errorf("%s: %d span lines, the header counts %d", name, n, h.Spans)
	}
	return h.Meta, h.Spans, h.Dropped, nil
}
