package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestDeterministicIDs: span IDs are a pure function of (interval,
// emission order), so two tracers fed the same calls produce identical
// streams.
func TestDeterministicIDs(t *testing.T) {
	mk := func() *Tracer {
		tr := New(Config{})
		tr.BeginInterval(0)
		tr.Begin("interval", "interval", 0)
		tr.Emit("profiling", "scan", 10, 5, I("shard", 0))
		tr.Event("decision", "promote", 15, S("rule", "r"))
		tr.End(20)
		tr.BeginInterval(1)
		tr.Begin("interval", "interval", 20)
		tr.End(40)
		return tr
	}
	a, b := mk().Export(), mk().Export()
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("identical call sequences exported different traces:\n%s\n%s", ab, bb)
	}
	// Interval 1's root restarts the per-interval counter.
	if got := a.Spans[3].ID; got != uint64(2)<<32|1 {
		t.Errorf("interval-1 root ID = %#x, want %#x", got, uint64(2)<<32|1)
	}
	if a.Spans[1].Parent != a.Spans[0].ID || a.Spans[2].Parent != a.Spans[0].ID {
		t.Error("children not parented to the open interval span")
	}
}

// TestMaxSpansKeepsPairing: spans past the cap are dropped and counted,
// and Begin/End pairing survives the drop (a dropped Begin still consumes
// the matching End).
func TestMaxSpansKeepsPairing(t *testing.T) {
	tr := New(Config{MaxSpans: 2})
	tr.BeginInterval(0)
	tr.Begin("c", "kept-root", 0)
	tr.Begin("c", "kept-child", 1)
	tr.Begin("c", "dropped", 2) // over the cap
	tr.End(3)                   // closes "dropped" (no-op on storage)
	tr.End(4, I("x", 1))        // closes kept-child
	tr.End(5)                   // closes kept-root
	if tr.Len() != 2 {
		t.Fatalf("kept %d spans, want 2", tr.Len())
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	x := tr.Export()
	if x.Spans[1].Name != "kept-child" || x.Spans[1].Dur != 3 {
		t.Fatalf("pairing broke across the drop: %+v", x.Spans[1])
	}
	if len(x.Spans[1].Attrs) != 1 {
		t.Fatalf("End attrs lost: %+v", x.Spans[1])
	}
}

// TestCloseAll closes every open span, deepest first.
func TestCloseAll(t *testing.T) {
	tr := New(Config{})
	tr.BeginInterval(0)
	tr.Begin("c", "a", 0)
	tr.Begin("c", "b", 5)
	tr.CloseAll(10)
	x := tr.Export()
	if x.Spans[0].Dur != 10 || x.Spans[1].Dur != 5 {
		t.Fatalf("durations %d/%d, want 10/5", x.Spans[0].Dur, x.Spans[1].Dur)
	}
	tr.CloseAll(20) // idempotent on an empty stack
}

// TestWriteJSONL: header first, then one valid JSON object per span, and
// the header round-trips through ReadJSONLHeader.
func TestWriteJSONL(t *testing.T) {
	tr := New(Config{})
	tr.SetMeta("solution", "X")
	tr.BeginInterval(0)
	tr.Begin("interval", "interval", 0, I("index", 0))
	tr.Event("decision", "promote", 3, S("rule", "r"), F("whi", 1.5))
	tr.End(7)
	var buf bytes.Buffer
	if err := tr.Export().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty output")
	}
	meta, n, dropped, err := ReadJSONLHeader(sc.Bytes())
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if meta["solution"] != "X" || n != 2 || dropped != 0 {
		t.Fatalf("header meta=%v spans=%d dropped=%d", meta, n, dropped)
	}
	var lines int
	for sc.Scan() {
		var l struct {
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
		if lines == 2 {
			if l.Attrs["rule"] != "r" || l.Attrs["whi"] != 1.5 {
				t.Fatalf("event attrs %v", l.Attrs)
			}
		}
	}
	if lines != n {
		t.Fatalf("%d lines, header says %d", lines, n)
	}
	// A non-span stream is rejected.
	if _, _, _, err := ReadJSONLHeader([]byte(`{"format":"other","version":1}`)); err == nil {
		t.Fatal("foreign header accepted")
	}
}

// TestWriteChrome: the trace-event JSON parses, carries metadata and
// complete events, and renders instants with the instant phase.
func TestWriteChrome(t *testing.T) {
	tr := New(Config{})
	tr.SetMeta("workload", "W")
	tr.BeginInterval(0)
	tr.Begin("interval", "interval", 0)
	tr.Emit("profiling", "scan", 100, 50)
	tr.Event("emergency", "oom", 120)
	tr.End(1000)
	var buf bytes.Buffer
	if err := tr.Export().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] == 0 || phases["X"] != 2 || phases["i"] != 1 {
		t.Fatalf("event phases %v, want metadata + 2 complete + 1 instant", phases)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("displayTimeUnit missing")
	}
}

// TestNilTracerNoOps: every method is safe on a nil tracer.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.SetMeta("k", "v")
	tr.BeginInterval(0)
	tr.Begin("c", "n", 0)
	tr.Emit("c", "e", 0, 1)
	tr.Event("c", "i", 0)
	tr.End(1)
	tr.CloseAll(2)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Export() != nil {
		t.Fatal("nil tracer not inert")
	}
}

// TestAttrJSON: attributes render as {"key":...,"value":...} pairs with
// native types.
func TestAttrJSON(t *testing.T) {
	b, err := json.Marshal([]Attr{S("s", "v"), I("i", 7), F("f", 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"key":"s","value":"v"},{"key":"i","value":7},{"key":"f","value":0.5}]`
	if string(b) != want {
		t.Fatalf("attrs = %s, want %s", b, want)
	}
	if !strings.Contains(string(b), `"value":7`) {
		t.Fatal("int attr lost its type")
	}
}
