package span

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
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

// TestExportIsASnapshot: spans begun, ended, emitted or given attributes
// after Export leave it as it was, whether it shares the recorded spans
// (no span open) or copies them (one open), and the tracer keeps them.
func TestExportIsASnapshot(t *testing.T) {
	for _, open := range []bool{false, true} {
		tr := New(Config{})
		tr.BeginInterval(0)
		tr.Begin("interval", "root", 0, I("n", 1))
		if !open {
			tr.End(5)
		}
		tr.Event("decision", "noop", 3)
		x := tr.Export()
		if shared := &x.Spans[0] == &tr.spans[0]; shared == open {
			t.Fatalf("open %v: export shares the recorded spans: %v", open, shared)
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		tr.End(9, S("late", "attr"))
		tr.Begin("phase", "after", 10, S("s", "v"))
		tr.Emit("detail", "emitted", 11, 1)
		tr.End(12, I("k", 2))
		if got, err := json.Marshal(x); err != nil || string(got) != string(want) {
			t.Fatalf("open %v: export moved:\n got %s\nwant %s", open, got, want)
		}
		if tr.Len() != 4 {
			t.Fatalf("open %v: tracer holds %d spans, want 4", open, tr.Len())
		}
	}
	if x := New(Config{}).Export(); x.Spans == nil {
		t.Fatal("an empty trace exports nil spans")
	}
}

// TestWriteJSONL: header first, then one valid JSON object per span, and
// the header round-trips through ReadJSONL.
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
	var lines int
	meta, n, dropped, err := ReadJSONL(&buf, "trace", func(b []byte) error {
		var l struct {
			Attrs map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(b, &l); err != nil {
			return err
		}
		lines++
		if lines == 2 && (l.Attrs["rule"] != "r" || l.Attrs["whi"] != 1.5) {
			t.Fatalf("event attrs %v", l.Attrs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta["solution"] != "X" || n != 2 || dropped != 0 || lines != n {
		t.Fatalf("header meta=%v spans=%d dropped=%d, %d lines", meta, n, dropped, lines)
	}
	// A non-span stream is rejected.
	if _, _, _, err := ReadJSONL(strings.NewReader(`{"format":"other","version":1}`), "x", nil); err == nil {
		t.Fatal("foreign header accepted")
	}
}

// TestReadJSONLRoundTrip: every span WriteJSONL writes comes back through
// ReadJSONL in order and field for field, with the header's meta, count
// and drop total. A stream with fewer or more span lines than its header
// counts, or a bad line, is an error that names the stream and the line.
func TestReadJSONLRoundTrip(t *testing.T) {
	tr := New(Config{MaxSpans: 3})
	tr.SetMeta("workload", "gups")
	tr.BeginInterval(4)
	tr.Begin("interval", "interval", 10)
	tr.Emit("profiling", "scan", 11, 5, I("shard", 2), S("vma", "heap"))
	tr.Event("migration", "abort", 12, F("roi", 0.25))
	tr.Event("migration", "dropped", 13)
	tr.End(20)
	x := tr.Export()
	var buf bytes.Buffer
	if err := x.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []jsonlLine
	meta, n, dropped, err := ReadJSONL(bytes.NewReader(buf.Bytes()), "trace", func(b []byte) error {
		var l jsonlLine
		err := json.Unmarshal(b, &l)
		got = append(got, l)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if meta["workload"] != "gups" || n != len(x.Spans) || dropped != x.Dropped || dropped == 0 {
		t.Fatalf("header meta=%v spans=%d dropped=%d; export has %d spans, %d dropped", meta, n, dropped, len(x.Spans), x.Dropped)
	}
	if len(got) != len(x.Spans) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(x.Spans))
	}
	for i, sp := range x.Spans {
		l := got[i]
		if l.ID != sp.ID || l.Parent != sp.Parent || l.Interval != sp.Interval || l.Cat != sp.Cat ||
			l.Name != sp.Name || l.Start != sp.Start || l.Dur != sp.Dur || l.Instant != sp.Instant ||
			len(l.Attrs) != len(sp.Attrs) {
			t.Fatalf("span %d: read %+v, wrote %+v", i, l, sp)
		}
		for _, a := range sp.Attrs {
			want := a.Val
			if v, ok := want.(int64); ok {
				want = float64(v) // JSON numbers decode as float64
			}
			if l.Attrs[a.Key] != want {
				t.Fatalf("span %d attr %s: read %v, wrote %v", i, a.Key, l.Attrs[a.Key], a.Val)
			}
		}
	}

	text := buf.String()
	lines := strings.SplitAfter(text, "\n")
	for _, c := range []struct{ name, body, want string }{
		{"empty", "", "empty: empty span trace"},
		{"cut", strings.Join(lines[:2], ""), "cut: 1 span lines, the header counts 3"},
		{"extra", text + lines[1], "extra: 4 span lines, the header counts 3"},
		{"bad", lines[0] + lines[1] + "{\n", "bad:3: unexpected end of JSON input"},
	} {
		_, _, _, err := ReadJSONL(strings.NewReader(c.body), c.name, func(b []byte) error {
			var l jsonlLine
			return json.Unmarshal(b, &l)
		})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	if _, _, _, err := ReadJSONL(strings.NewReader(text), "ok", func([]byte) error { return nil }); err != nil {
		t.Fatalf("intact stream: %v", err)
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

// TestAttrJSON: recorded attributes render as {"key":...,"value":...}
// pairs with native types, and an Attr of the zero kind as null.
func TestAttrJSON(t *testing.T) {
	tr := New(Config{})
	tr.Event("c", "n", 0, S("s", "v"), I("i", 7), F("f", 0.5), Attr{Key: "z"})
	b, err := json.Marshal(tr.Export().Spans[0].Attrs)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"key":"s","value":"v"},{"key":"i","value":7},{"key":"f","value":0.5},{"key":"z","value":null}]`
	if string(b) != want {
		t.Fatalf("attrs = %s, want %s", b, want)
	}
	if !strings.Contains(string(b), `"value":7`) {
		t.Fatal("int attr lost its type")
	}
}

// exportPinFixture is a trace holding every attribute kind and the edge
// values encoding/json treats specially: HTML characters, quotes,
// backslashes, control characters, non-ASCII, the JavaScript line
// separators, invalid UTF-8, integer extremes, negative zero and the
// float exponent thresholds. The last Emit passes the cap, so Dropped is
// set.
func exportPinFixture() *Export {
	tr := New(Config{MaxSpans: 4})
	tr.SetMeta("solution", "mtm")
	tr.SetMeta("workload", "<bfs & co>")
	tr.BeginInterval(0)
	tr.Begin("interval", "interval", 0, I("index", 0))
	tr.Emit("profiling", "scan", 10, 5,
		S("html", `<a href="x">&</a>`),
		S("quote", `say "hi"`),
		S("backslash", `C:\tmp\`),
		S("control", "a\x01b\tc\n"),
		S("utf8", "héllo, 世界"),
		S("separators", "line\u2028para\u2029"),
		S("invalid", "bad\xffbyte\xc3"),
		S("", ""),
		I("zero", 0),
		I("neg", -42),
		I("max", math.MaxInt64),
		I("min", math.MinInt64),
		F("fzero", 0),
		F("negzero", math.Copysign(0, -1)),
		F("tenth", 0.1),
		F("tiny", 1e-7),
		F("huge", 1e21),
		F("third", 1.0/3),
	)
	tr.Event("decision", "noop", 12)
	tr.End(20, S("k<&>", "v"), I("pages", 512), F("whi", 1.5))
	tr.BeginInterval(1)
	tr.Emit("emergency", "oom", 25, 0, S("tier", "pmem"))
	tr.Emit("profiling", "dropped", 30, 1, I("shard", 1))
	return tr.Export()
}

// exportPin is the exact JSON of exportPinFixture, as sim.Result embeds
// it.
const exportPin = `{"Meta":{"solution":"mtm","workload":"\u003cbfs \u0026 co\u003e"},"Spans":[{"id":4294967297,"interval":0,"cat":"interval","name":"interval","ts_ns":0,"dur_ns":20,"attrs":[` +
	`{"key":"index","value":0},` +
	`{"key":"k\u003c\u0026\u003e","value":"v"},` +
	`{"key":"pages","value":512},` +
	`{"key":"whi","value":1.5}]},` +
	`{"id":4294967298,"parent":4294967297,"interval":0,"cat":"profiling","name":"scan","ts_ns":10,"dur_ns":5,"attrs":[` +
	`{"key":"html","value":"\u003ca href=\"x\"\u003e\u0026\u003c/a\u003e"},` +
	`{"key":"quote","value":"say \"hi\""},` +
	`{"key":"backslash","value":"C:\\tmp\\"},` +
	`{"key":"control","value":"a\u0001b\tc\n"},` +
	`{"key":"utf8","value":"héllo, 世界"},` +
	`{"key":"separators","value":"line\u2028para\u2029"},` +
	`{"key":"invalid","value":"bad\ufffdbyte\ufffd"},` +
	`{"key":"","value":""},` +
	`{"key":"zero","value":0},` +
	`{"key":"neg","value":-42},` +
	`{"key":"max","value":9223372036854775807},` +
	`{"key":"min","value":-9223372036854775808},` +
	`{"key":"fzero","value":0},` +
	`{"key":"negzero","value":-0},` +
	`{"key":"tenth","value":0.1},` +
	`{"key":"tiny","value":1e-7},` +
	`{"key":"huge","value":1e+21},` +
	`{"key":"third","value":0.3333333333333333}]},` +
	`{"id":4294967299,"parent":4294967297,"interval":0,"cat":"decision","name":"noop","ts_ns":12,"dur_ns":0,"instant":true},` +
	`{"id":8589934593,"interval":1,"cat":"emergency","name":"oom","ts_ns":25,"dur_ns":0,"attrs":[` +
	`{"key":"tier","value":"pmem"}]}],"Dropped":1}`

// TestExportJSONPin: an Export's JSON encoding is byte-for-byte fixed,
// and a non-finite float attribute still fails to encode.
func TestExportJSONPin(t *testing.T) {
	b, err := json.Marshal(exportPinFixture())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != exportPin {
		t.Fatalf("Export JSON moved:\n got %s\nwant %s", b, exportPin)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := &Export{Spans: []Span{{ID: 1, Attrs: []Field{{"bad", f}}}}}
		if _, err := json.Marshal(x); err == nil {
			t.Errorf("attribute %v encoded without error", f)
		}
	}
}

// TestStringsPastInternBound: once the table of boxed strings is full, a
// new string is boxed afresh and exports like any other, and the table
// stays at its bound.
func TestStringsPastInternBound(t *testing.T) {
	tr := New(Config{})
	const n = maxBoxed + 100
	for i := range 2 * n {
		tr.Event("c", "n", int64(i), S("k", strconv.Itoa(i%n)))
	}
	if len(tr.boxed) != maxBoxed {
		t.Errorf("%d boxed strings, want the bound %d", len(tr.boxed), maxBoxed)
	}
	var buf bytes.Buffer
	if err := tr.Export().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] // after the header
	if len(lines) != 2*n {
		t.Fatalf("%d span lines, want %d", len(lines), 2*n)
	}
	for i, line := range lines {
		var sp jsonlLine
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatal(err)
		}
		if want := strconv.Itoa(i % n); len(sp.Attrs) != 1 || sp.Attrs["k"] != want {
			t.Fatalf("span %d attrs %v, want k=%s", i, sp.Attrs, want)
		}
	}
}
