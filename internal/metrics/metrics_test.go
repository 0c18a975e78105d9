package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.CounterFunc("x_total", "", func() int64 {
		t.Fatal("nil registry called the func")
		return 0
	})
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2})
	g.Set(3)
	h.Observe(1.5)
	r.Emit("oom", "", 0)
	r.SetNow(1, 2)
	r.Sample()
	if g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments retained values")
	}
	if r.Export() != nil || r.Events() != nil || r.Samples() != nil {
		t.Fatal("nil registry exported state")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	moves := int64(4)
	r.CounterFunc("moves_total", "pages moved", func() int64 { return moves })
	g := r.Gauge("contention", "factor")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	h := r.Histogram("lat", "ns", []float64{10, 100})
	for _, v := range []float64{5, 50, 500, 10} { // 10 lands in the first bucket (<=)
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 565 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	x := r.Export()
	var hist *InstrumentExport
	for i, in := range x.Instruments {
		switch in.Name {
		case "lat":
			hist = &x.Instruments[i]
		case "moves_total":
			if in.Value != 4 || in.Kind != "counter" {
				t.Fatalf("counter export %+v, want counter 4", in)
			}
		}
	}
	if hist == nil {
		t.Fatal("histogram not exported")
	}
	// Cumulative: <=10 -> 2, <=100 -> 3, +Inf -> 4.
	want := []int64{2, 3, 4}
	for i, b := range hist.Buckets {
		if b.CumulativeCount != want[i] {
			t.Fatalf("bucket %d cumulative %d, want %d", i, b.CumulativeCount, want[i])
		}
	}
	if !hist.Buckets[2].Infinite {
		t.Fatal("last bucket not +Inf")
	}
}

func TestRegistrationIdempotentAndKindChecked(t *testing.T) {
	r := New()
	a := r.Gauge("x", "", L("n", "0"))
	b := r.Gauge("x", "", L("n", "0"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct gauges")
	}
	if r.Gauge("x", "", L("n", "1")) == a {
		t.Fatal("distinct labels shared an instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Histogram("x", "", nil, L("n", "0"))
}

func TestCounterFunc(t *testing.T) {
	var n int64
	r := New()
	r.CounterFunc("a_total", "", func() int64 { return 0 })
	r.CounterFunc("f_total", "read at sample time", func() int64 { return n })
	r.Gauge("g", "")
	n = 3
	r.Sample()
	n = 5
	r.Sample()
	n = 8
	x := r.Export()
	if got := x.Series.Samples[0].Values[1]; got != 3 {
		t.Fatalf("first sample read %v, want 3", got)
	}
	if got := x.Series.Samples[1].Values[1]; got != 5 {
		t.Fatalf("second sample read %v, want 5", got)
	}
	for _, in := range x.Instruments {
		if in.Name == "f_total" && (in.Value != 8 || in.Kind != "counter") {
			t.Fatalf("export %+v, want counter 8", in)
		}
	}
	var buf bytes.Buffer
	if err := r.Export().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE f_total counter\nf_total 8\n") {
		t.Fatalf("prom output:\n%s", buf.String())
	}

	// Registering again re-points the counter and keeps its column.
	m := int64(13)
	r.CounterFunc("f_total", "read at sample time", func() int64 { return m })
	r.Sample()
	x = r.Export()
	if got := strings.Join(x.Series.Columns, ","); got != "a_total,f_total,g" {
		t.Fatalf("columns %s after re-registering, want a_total,f_total,g", got)
	}
	if got := x.Series.Samples[2].Values[1]; got != 13 {
		t.Fatalf("re-pointed counter read %v, want 13", got)
	}

	for name, clash := range map[string]func(){
		"gauge after func": func() { r.Gauge("f_total", "") },
		"func after gauge": func() { r.CounterFunc("g", "", func() int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			clash()
		}()
	}
}

func TestEventRingBounded(t *testing.T) {
	r := New()
	r.SetNow(7, 123)
	for i := 0; i < DefaultEventCapacity+2; i++ {
		r.Emit("migration-abort", "dram0->pm0", int64(i))
	}
	if len(r.Events()) != DefaultEventCapacity {
		t.Fatalf("ring kept %d events, want %d", len(r.Events()), DefaultEventCapacity)
	}
	if r.EventsDropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.EventsDropped())
	}
	ev := r.Events()[0]
	if ev.Interval != 7 || ev.ClockNs != 123 || ev.Type != "migration-abort" || ev.Value != 0 {
		t.Fatalf("event stamp wrong: %+v", ev)
	}
	if last := r.Events()[DefaultEventCapacity-1]; last.Value != DefaultEventCapacity-1 {
		t.Fatalf("ring kept %+v last, want the first events", last)
	}
	x := r.Export()
	if x.EventsDropped != 2 || len(x.Events) != DefaultEventCapacity {
		t.Fatal("export lost event accounting")
	}
}

func TestSeriesSampling(t *testing.T) {
	r := New()
	var c int64
	r.CounterFunc("a_total", "", func() int64 { return c })
	g := r.Gauge("b", "")
	r.Histogram("h", "", []float64{1}) // histograms excluded from series
	for i := 0; i < 3; i++ {
		c += int64(i + 1)
		g.Set(float64(10 * i))
		r.SetNow(i, int64(i)*100)
		r.Sample()
	}
	x := r.Export()
	if x.Series == nil {
		t.Fatal("no series")
	}
	if got := x.Series.Columns; len(got) != 2 || got[0] != "a_total" || got[1] != "b" {
		t.Fatalf("columns = %v", got)
	}
	if len(x.Series.Samples) != 3 {
		t.Fatalf("%d samples, want 3", len(x.Series.Samples))
	}
	last := x.Series.Samples[2]
	if last.Interval != 2 || last.Values[0] != 6 || last.Values[1] != 20 {
		t.Fatalf("last sample %+v", last)
	}
}

func TestExportJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.CounterFunc("z_total", "last registered, first alphabetically exported", func() int64 { return 2 })
		r.CounterFunc("a_total", "", func() int64 { return 1 }, L("node", "dram0"))
		r.Gauge("m", "")
		r.SetNow(0, 1)
		r.Emit("oom", "vma p 3", 3)
		r.Sample()
		return r
	}
	b1, err := json.Marshal(build().Export())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(build().Export())
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical registries exported different JSON")
	}
}

func TestWriteProm(t *testing.T) {
	r := New()
	r.CounterFunc("mtm_pages_moved_total", "pages moved", func() int64 { return 12 }, L("src", "dram0"), L("dst", "pm0"))
	r.CounterFunc("mtm_pages_moved_total", "pages moved", func() int64 { return 3 }, L("src", "pm0"), L("dst", "dram0"))
	r.Gauge("mtm_contention", "factor", L("node", `we"ird`)).Set(1.25)
	h := r.Histogram("mtm_interval_app_ns", "per-interval app time", []float64{1000, 1e6})
	h.Observe(500)
	h.Observe(2e6)
	var buf bytes.Buffer
	if err := r.Export().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mtm_pages_moved_total counter",
		`mtm_pages_moved_total{src="dram0",dst="pm0"} 12`,
		`mtm_pages_moved_total{src="pm0",dst="dram0"} 3`,
		`mtm_contention{node="we\"ird"} 1.25`,
		"# TYPE mtm_interval_app_ns histogram",
		`mtm_interval_app_ns_bucket{le="1000"} 1`,
		`mtm_interval_app_ns_bucket{le="+Inf"} 2`,
		"mtm_interval_app_ns_sum 2000500",
		"mtm_interval_app_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// One TYPE header per family even with several label variants.
	if strings.Count(out, "# TYPE mtm_pages_moved_total") != 1 {
		t.Fatal("duplicate family header")
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, bad := range []string{"3x", "a-b", "a b", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.Gauge(bad, "")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad label key accepted")
		}
	}()
	r.Gauge("ok", "", L("bad-key", "v"))
}
