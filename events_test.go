package mtm

import (
	"fmt"
	"testing"

	"mtm/internal/span"
)

// twoSinkKinds maps each event kind the engine writes to both the metrics
// event ring and the span trace from its ring type to its span
// category/name, and to the ring detail the span's attributes spell.
var twoSinkKinds = map[string]struct {
	span   string
	detail func(a map[string]any) string
}{
	"promotion-deferred": {"policy/promotion-deferred", func(a map[string]any) string { return fmt.Sprint(a["dst"]) }},
	"migration-abort":    {"migration/abort", pairDetail},
	"oom":                {"emergency/oom", func(a map[string]any) string { return fmt.Sprint(a["vma"]) }},
	"emergency-demotion": {"emergency/emergency-demotion", nodeDetail},
	"breaker-trip":       {"health/breaker-trip", pairDetail},
	"mem-poison":         {"health/poison", nodeDetail},
	"health-transition": {"health/transition", func(a map[string]any) string {
		return fmt.Sprintf("%v %v->%v", a["node"], a["from"], a["to"])
	}},
	"drain-stall":     {"health/drain-stall", nodeDetail},
	"lane-starvation": {"admission/lane-starvation", func(a map[string]any) string { return fmt.Sprint(a["class"]) }},
}

func nodeDetail(a map[string]any) string { return fmt.Sprint(a["node"]) }
func pairDetail(a map[string]any) string { return fmt.Sprintf("%v->%v", a["src"], a["dst"]) }

// dedupKinds are the ring types the engine writes at most once per
// (interval, detail).
var dedupKinds = map[string]bool{
	"promotion-deferred": true,
	"migration-abort":    true,
	"emergency-demotion": true,
	"mem-poison":         true,
	"drain-stall":        true,
	"admission-defer":    true,
	"admission-reject":   true,
	"thrash-suppressed":  true,
}

// TestEventSinksAgree runs faults with both event sinks on and checks
// that every ring row of a kind written to both sinks has a span instant
// of that kind in the same interval naming the same node or pair, and
// that no deduplicated kind has two ring rows for one (interval, detail).
func TestEventSinksAgree(t *testing.T) {
	var tune func(*Config)
	for _, v := range goldenVariants {
		if v.name == "cxl-flaky+lanes+metrics+spans" {
			tune = v.tune
		}
	}
	if tune == nil {
		t.Fatal("golden variant cxl-flaky+lanes+metrics+spans is gone")
	}
	for _, wl := range []string{"gups", "pingpong"} {
		for _, sol := range []string{"mtm", "nomad", "hemem"} {
			cfg := DefaultConfig()
			cfg.Scale = 256
			cfg.OpsFactor = 0.1
			cfg.Seed = 7
			tune(&cfg)
			t.Run(wl+"/"+sol, func(t *testing.T) {
				t.Parallel()
				res, err := Run(cfg, wl, sol)
				if err != nil {
					t.Fatal(err)
				}
				if res.Metrics.EventsDropped > 0 || res.Spans.Dropped > 0 {
					t.Fatalf("sinks overflowed: %d events, %d spans dropped",
						res.Metrics.EventsDropped, res.Spans.Dropped)
				}
				type key struct {
					interval     int
					kind, detail string
				}
				spans := map[key]bool{}
				for _, s := range res.Spans.Spans {
					if s.Instant {
						spans[key{s.Interval, s.Cat + "/" + s.Name, spanDetail(s)}] = true
					}
				}
				rows := map[key]bool{}
				twoSink := 0
				for _, ev := range res.Metrics.Events {
					k := key{ev.Interval, ev.Type, ev.Detail}
					if dedupKinds[ev.Type] && rows[k] {
						t.Errorf("two %s rows for %q in interval %d", ev.Type, ev.Detail, ev.Interval)
					}
					rows[k] = true
					if kind, ok := twoSinkKinds[ev.Type]; ok {
						twoSink++
						if !spans[key{ev.Interval, kind.span, ev.Detail}] {
							t.Errorf("%s row %q in interval %d has no %s span", ev.Type, ev.Detail, ev.Interval, kind.span)
						}
					}
				}
				if twoSink == 0 {
					t.Error("no ring row of a two-sink kind; the check is vacuous")
				}
			})
		}
	}
}

// spanDetail spells a span instant's attributes as the ring detail of
// its kind, or "" for a kind that has no ring row.
func spanDetail(s span.Span) string {
	for _, kind := range twoSinkKinds {
		if kind.span == s.Cat+"/"+s.Name {
			a := map[string]any{}
			for _, at := range s.Attrs {
				a[at.Key] = at.Val
			}
			return kind.detail(a)
		}
	}
	return ""
}
