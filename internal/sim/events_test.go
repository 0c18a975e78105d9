package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mtm/internal/admission"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// enableEventSinks turns on both event sinks: the metrics event ring and
// the span tracer.
func enableEventSinks(e *Engine) {
	e.EnableMetrics()
	e.EnableSpans(span.Config{})
}

// ringRows renders the event ring one row per event:
// "interval clock type detail value".
func ringRows(e *Engine) []string {
	var out []string
	for _, ev := range e.Metrics().Events() {
		out = append(out, fmt.Sprintf("%d %d %s %q %d", ev.Interval, ev.ClockNs, ev.Type, ev.Detail, ev.Value))
	}
	return out
}

// spanInstants renders the trace's instant events one per line:
// "interval ts cat/name key=value ...", attributes in emission order and
// Go-syntax values, so a string "3" and an integer 3 differ.
func spanInstants(e *Engine) []string {
	var out []string
	for _, s := range e.SpansExport().Spans {
		if !s.Instant {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d %d %s/%s", s.Interval, s.Start, s.Cat, s.Name)
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%#v", a.Key, a.Val)
		}
		out = append(out, b.String())
	}
	return out
}

// wantLines fails the test unless got equals want line for line.
func wantLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s:\n got  %q\n want %q", what, got, want)
	}
}

// TestPromotionDeferredEvents: the ring keeps one promotion-deferred row
// per (interval, node), while the trace records every deferral.
func TestPromotionDeferredEvents(t *testing.T) {
	e := NewEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB), 1)
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 0})
	enableEventSinks(e)
	e.beginInterval()
	e.NoteDeferredPromotionTo(0)
	e.ChargeMigration(time.Microsecond) // spans carry the clock at emission
	e.NoteDeferredPromotionTo(0)
	e.NoteDeferredPromotionTo(1)
	e.endInterval()
	e.beginInterval()
	e.NoteDeferredPromotionTo(0)
	e.endInterval()
	if e.DeferredPromotions != 4 {
		t.Fatalf("DeferredPromotions = %d, want 4", e.DeferredPromotions)
	}
	wantLines(t, "ring", ringRows(e), []string{
		`0 0 promotion-deferred "DRAM" 0`,
		`0 0 promotion-deferred "PM" 0`,
		`1 1000 promotion-deferred "DRAM" 0`,
	})
	wantLines(t, "spans", spanInstants(e), []string{
		`0 0 policy/promotion-deferred dst="DRAM"`,
		`0 1000 policy/promotion-deferred dst="DRAM"`,
		`0 1000 policy/promotion-deferred dst="PM"`,
		`1 1000 policy/promotion-deferred dst="DRAM"`,
	})
}

// TestLaneStarvationEvents: a drain lane refused for more than
// admission.WatchdogIntervals consecutive intervals fires the watchdog,
// which writes one ring row and one span instant naming the class.
func TestLaneStarvationEvents(t *testing.T) {
	e := NewEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB), 1)
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 0})
	e.EnableAdmission(false, true)
	enableEventSinks(e)
	// A page larger than the pair's whole budget plus its reserve: the
	// drain lane defers it every interval.
	const huge = 1 << 50
	for i := 0; i <= admission.WatchdogIntervals; i++ {
		e.beginInterval()
		if e.admitLaneMove(admission.ClassDrain, 0, 1, huge) {
			t.Fatalf("interval %d: drain lane admitted a page beyond its budget", i)
		}
		e.endInterval()
	}
	if ls := e.AdmissionLaneStats(); ls == nil || ls.Starvations != 1 {
		t.Fatalf("lane stats %+v, want one starvation", ls)
	}
	wantLines(t, "ring", ringRows(e), []string{
		`4 0 lane-starvation "drain" 5`,
	})
	wantLines(t, "spans", spanInstants(e), []string{
		`4 0 admission/lane-starvation class="drain" waited_intervals=5`,
	})
}

// TestMigrationAbortEvents: the ring keeps one migration-abort row per
// (interval, pair) while the trace records every abort, and an abort
// whose source node is unknown reaches the trace alone, with an empty
// src.
func TestMigrationAbortEvents(t *testing.T) {
	e := NewEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB), 1)
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 1})
	enableEventSinks(e)
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0)
	e.Access(v, 1, 1, 0, 0)
	e.SetFaultPlane(&busyPlane{left: -1})
	for _, idx := range []int{0, 1} {
		if mv, ok := e.CopyPage(v, idx, 0); !ok || mv.Committed {
			t.Fatalf("CopyPage(%d) = (%+v, %v), want an abort", idx, mv, ok)
		}
	}
	if !e.Sys.Reserve(0, v.PageSize) {
		t.Fatal("no room to reserve on node 0")
	}
	e.abortMove(v, 1, vm.NoNode, 0)
	wantLines(t, "ring", ringRows(e), []string{
		`0 0 migration-abort "PM->DRAM" 0`,
	})
	wantLines(t, "spans", spanInstants(e), []string{
		`0 14398 migration/abort src="PM" dst="DRAM" vma="v" page=0 wasted_bytes=2097152`,
		`0 14398 migration/abort src="PM" dst="DRAM" vma="v" page=1 wasted_bytes=2097152`,
		`0 14398 migration/abort src="" dst="DRAM" vma="v" page=1 wasted_bytes=2097152`,
	})
}
