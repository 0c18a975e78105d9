// Command spanreport analyzes a JSONL span trace written by
// `mtmsim -spans <file>` (or any span.Export.WriteJSONL output) and prints
// the paper-style per-interval execution-time breakdown — app vs profiling
// vs migration, per solution — reconstructed from the trace alone.
//
// Usage:
//
//	spanreport trace.jsonl
//	spanreport -in trace.jsonl -explain
//
// -explain additionally prints one provenance line per migration decision:
// which region was considered, the hotness estimate at that instant, the
// policy rule that fired, the threshold it compared against, and the
// outcome (destination and bytes for promote/demote; the reason for
// skip/defer/stop). Decisions gated by migration admission control carry
// the estimated ROI, the rule that fired ("roi-admitted",
// "roi-below-min", "victim-too-hot", "budget-exhausted", "low-roi-shed"),
// and the pair's remaining budget — the full answer to "why was this
// move refused". On -admission-learn runs each admission-gated decision
// also carries the online-learned ROI floor it was held against
// (rendered as floor=…), so the floor trajectory is readable straight
// off the decision log. Decisions vetoed by tier health carry their evidence
// inline: a skip under rule "breaker-open" names the breaker state, the
// consecutive aborts that tripped it, when the cool-down ends, and the
// pair's lifetime trip count; a skip under "tier-unavailable" names the
// destination's health state. Health-category spans (poisonings,
// state transitions, breaker trips, drain stalls) are listed after the
// decision log.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mtm/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: flags in, report out, exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spanreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in      = fs.String("in", "", "input JSONL span trace (or pass as the positional argument)")
		explain = fs.Bool("explain", false, "print a provenance line for every migration decision")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	path, rest := *in, fs.Args()
	if path == "" && len(rest) > 0 {
		path, rest = rest[0], rest[1:]
	}
	if path == "" || len(rest) > 0 {
		fmt.Fprintln(stderr, "usage: spanreport [-explain] [-in] <trace.jsonl>")
		return 2
	}

	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "spanreport:", err)
		return 1
	}
	defer f.Close()
	rep, err := analyze(f, path)
	if err != nil {
		fmt.Fprintln(stderr, "spanreport:", err)
		return 1
	}
	rep.write(stdout, *explain)
	return 0
}

// line mirrors the JSONL span schema (span.Export.WriteJSONL).
type line struct {
	Interval int            `json:"interval"`
	Cat      string         `json:"cat"`
	Name     string         `json:"name"`
	TsNs     int64          `json:"ts_ns"`
	DurNs    int64          `json:"dur_ns"`
	Attrs    map[string]any `json:"attrs"`
}

// intervalRow is one interval's phase breakdown, summed from "phase" spans.
type intervalRow struct {
	App, Profiling, Migration time.Duration
	PromotedBytes             int64
	DemotedBytes              int64
	BackgroundNs              int64
	Accesses                  int64
}

// decision is one migration-decision provenance event.
type decision struct {
	Interval  int
	Outcome   string // promote, demote, skip, defer, stop
	Rule      string
	VMA       string
	PageStart int64
	PageEnd   int64
	WHI       float64
	Threshold float64
	HasThresh bool
	Dst       string
	Bytes     int64
	// Admission evidence, present on admission-gated decisions (rules
	// "roi-admitted", "roi-below-min", "victim-too-hot",
	// "budget-exhausted", "low-roi-shed"): the estimated return on
	// investment for the move and the pair's budget at decision time.
	ROI          float64
	HasROI       bool
	AllowedBytes int64
	BudgetBytes  int64
	// Floor is the effective promotion ROI floor at decision time —
	// online-learned when the run had -admission-learn, static otherwise.
	// Only emitted on learn-enabled runs.
	Floor    float64
	HasFloor bool
	// Breaker evidence, present on "breaker-open" skips.
	Breaker          string
	BreakerAborts    int64
	BreakerOpenUntil int64
	BreakerTrips     int64
	// TierState is the destination's health state on "tier-unavailable"
	// skips.
	TierState string
}

// healthEvent is one health-category span (poisoning, state transition,
// breaker trip, drain stall).
type healthEvent struct {
	Interval int
	Name     string
	Attrs    map[string]any
}

// report is the analyzed trace.
type report struct {
	Meta      map[string]string
	Intervals map[int]*intervalRow
	Decisions []decision
	Health    []healthEvent
	Dropped   int64
	Spans     int
}

// Totals sums the per-interval phase durations.
func (rep *report) Totals() (app, prof, mig time.Duration) {
	for _, row := range rep.Intervals {
		app += row.App
		prof += row.Profiling
		mig += row.Migration
	}
	return
}

// analyze reads the JSONL span stream named name and aggregates the
// per-interval phase breakdown plus the decision event list.
func analyze(r io.Reader, name string) (*report, error) {
	rep := &report{Intervals: make(map[int]*intervalRow)}
	var err error
	rep.Meta, rep.Spans, rep.Dropped, err = span.ReadJSONL(r, name, func(b []byte) error {
		var l line
		if err := json.Unmarshal(b, &l); err != nil {
			return fmt.Errorf("bad span line: %w", err)
		}
		switch l.Cat {
		case "phase":
			row := rep.Intervals[l.Interval]
			if row == nil {
				row = &intervalRow{}
				rep.Intervals[l.Interval] = row
			}
			switch l.Name {
			case "app":
				row.App += time.Duration(l.DurNs)
				row.Accesses += attrInt(l.Attrs, "accesses")
			case "profiling":
				row.Profiling += time.Duration(l.DurNs)
			case "migration":
				row.Migration += time.Duration(l.DurNs)
				row.PromotedBytes += attrInt(l.Attrs, "promoted_bytes")
				row.DemotedBytes += attrInt(l.Attrs, "demoted_bytes")
				row.BackgroundNs += attrInt(l.Attrs, "background_ns")
			}
		case "decision":
			d := decision{
				Interval:  l.Interval,
				Outcome:   l.Name,
				Rule:      attrString(l.Attrs, "rule"),
				VMA:       attrString(l.Attrs, "vma"),
				PageStart: attrInt(l.Attrs, "page_start"),
				PageEnd:   attrInt(l.Attrs, "page_end"),
				WHI:       attrFloat(l.Attrs, "whi"),
				Dst:       attrString(l.Attrs, "dst"),
				Bytes:     attrInt(l.Attrs, "bytes"),
			}
			if v, ok := l.Attrs["threshold"]; ok {
				if f, ok := v.(float64); ok {
					d.Threshold, d.HasThresh = f, true
				}
			}
			if v, ok := l.Attrs["roi"]; ok {
				if f, ok := v.(float64); ok {
					d.ROI, d.HasROI = f, true
					d.AllowedBytes = attrInt(l.Attrs, "allowed_bytes")
					d.BudgetBytes = attrInt(l.Attrs, "budget_bytes")
				}
			}
			if v, ok := l.Attrs["floor"]; ok {
				if f, ok := v.(float64); ok {
					d.Floor, d.HasFloor = f, true
				}
			}
			if d.Rule == "breaker-open" {
				d.Breaker = attrString(l.Attrs, "breaker")
				d.BreakerAborts = attrInt(l.Attrs, "consecutive_aborts")
				d.BreakerOpenUntil = attrInt(l.Attrs, "open_until_ns")
				d.BreakerTrips = attrInt(l.Attrs, "breaker_trips")
			}
			if d.Rule == "tier-unavailable" {
				d.TierState = attrString(l.Attrs, "tier_state")
			}
			rep.Decisions = append(rep.Decisions, d)
		case "health":
			rep.Health = append(rep.Health, healthEvent{
				Interval: l.Interval,
				Name:     l.Name,
				Attrs:    l.Attrs,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func attrInt(m map[string]any, key string) int64 {
	if v, ok := m[key].(float64); ok {
		return int64(v)
	}
	return 0
}

func attrFloat(m map[string]any, key string) float64 {
	if v, ok := m[key].(float64); ok {
		return v
	}
	return 0
}

func attrString(m map[string]any, key string) string {
	if v, ok := m[key].(string); ok {
		return v
	}
	return ""
}

// write renders the report: per-interval breakdown, totals, and — with
// explain — the decision provenance log.
func (rep *report) write(w io.Writer, explain bool) {
	fmt.Fprintf(w, "solution:  %s\n", rep.Meta["solution"])
	fmt.Fprintf(w, "workload:  %s\n", rep.Meta["workload"])
	fmt.Fprintf(w, "intervals: %d (%d spans", len(rep.Intervals), rep.Spans)
	if rep.Dropped > 0 {
		fmt.Fprintf(w, ", %d dropped", rep.Dropped)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%8s %14s %14s %14s %7s %7s %10s %10s\n",
		"interval", "app", "profiling", "migration", "prof%", "mig%", "promoted", "demoted")
	keys := make([]int, 0, len(rep.Intervals))
	for k := range rep.Intervals {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		row := rep.Intervals[k]
		total := row.App + row.Profiling + row.Migration
		fmt.Fprintf(w, "%8d %14v %14v %14v %6.1f%% %6.1f%% %9dK %9dK\n",
			k, row.App, row.Profiling, row.Migration,
			pct(row.Profiling, total), pct(row.Migration, total),
			row.PromotedBytes>>10, row.DemotedBytes>>10)
	}
	app, prof, mig := rep.Totals()
	total := app + prof + mig
	fmt.Fprintln(w)
	fmt.Fprintf(w, "exec time:  %v (virtual)\n", total)
	fmt.Fprintf(w, "  app:       %v\n", app)
	fmt.Fprintf(w, "  profiling: %v (%.1f%%)\n", prof, pct(prof, total))
	fmt.Fprintf(w, "  migration: %v (%.1f%%)\n", mig, pct(mig, total))

	if !explain {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "decisions: %d\n", len(rep.Decisions))
	for _, d := range rep.Decisions {
		fmt.Fprintf(w, "  [%4d] %-7s %s pages %d-%d whi=%.4g rule=%s",
			d.Interval, d.Outcome, d.VMA, d.PageStart, d.PageEnd, d.WHI, d.Rule)
		if d.HasThresh {
			fmt.Fprintf(w, " threshold=%.4g", d.Threshold)
		}
		if d.Dst != "" {
			fmt.Fprintf(w, " dst=%s", d.Dst)
		}
		if d.Bytes > 0 {
			fmt.Fprintf(w, " bytes=%d", d.Bytes)
		}
		if d.HasROI {
			// Admission evidence: the estimated return on the copy and how
			// much of the request the pair's budget could carry.
			fmt.Fprintf(w, " roi=%.4g allowed=%d budget=%d",
				d.ROI, d.AllowedBytes, d.BudgetBytes)
		}
		if d.HasFloor {
			// The learned ROI floor the promotion was held against.
			fmt.Fprintf(w, " floor=%.4g", d.Floor)
		}
		if d.Breaker != "" {
			// Breaker evidence: why the pair was vetoed and until when.
			fmt.Fprintf(w, " breaker=%s consecutive_aborts=%d open_until=%v trips=%d",
				d.Breaker, d.BreakerAborts, time.Duration(d.BreakerOpenUntil), d.BreakerTrips)
		}
		if d.TierState != "" {
			fmt.Fprintf(w, " tier_state=%s", d.TierState)
		}
		fmt.Fprintln(w)
	}

	if len(rep.Health) == 0 {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "health events: %d\n", len(rep.Health))
	for _, h := range rep.Health {
		fmt.Fprintf(w, "  [%4d] %-15s", h.Interval, h.Name)
		keys := make([]string, 0, len(h.Attrs))
		for k := range h.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch v := h.Attrs[k].(type) {
			case float64:
				fmt.Fprintf(w, " %s=%v", k, int64(v))
			default:
				fmt.Fprintf(w, " %s=%v", k, v)
			}
		}
		fmt.Fprintln(w)
	}
}

func pct(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
