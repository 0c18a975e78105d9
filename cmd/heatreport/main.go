// Command heatreport renders the fidelity oracle's time×address hotness
// heatmap — ground truth and the profiler's estimate side by side — from
// an `mtmsim -fidelity -json` result file.
//
// Usage:
//
//	mtmsim -workload pingpong -solution mtm -fidelity -json > run.json
//	heatreport run.json
//	heatreport -format csv run.json > heat.csv
//	heatreport -format json run.json
//	heatreport -spans trace.jsonl run.json
//
// Each heatmap row is one profiling interval; each column is 1/64th of
// the simulated address space. ASCII (default) shades cells by hot-byte
// density so truth/estimate divergence is visible at a glance: columns
// hot in truth but blank in the estimate are profiler misses, the
// reverse are stale estimates. CSV emits one row per interval with
// truth_NN and est_NN columns (the CI artifact format); JSON re-emits
// the Fidelity block's heatmap with the summary statistics attached.
//
// With -spans (the `mtmsim -spans` JSONL trace of the same run), each
// ASCII row is annotated with the migration outcomes resolved that
// interval: +N moves judged good (promoted-and-reaccessed,
// demoted-correct, flip-resurrected), -N judged bad (promoted-wasted,
// demoted-and-refaulted). Intervals where the admission layer's
// starvation watchdog fired (an -admission-lanes run whose critical
// drain/emergency traffic waited too long) are flagged with
// !starved(class). The trace must be JSONL: a Chrome trace
// (-spans-format chrome), a file without the stream header, a malformed
// span line, or a trace with fewer span lines than its header counts is
// an error, exit status 1, as is a heatmap not 64 columns wide.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mtm"
	"mtm/internal/fidelity"
	"mtm/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// shades orders cell characters by hot-byte density (0 → blank).
const shades = " .:-=+*#%@"

// outcomeTally is the per-interval good/bad migration verdict count
// parsed from span outcome events, plus the traffic classes whose
// starvation watchdog fired that interval (lane-starvation events from
// an -admission-lanes run).
type outcomeTally struct {
	good, bad int
	starved   []string
}

// run is the testable CLI body: flags in, report out, exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heatreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format = fs.String("format", "ascii", "output format: ascii, csv or json")
		spans  = fs.String("spans", "", "span JSONL trace of the same run; annotates rows with resolved migration outcomes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "ascii" && *format != "csv" && *format != "json" {
		fmt.Fprintf(stderr, "heatreport: invalid -format %q (want ascii, csv or json)\n", *format)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: heatreport [-format ascii|csv|json] [-spans trace.jsonl] result.json")
		return 2
	}

	res, err := readResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "heatreport:", err)
		return 1
	}
	if res.Fidelity == nil || res.Fidelity.Heatmap == nil {
		fmt.Fprintln(stderr, "heatreport: result has no fidelity heatmap (run mtmsim with -fidelity -json)")
		return 1
	}
	if c := res.Fidelity.Heatmap.Cols; c != fidelity.HeatCols {
		fmt.Fprintf(stderr, "heatreport: heatmap has %d columns, want %d\n", c, fidelity.HeatCols)
		return 1
	}

	var outcomes map[int]outcomeTally
	if *spans != "" {
		outcomes, err = readOutcomes(*spans)
		if err != nil {
			fmt.Fprintln(stderr, "heatreport:", err)
			return 1
		}
	}

	switch *format {
	case "csv":
		writeCSV(stdout, res.Fidelity.Heatmap)
	case "json":
		if err := writeJSON(stdout, res); err != nil {
			fmt.Fprintln(stderr, "heatreport:", err)
			return 1
		}
	default:
		writeASCII(stdout, res, outcomes)
	}
	return 0
}

// readResult decodes an mtmsim -json result envelope.
func readResult(path string) (*mtm.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res mtm.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &res, nil
}

// readOutcomes extracts per-interval migration verdict tallies from a
// span JSONL trace. The first line must be the stream's header, every
// other line a span, and the spans as many as the header counts; anything
// else (a Chrome trace, a malformed or truncated trace) is an error
// naming the file.
func readOutcomes(path string) (map[int]outcomeTally, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[int]outcomeTally{}
	_, _, _, err = span.ReadJSONL(f, path, func(b []byte) error {
		var ev struct {
			Interval int    `json:"interval"`
			Cat      string `json:"cat"`
			Name     string `json:"name"`
			Attrs    struct {
				Verdict string `json:"verdict"`
				Class   string `json:"class"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(b, &ev); err != nil {
			return fmt.Errorf("bad span line: %w", err)
		}
		switch {
		case ev.Cat == "migration" && ev.Name == "outcome":
			t := out[ev.Interval]
			switch ev.Attrs.Verdict {
			case "promoted-and-reaccessed", "demoted-correct", "flip-resurrected":
				t.good++
			default:
				t.bad++
			}
			out[ev.Interval] = t
		case ev.Cat == "admission" && ev.Name == "lane-starvation":
			t := out[ev.Interval]
			t.starved = append(t.starved, ev.Attrs.Class)
			out[ev.Interval] = t
		}
		return nil
	})
	return out, err
}

// writeCSV emits one row per interval: interval, truth_00..truth_NN,
// est_00..est_NN (hot bytes per address-space column).
func writeCSV(w io.Writer, hm *fidelity.Heatmap) {
	fmt.Fprint(w, "interval")
	for c := 0; c < hm.Cols; c++ {
		fmt.Fprintf(w, ",truth_%02d", c)
	}
	for c := 0; c < hm.Cols; c++ {
		fmt.Fprintf(w, ",est_%02d", c)
	}
	fmt.Fprintln(w)
	for _, r := range hm.Rows {
		fmt.Fprintf(w, "%d", r.Interval)
		for c := 0; c < hm.Cols; c++ {
			fmt.Fprintf(w, ",%d", r.Truth[c])
		}
		for c := 0; c < hm.Cols; c++ {
			fmt.Fprintf(w, ",%d", r.Est[c])
		}
		fmt.Fprintln(w)
	}
}

// writeJSON re-emits the heatmap with the run's summary statistics.
func writeJSON(w io.Writer, res *mtm.Result) error {
	out := struct {
		Solution string
		Workload string
		Fidelity *fidelity.Report
	}{res.Solution, res.Workload, res.Fidelity}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeASCII renders truth and estimate side by side, one interval per
// row, cells shaded by hot-byte density relative to the run maximum.
func writeASCII(w io.Writer, res *mtm.Result, outcomes map[int]outcomeTally) {
	hm := res.Fidelity.Heatmap
	var max int64
	for _, r := range hm.Rows {
		for c := 0; c < hm.Cols; c++ {
			if r.Truth[c] > max {
				max = r.Truth[c]
			}
			if r.Est[c] > max {
				max = r.Est[c]
			}
		}
	}
	fid := res.Fidelity
	fmt.Fprintf(w, "%s / %s — fidelity over %d intervals (scored %d)\n",
		res.Solution, res.Workload, fid.Samples, fid.Scored)
	fmt.Fprintf(w, "precision %.3f  recall %.3f  F1 %.3f  rank-agreement %.3f\n",
		fid.MeanPrecision, fid.MeanRecall, fid.MeanF1, fid.MeanRankAgreement)
	fmt.Fprintf(w, "%8s  %-*s  %-*s\n", "", hm.Cols, "truth (address space →)", hm.Cols, "estimate")
	var line strings.Builder
	for _, r := range hm.Rows {
		line.Reset()
		fmt.Fprintf(&line, "%8d  ", r.Interval)
		shadeRow(&line, r.Truth[:hm.Cols], max)
		line.WriteString("  ")
		shadeRow(&line, r.Est[:hm.Cols], max)
		if t, ok := outcomes[r.Interval]; ok {
			if t.good+t.bad > 0 {
				fmt.Fprintf(&line, "  +%d -%d", t.good, t.bad)
			}
			for _, cl := range t.starved {
				fmt.Fprintf(&line, "  !starved(%s)", cl)
			}
		}
		fmt.Fprintln(w, line.String())
	}
	mv := fid.Moves
	fmt.Fprintf(w, "moves: promoted-and-reaccessed=%d promoted-wasted=%d demoted-and-refaulted=%d demoted-correct=%d flip-resurrected=%d unresolved=%d\n",
		mv.PromotedReaccessed, mv.PromotedWasted, mv.DemotedRefaulted, mv.DemotedCorrect, mv.FlipResurrected, mv.Unresolved)
}

// shadeRow appends one shaded heatmap row.
func shadeRow(b *strings.Builder, cells []int64, max int64) {
	for _, v := range cells {
		if v <= 0 || max <= 0 {
			b.WriteByte(shades[0])
			continue
		}
		s := 1 + int(v*int64(len(shades)-2)/max)
		if s > len(shades)-1 {
			s = len(shades) - 1
		}
		b.WriteByte(shades[s])
	}
}
