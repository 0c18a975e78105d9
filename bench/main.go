// Command bench measures what the simulator costs to run on the host: wall
// time, simulated accesses per host second, set-up time and live heap per
// workload, end to end, and host self time per simulator layer from a
// separate traced run. Every simulation's Result is checked for
// completion, audit drift and byte-identical output.
//
// Usage, from this directory:
//
//	go run . [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	         [-memprofile DIR] [-update-golden] [-out DIR]
//
// -trace 0 runs untraced simulations for -seconds and reports the
// end-to-end metrics; -trace 1 alternates untraced and traced simulations
// for -seconds and reports the per-layer metrics; the default runs both
// phases. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. out/results.json holds
// every simulation's raw values and the host environment, and a traced
// phase writes out/<workload>.spans.jsonl.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a reported metric and its unit; BENCHMARK.json declares
// the same names and units.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"maccess_per_s", "Maccess/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"access.s", "s"}, {"access.share", "fraction"}, {"access.ns_per_access", "ns"},
	{"access.calls", "count"}, {"access.ns_per_call", "ns"},
	{"profiler.s", "s"}, {"profiler.share", "fraction"}, {"profiler.ms_per_pass", "ms"},
	{"migrate.s", "s"}, {"migrate.share", "fraction"}, {"migrate.calls", "count"},
	{"migrate.us_per_call", "us"}, {"migrate.mb", "MB"},
	{"policy.s", "s"}, {"policy.share", "fraction"}, {"policy.ms_per_interval", "ms"},
	{"engine.s", "s"}, {"engine.share", "fraction"}, {"engine.ms_per_interval", "ms"},
	{"place.calls", "count"}, {"setup.ns_per_page", "ns"}, {"vm.pages", "count"},
	{"vm.heap_bytes_per_page", "B"},
	{"audit.s", "s"}, {"export.s", "s"}, {"export.mb", "MB"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"alloc.mb", "MB"}, {"alloc.bytes_per_access", "B"},
	{"interval.ms_p50", "ms"}, {"interval.ms_tail", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.unattributed_pct", "%"},
	{"sim.intervals", "count"}, {"sim.accesses", "count"}, {"sim.exec_vs", "virtual_s"},
	{"sim.migrated_mb", "MB"},
}

type options struct {
	seed         int64
	seconds      float64
	trace        int
	memprofile   string
	updateGolden bool
	out          string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	workload := fs.String("workload", "all", fmt.Sprintf("workload to measure, one of %v or all", specNames()))
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds each phase keeps starting simulations")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end phase only; 1: traced phase only; -1: both")
	fs.StringVar(&o.memprofile, "memprofile", "", "write <workload>.heap.pprof here, taken at the end of a simulation while the engine is reachable")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "record this run's Result digests in golden.json")
	fs.StringVar(&o.out, "out", "out", "directory for results.json and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace < -1 || o.trace > 1 || o.seconds < 0 {
		fmt.Fprintln(stderr, "bench: -trace must be -1, 0 or 1 and -seconds non-negative")
		return 2
	}
	todo := specs
	if *workload != "all" {
		sp, err := specNamed(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		todo = []spec{sp}
	}
	golden, err := loadGolden(goldenFile)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	var reports []*report
	for _, sp := range todo {
		r := measure(sp, o, golden)
		r.print(stdout)
		reports = append(reports, r)
		if o.updateGolden && r.Failed == 0 {
			golden[goldenKey(sp.Name, o.seed)] = r.Digest
		}
	}
	if err := writeOutputs(o, reports); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.updateGolden {
		if err := saveGolden(goldenFile, golden); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	line := newResultLine(reports, o.trace)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if line.Failed > 0 {
		return 1
	}
	return 0
}

// report is one workload's measurements, as results.json records them.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Spec     spec     `json:"spec"`
	Samples  []sample `json:"samples"`
	// Setups holds the set-up loop's times in seconds.
	Setups  []float64          `json:"setup_s_samples,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Ranges  map[string]minMax  `json:"ranges,omitempty"`
	// TailPercentile names the percentile interval.ms_tail reports.
	TailPercentile string `json:"interval_tail_percentile,omitempty"`
	// TracedWallS is the median wall time of the traced simulations.
	TracedWallS float64  `json:"traced_wall_s,omitempty"`
	Digest      string   `json:"digest"`
	Golden      string   `json:"golden"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`

	spans    []hostSpan // of the last traced simulation
	heapProf []byte     // of the last simulation, with -memprofile
}

// minMax is the range of an end-to-end metric over a phase's simulations.
type minMax struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

// measure runs sp's phases as closed loops of whole simulations, each for
// about o.seconds. The end-to-end phase runs at least one simulation, with
// set-ups alone timed between simulations; the traced phase runs at least
// one simulation of each kind.
func measure(sp spec, o options, golden map[string]string) *report {
	r := &report{Workload: sp.Name, Seed: o.seed, Spec: sp, Metrics: map[string]float64{}}
	heap := o.memprofile != ""
	keep := func(s sample) {
		if s.spans != nil {
			r.spans = s.spans
			s.spans = nil
		}
		if s.heapProf != nil {
			r.heapProf = s.heapProf
			s.heapProf = nil
		}
		r.Samples = append(r.Samples, s)
	}
	if o.trace != 1 {
		start := time.Now()
		for i := 0; i == 0 || time.Since(start).Seconds() < o.seconds; i++ {
			s := simulate(sp, o.seed, false, heap)
			keep(s)
			// Set-up alone takes under a millisecond on 2 MB pages, so it
			// is also timed in a loop of its own, back to back, for a tenth
			// of each simulation's time. Spread between the simulations, it
			// sees the same host as they do, and it misses the first few
			// hundred milliseconds, in which a fresh process can run at
			// half speed.
			t := time.Now()
			for n := 0; n == 0 || time.Since(t).Seconds() < s.WallS/10; n++ {
				d, err := setUp(sp, o.seed)
				if err != nil {
					break // the simulations report it
				}
				r.Setups = append(r.Setups, d.Seconds())
			}
		}
		r.endToEnd()
	}
	if o.trace != 0 {
		first := len(r.Samples)
		start := time.Now()
		for i := 0; i < 2 || time.Since(start).Seconds() < o.seconds; i++ {
			keep(simulate(sp, o.seed, i%2 == 1, heap))
		}
		r.layers(r.Samples[first:])
	}
	r.check(golden, o.updateGolden)
	return r
}

// endToEnd sets each end-to-end metric to its median: setup_s over the
// set-up loop, the others over the simulations that succeeded.
func (r *report) endToEnd() {
	ok := succeeded(r.Samples)
	r.Ranges = map[string]minMax{}
	for _, m := range endToEnd {
		var vals []float64
		for _, s := range ok {
			switch m.name {
			case "wall_s":
				vals = append(vals, s.WallS)
			case "maccess_per_s":
				vals = append(vals, s.MAccessPerS)
			case "live_heap_mb":
				vals = append(vals, s.LiveHeapMB)
			}
		}
		if m.name == "setup_s" {
			vals = append(vals, r.Setups...)
		}
		r.Metrics[m.name] = median(vals)
		if len(vals) > 0 {
			sort.Float64s(vals)
			r.Ranges[m.name] = minMax{Min: vals[0], Max: vals[len(vals)-1], N: len(vals)}
		}
	}
}

// layers sets each per-layer metric to its median over the traced
// simulations, with the interval percentiles pooled over all of them and
// the tracing overhead measured against the untraced simulations
// alternated with them.
func (r *report) layers(samples []sample) {
	var traced, untraced []float64
	var intervals []float64
	perKey := map[string][]float64{}
	for _, s := range succeeded(samples) {
		if !s.Traced {
			untraced = append(untraced, s.WallS)
			continue
		}
		traced = append(traced, s.WallS)
		intervals = append(intervals, s.intervalMS...)
		for k, v := range s.Layers {
			perKey[k] = append(perKey[k], v)
		}
	}
	for k, vals := range perKey {
		r.Metrics[k] = median(vals)
	}
	r.TracedWallS = median(traced)
	r.Metrics["trace.overhead_pct"] = 100 * (ratio(r.TracedWallS, median(untraced)) - 1)
	sort.Float64s(intervals)
	r.Metrics["interval.ms_p50"] = percentile(intervals, 0.5)
	r.TailPercentile = "p50"
	r.Metrics["interval.ms_tail"] = percentile(intervals, 0.5)
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}, {"p75", 0.75}} {
		// The tail is the highest percentile with ten intervals beyond it.
		if float64(len(intervals))*(1-p.q) >= 10 {
			r.TailPercentile = p.name
			r.Metrics["interval.ms_tail"] = percentile(intervals, p.q)
			break
		}
	}
}

// check counts a simulation as failed when it erred, did not complete,
// showed audit drift, or produced a Result whose digest differs from the
// golden digest for this workload and seed or, without one, from the
// first simulation's.
func (r *report) check(golden map[string]string, updating bool) {
	key := goldenKey(r.Workload, r.Seed)
	want, haveGolden := golden[key]
	switch {
	case updating:
		r.Golden, haveGolden = "updated", false
	case runtime.GOOS != "linux" || runtime.GOARCH != "amd64":
		// Other architectures may fuse multiply-adds, which changes
		// floating-point results and so the digest.
		r.Golden, haveGolden = "skipped on "+runtime.GOOS+"/"+runtime.GOARCH, false
	case !haveGolden:
		r.Golden = "no entry for " + key
	default:
		r.Golden = "ok"
	}
	for i, s := range r.Samples {
		r.Attempted++
		why := ""
		switch {
		case s.Error != "":
			why = s.Error
		case haveGolden && s.Digest != want:
			why = fmt.Sprintf("Result digest %.12s differs from golden %.12s", s.Digest, want)
			r.Golden = "mismatch"
		case r.Digest == "":
			r.Digest = s.Digest
		case s.Digest != r.Digest:
			why = fmt.Sprintf("Result digest %.12s differs from the first simulation's %.12s", s.Digest, r.Digest)
		}
		if why != "" {
			r.Failed++
			r.Failures = append(r.Failures, fmt.Sprintf("simulation %d (traced=%v): %s", i, s.Traced, why))
		}
	}
}

func (r *report) print(w io.Writer) {
	var traced int
	for _, s := range r.Samples {
		if s.Traced {
			traced++
		}
	}
	fmt.Fprintf(w, "== %s  seed %d: %d simulations (%d traced), %d failed, golden %s\n",
		r.Workload, r.Seed, len(r.Samples), traced, r.Failed, r.Golden)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	if len(r.Ranges) > 0 {
		fmt.Fprintf(w, "   %-22s %12s %-10s %12s %12s %4s\n", "end-to-end", "median", "unit", "min", "max", "n")
		for _, m := range endToEnd {
			g := r.Ranges[m.name]
			fmt.Fprintf(w, "   %-22s %12.4f %-10s %12.4f %12.4f %4d\n", m.name, r.Metrics[m.name], m.unit, g.Min, g.Max, g.N)
		}
	}
	if r.TailPercentile == "" {
		return
	}
	fmt.Fprintf(w, "   %-22s %12s %-10s\n", "per-layer (traced)", "median", "unit")
	for _, m := range perLayer {
		note := ""
		if m.name == "interval.ms_tail" {
			note = "  (" + r.TailPercentile + ")"
		}
		fmt.Fprintf(w, "   %-22s %12.4f %-10s%s\n", m.name, r.Metrics[m.name], m.unit, note)
	}
	fmt.Fprintf(w, "   %-22s %12s %12s\n", "layer self time", "s", "share")
	setup := r.Metrics["setup.ns_per_page"] * r.Metrics["vm.pages"] / 1e9
	fmt.Fprintf(w, "   %-22s %12.4f %12.4f\n", "setup", setup, ratio(setup, r.TracedWallS))
	for _, l := range []string{"access", "policy", "profiler", "migrate", "engine", "audit", "export"} {
		s := r.Metrics[l+".s"]
		fmt.Fprintf(w, "   %-22s %12.4f %12.4f\n", l, s, ratio(s, r.TracedWallS))
	}
	fmt.Fprintf(w, "   %-22s %12s %12.4f\n", "unattributed", "", r.Metrics["trace.unattributed_pct"]/100)
	fmt.Fprintf(w, "   %-22s %12.4f\n", "traced wall", r.TracedWallS)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResultLine gathers the metrics of the phases that ran; with more than one
// workload each name is prefixed with "<workload>/".
func newResultLine(reports []*report, trace int) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	var defs []metricDef
	if trace != 1 {
		defs = append(defs, endToEnd...)
	}
	if trace != 0 {
		defs = append(defs, perLayer...)
	}
	for _, r := range reports {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(reports) > 1 {
			prefix = r.Workload + "/"
		}
		for _, m := range defs {
			line.Metrics[prefix+m.name] = metricValue{Value: r.Metrics[m.name], Unit: m.unit}
		}
	}
	line.Correct = line.Failed == 0
	return line
}

// environment records where the numbers were measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

func currentEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Revision: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Modified = s.Value
			}
		}
	}
	return env
}

// writeOutputs writes results.json, the span files of traced phases and,
// with -memprofile, the heap profiles.
func writeOutputs(o options, reports []*report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for _, r := range reports {
		if r.spans != nil {
			if err := writeSpans(filepath.Join(o.out, r.Workload+".spans.jsonl"), r.spans); err != nil {
				return err
			}
		}
		if o.memprofile != "" {
			if len(r.heapProf) == 0 {
				return fmt.Errorf("no heap profile was taken for %s", r.Workload)
			}
			if err := os.MkdirAll(o.memprofile, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(o.memprofile, r.Workload+".heap.pprof"), r.heapProf, 0o644); err != nil {
				return err
			}
		}
	}
	data, err := json.MarshalIndent(struct {
		Env       environment `json:"env"`
		Workloads []*report   `json:"workloads"`
	}{currentEnvironment(), reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "results.json"), append(data, '\n'), 0o644)
}

func writeSpans(path string, spans []hostSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}

// goldenFile maps "<workload>/seed=<n>" to the SHA-256 of the Result JSON
// on linux/amd64; -update-golden rewrites the entries it measured.
const goldenFile = "golden.json"

func goldenKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/seed=%d", workload, seed)
}

func loadGolden(path string) (map[string]string, error) {
	g := map[string]string{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return g, nil
}

func saveGolden(path string, g map[string]string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func succeeded(samples []sample) []sample {
	var ok []sample
	for _, s := range samples {
		if s.Error == "" {
			ok = append(ok, s)
		}
	}
	return ok
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
