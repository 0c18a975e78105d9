// Command mtmsim runs one workload under one page-management solution on
// the simulated multi-tiered memory machine and prints the execution-time
// breakdown and per-tier access distribution.
//
// Usage:
//
//	mtmsim -workload gups -solution mtm
//	mtmsim -workload voltdb -solution tiered-autonuma -scale 64 -ops 1
//	mtmsim -workload gups -solution mtm -faults ebusy-storm
//	mtmsim -workload gups -solution mtm -faults dimm-death -audit
//	mtmsim -workload pingpong -solution mtm -admission
//	mtmsim -workload pingpong -solution mtm -admission-learn -admission-lanes default
//	mtmsim -workload pingpong -solution nomad -budget-mb 6400 -audit
//	mtmsim -workload gups -solution mtm -json
//	mtmsim -workload gups -solution mtm -metrics out.prom -metrics-format prom
//	mtmsim -workload pingpong -solution mtm -fidelity -json
//	mtmsim -list
//
// -json emits the Result as JSON on stdout, which is what the CI
// determinism gate diffs across repeated runs. A failed run
// (e.g. out of memory under -faults capacity-crunch) still emits the
// partial Result with an "error" field, and exits non-zero.
//
// -health enables the tier-health subsystem (poisoning, draining,
// circuit breakers). Scenarios that inject memory errors or tier
// failures (dimm-death, cxl-flaky) enable it themselves, so the flag
// matters only for scenarios without them, such as a page-busy storm
// (ebusy-storm), where it arms the circuit breakers. -audit
// cross-checks the engine's residency, capacity and migration ledgers
// after the run and fails on any drift.
//
// -admission enables migration admission control: every planned move
// passes an ROI gate, a per-tier-pair bandwidth budget, and a ping-pong
// cool-down; refusals appear in the report's "admission:" line and, with
// -spans, as per-decision provenance (see cmd/spanreport -explain).
//
// -admission-learn turns the static ROI floor into an online-learned
// per-tier-pair floor driven by hindsight verdicts (promoted-and-
// reaccessed vs promoted-wasted); the floor at each decision rides in the
// span provenance and the mtm_admission_minroi gauges. -admission-lanes
// default splits traffic into normal/drain/emergency classes with a
// reserved bandwidth slice for the critical lanes, demand-scaled budget
// refill, background-traffic charging, and a starvation watchdog;
// "default" is the only value it accepts. Both imply -admission. The
// admission layer's tuning is fixed: see the constants in
// internal/admission.
//
// -metrics enables the observability layer and writes its export to the
// given file; -metrics-format selects JSON (default) or Prometheus text
// exposition format.
//
// -fidelity enables the ground-truth fidelity oracle: per-interval hot-set
// precision/recall/F1 and rank agreement for the active profiler,
// estimation lag, a migration-outcome lineage (every committed move judged
// in hindsight within eight intervals), and a time×address
// hotness heatmap (truth vs estimate; see cmd/heatreport). The block rides
// in the JSON result, so -fidelity requires -json.
//
// -spans enables the deterministic span tracer and writes the trace to the
// given file; -spans-format selects the self-describing JSONL stream
// (default; the cmd/spanreport input) or Chrome trace-event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Span output is
// byte-identical across runs of the same flags.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the
// simulator itself (real host CPU/heap, not virtual time) for `go tool
// pprof`. The heap profile is taken when the run ends, while the engine
// is still reachable, so its in-use space shows what the simulation
// holds (page records, bit planes, ledgers).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"mtm"
	"mtm/internal/sim"
	"mtm/internal/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body: flags in, report out, exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "gups", "workload name")
		sol       = fs.String("solution", "mtm", "solution name")
		scale     = fs.Int64("scale", 256, "machine scale divisor")
		ops       = fs.Float64("ops", 0.5, "workload length factor")
		seed      = fs.Int64("seed", 1, "simulation seed")
		two       = fs.Bool("two-tier", false, "use the single-socket DRAM+PM machine")
		cxl       = fs.Bool("cxl", false, "use the DRAM + direct-CXL + switched-CXL machine")
		faults    = fs.String("faults", "none", "fault-injection scenario")
		budgetMB  = fs.Int64("budget-mb", 0, "per-interval migration budget in MB at full machine scale, divided by -scale like every capacity (0 = the default 800)")
		admit     = fs.Bool("admission", false, "enable migration admission control (ROI gate, bandwidth budgets, thrash suppression)")
		admLearn  = fs.Bool("admission-learn", false, "enable online MinROI learning on the admission layer (implies -admission)")
		admLanes  = fs.String("admission-lanes", "", "traffic-class lanes: default turns them on (implies -admission)")
		healthOn  = fs.Bool("health", false, "enable the tier-health subsystem (auto-enabled by mem-error/tier-fail scenarios)")
		audit     = fs.Bool("audit", false, "cross-check residency/capacity/migration ledgers after the run")
		jsonOut   = fs.Bool("json", false, "emit the result as JSON instead of the text report")
		fidelity  = fs.Bool("fidelity", false, "enable the ground-truth fidelity oracle (requires -json; adds the Fidelity block)")
		metrics   = fs.String("metrics", "", "enable the metrics layer and write its export to this file")
		metricsFm = fs.String("metrics-format", "json", "metrics file format: json or prom")
		spans     = fs.String("spans", "", "enable the span tracer and write the trace to this file")
		spansFm   = fs.String("spans-format", "jsonl", "span file format: jsonl or chrome")
		cpuProf   = fs.String("cpuprofile", "", "write a host CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a host heap profile to this file")
		list      = fs.Bool("list", false, "list workloads, solutions and fault scenarios")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Flag parsing stops at the first non-flag argument, so every flag
	// after it would be dropped without a word.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mtmsim: unexpected argument %q (mtmsim takes flags only)\n", fs.Arg(0))
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:", mtm.WorkloadNames())
		fmt.Fprintln(stdout, "solutions:", mtm.SolutionNames())
		fmt.Fprintln(stdout, "faults:   ", mtm.FaultScenarios())
		return 0
	}
	if *metricsFm != "json" && *metricsFm != "prom" {
		fmt.Fprintf(stderr, "mtmsim: invalid -metrics-format %q (want json or prom)\n", *metricsFm)
		return 2
	}
	if *spansFm != "jsonl" && *spansFm != "chrome" {
		fmt.Fprintf(stderr, "mtmsim: invalid -spans-format %q (want jsonl or chrome)\n", *spansFm)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["metrics-format"] && *metrics == "" {
		fmt.Fprintf(stderr, "mtmsim: -metrics-format needs -metrics <file>\n")
		return 2
	}
	if set["spans-format"] && *spans == "" {
		fmt.Fprintf(stderr, "mtmsim: -spans-format needs -spans <file>\n")
		return 2
	}
	if *fidelity && !*jsonOut {
		fmt.Fprintf(stderr, "mtmsim: -fidelity output is only emitted with -json (add -json or drop -fidelity)\n")
		return 2
	}
	// A budget of zero or less selects the default, and one of 2^43 MB or
	// more overflows on its way to bytes, so either would run silently at
	// the default budget.
	if *budgetMB < 0 || *budgetMB > math.MaxInt64>>20 {
		fmt.Fprintf(stderr, "mtmsim: invalid -budget-mb %d (want 0 to %d)\n", *budgetMB, int64(math.MaxInt64>>20))
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	cfg := mtm.DefaultConfig()
	cfg.Scale = *scale
	cfg.OpsFactor = *ops
	cfg.Seed = *seed
	cfg.TwoTier = *two
	cfg.CXL = *cxl
	cfg.Faults = *faults
	if *budgetMB > 0 {
		// -scale 0 selects the default scale; divide by the one the run uses.
		s := *scale
		if s <= 0 {
			s = mtm.DefaultScale
		}
		cfg.MigrateBudget = *budgetMB << 20 / s
	}
	cfg.Health = *healthOn
	cfg.Audit = *audit
	cfg.Metrics = *metrics != ""
	if *spans != "" {
		cfg.Trace = &span.Config{}
	}
	cfg.Admission = *admit
	cfg.AdmissionLearn = *admLearn
	cfg.AdmissionLanes = *admLanes
	cfg.Fidelity = *fidelity

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	w, err := mtm.NewWorkload(*wl, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	s, err := mtm.NewSolution(*sol, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	keep := &engineKeeper{Workload: w}
	res, err := mtm.RunWith(cfg, keep, s)
	if *memProf != "" {
		if werr := writeHeapProfile(*memProf); werr != nil {
			fmt.Fprintln(stderr, werr)
		}
	}
	runtime.KeepAlive(keep.e)
	if err != nil && res == nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err != nil {
		// Partial result: the run failed mid-flight (e.g. out of memory).
		// Keep going — the partial breakdown, JSON, and metrics are the
		// post-mortem evidence.
		fmt.Fprintf(stderr, "warning: run failed after %d intervals: %v\n", res.Intervals, err)
	}
	if res.Truncated {
		fmt.Fprintf(stderr, "warning: run truncated after %d intervals without completing; results cover a partial run\n", res.Intervals)
	}

	if *metrics != "" {
		if werr := writeMetrics(*metrics, *metricsFm, res); werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
	}
	if *spans != "" {
		if werr := writeSpans(*spans, *spansFm, res); werr != nil {
			fmt.Fprintln(stderr, werr)
			return 1
		}
	}

	if *jsonOut {
		// The envelope carries the (possibly partial) result plus the run
		// error, so failed runs are still machine-readable.
		out := struct {
			*mtm.Result
			Error string `json:"error,omitempty"`
		}{Result: res}
		if err != nil {
			out.Error = err.Error()
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(out); eerr != nil {
			fmt.Fprintln(stderr, eerr)
			return 1
		}
		if err != nil {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "workload:   %s\n", res.Workload)
	fmt.Fprintf(stdout, "solution:   %s\n", res.Solution)
	fmt.Fprintf(stdout, "completed:  %v (%d intervals)\n", res.Completed, res.Intervals)
	fmt.Fprintf(stdout, "exec time:  %v (virtual)\n", res.ExecTime)
	fmt.Fprintf(stdout, "  app:       %v\n", res.App)
	fmt.Fprintf(stdout, "  profiling: %v (%.1f%%)\n", res.Profiling, pct(res.Profiling.Seconds(), res.ExecTime.Seconds()))
	fmt.Fprintf(stdout, "  migration: %v (%.1f%%)\n", res.Migration, pct(res.Migration.Seconds(), res.ExecTime.Seconds()))
	fmt.Fprintf(stdout, "background copy: %v\n", res.Background)
	fmt.Fprintf(stdout, "promoted:   %d MB, demoted: %d MB\n", res.PromotedBytes>>20, res.DemotedBytes>>20)
	if res.MigrationRetries+res.MigrationAborts+res.DeferredPromotions+res.EmergencyDemotions > 0 {
		fmt.Fprintf(stdout, "robustness: retries=%d aborts=%d wasted=%dKB deferred-promotions=%d emergency-demotions=%d\n",
			res.MigrationRetries, res.MigrationAborts, res.WastedBytes>>10, res.DeferredPromotions, res.EmergencyDemotions)
	}
	if res.AdmissionAdmits+res.AdmissionDefers+res.AdmissionRejects+res.ThrashSuppressed > 0 {
		fmt.Fprintf(stdout, "admission:  admitted=%d deferred=%d rejected=%d thrash-suppressed=%d\n",
			res.AdmissionAdmits, res.AdmissionDefers, res.AdmissionRejects, res.ThrashSuppressed)
	}
	if l := res.AdmissionLanes; l != nil {
		fmt.Fprintf(stdout, "lanes:      normal=%d/%d drain=%d/%d emergency=%d/%d starvations=%d\n",
			l.Normal.Admits, l.Normal.Requests, l.Drain.Admits, l.Drain.Requests,
			l.Emergency.Admits, l.Emergency.Requests, l.Starvations)
	}
	if res.PoisonedPages+res.PoisonRecoveries+res.DrainedBytes+res.BreakerTrips+res.DrainStalls > 0 {
		fmt.Fprintf(stdout, "health:     poisoned=%d recoveries=%d drained=%dKB breaker-trips=%d drain-stalls=%d\n",
			res.PoisonedPages, res.PoisonRecoveries, res.DrainedBytes>>10, res.BreakerTrips, res.DrainStalls)
	}
	topo := cfg.Topology()
	if len(res.TierStates) > 0 {
		fmt.Fprintln(stdout, "tier states:")
		for i, s := range res.TierStates {
			fmt.Fprintf(stdout, "  %-6s %s\n", topo.Nodes[i].Name, s)
		}
	}
	fmt.Fprintln(stdout, "accesses per node:")
	for i, n := range res.NodeAccesses {
		fmt.Fprintf(stdout, "  %-6s %12d (%.1f%%)\n", topo.Nodes[i].Name, n, pct(float64(n), float64(res.TotalAccesses)))
	}
	if err != nil {
		return 1
	}
	return 0
}

// engineKeeper forwards to a workload and keeps the engine Init receives,
// so the engine stays reachable until the heap profile has been written.
type engineKeeper struct {
	sim.Workload
	e *sim.Engine
}

func (k *engineKeeper) Init(e *sim.Engine) {
	k.e = e
	k.Workload.Init(e)
}

// writeHeapProfile writes a heap profile to path after a GC, so in-use
// space counts only live objects.
func writeHeapProfile(path string) error {
	return createFile(path, "", func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

// writeMetrics writes the run's metrics export to path in the requested
// format.
func writeMetrics(path, format string, res *mtm.Result) error {
	if res.Metrics == nil {
		return fmt.Errorf("mtmsim: run produced no metrics export")
	}
	return createFile(path, "mtmsim: ", func(w io.Writer) error {
		if format == "prom" {
			return writing(path, res.Metrics.WriteProm(w))
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return writing(path, enc.Encode(res.Metrics))
	})
}

// writeSpans writes the run's span trace to path in the requested format.
func writeSpans(path, format string, res *mtm.Result) error {
	if res.Spans == nil {
		return fmt.Errorf("mtmsim: run produced no span trace")
	}
	write := res.Spans.WriteJSONL
	if format == "chrome" {
		write = res.Spans.WriteChrome
	}
	return createFile(path, "mtmsim: ", func(w io.Writer) error { return writing(path, write(w)) })
}

// createFile creates path, fills it with write and closes it. A create
// error is returned behind prefix, a write or close error as it is.
func createFile(path, prefix string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s%w", prefix, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// writing names the file an export failed to write; nil stays nil.
func writing(path string, err error) error {
	if err != nil {
		return fmt.Errorf("mtmsim: writing %s: %w", path, err)
	}
	return nil
}

// pct returns part as a percentage of whole, 0 when whole is 0 (a run
// that failed before any time passed or any access was made).
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
