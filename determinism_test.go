package mtm

import (
	"bytes"
	"encoding/json"
	"testing"

	"mtm/internal/admission"
	"mtm/internal/sim"
	"mtm/internal/span"
)

// Every test in this file runs one configuration twice in the same
// process and requires byte-identical output. A second run catches what a
// seeded simulation must never have: map-order iteration, state leaking
// between runs through package globals, or host-dependent values.

// sameTwice calls run twice and fails unless both calls return the same
// bytes.
func sameTwice(t *testing.T, what string, run func() []byte) {
	t.Helper()
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("%s diverged between two runs of the same config:\nfirst:  %s\nsecond: %s", what, a, b)
	}
}

// runPair executes the same (workload, solution) run twice and fails
// unless the JSON-encoded Results are byte-identical. JSON equality covers
// every exported field — virtual times, per-node access counts, migration
// volumes, robustness counters.
func runPair(t *testing.T, cfg Config, wl, sol string) {
	t.Helper()
	sameTwice(t, "Result", func() []byte { return resultJSON(t, cfg, wl, sol) })
}

// TestParallelDeterminismMatrix asserts the determinism invariant for
// every solution/workload pair: the same Config yields the same Result.
func TestParallelDeterminismMatrix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	// Health-enabled variants: poisoning order, drain batches, breaker
	// state and the end-of-run audit. The health machinery never draws
	// from the engine's random stream.
	health := []struct{ name, faults string }{
		{"dimm-death", "dimm-death"},
		{"cxl-flaky", "cxl-flaky"},
	}
	if testing.Short() || sim.RaceEnabled {
		// One PEBS-assisted and one scan-only solution keep the scan
		// passes covered without the full 15x6 sweep. Under -race the
		// full sweep costs ~10x for no extra determinism signal (the CI
		// determinism job runs it race-free at full size), so it trims
		// itself there too.
		for _, sol := range []string{"mtm", "tiered-autonuma"} {
			t.Run("gups/"+sol, func(t *testing.T) { runPair(t, cfg, "gups", sol) })
		}
		for _, h := range health {
			hc := cfg
			hc.Faults = h.faults
			hc.Audit = true
			t.Run("gups/mtm/"+h.name, func(t *testing.T) { runPair(t, hc, "gups", "mtm") })
		}
		// Admission-enabled variants: the ROI gate, pair budgets, waste
		// ledgers and the thrash cool-down — including a run where the
		// ping-pong workload hammers the cool-down and a flaky tier feeds
		// the waste ledger.
		ac := cfg
		ac.Admission = &admission.Config{}
		t.Run("pingpong/mtm/admission", func(t *testing.T) { runPair(t, ac, "pingpong", "mtm") })
		af := ac
		af.Faults = "cxl-flaky"
		af.Audit = true
		t.Run("pingpong/mtm/admission/cxl-flaky", func(t *testing.T) { runPair(t, af, "pingpong", "mtm") })
		// Fidelity-enabled variants: the oracle's truth plane, estimate
		// marking, lag bookkeeping and outcome lineage (see also
		// TestParallelDeterminismFidelity).
		fc := cfg
		fc.Fidelity = true
		t.Run("pingpong/mtm/fidelity", func(t *testing.T) { runPair(t, fc, "pingpong", "mtm") })
		ff := fc
		ff.Faults = "cxl-flaky"
		ff.Audit = true
		t.Run("pingpong/mtm/fidelity/cxl-flaky", func(t *testing.T) { runPair(t, ff, "pingpong", "mtm") })
		return
	}
	for _, wl := range WorkloadNames() {
		for _, sol := range SolutionNames() {
			t.Run(wl+"/"+sol, func(t *testing.T) {
				t.Parallel()
				runPair(t, cfg, wl, sol)
			})
		}
	}
	for _, h := range health {
		for _, sol := range SolutionNames() {
			hc := cfg
			hc.Faults = h.faults
			hc.Audit = true
			t.Run("gups/"+sol+"/"+h.name, func(t *testing.T) {
				t.Parallel()
				runPair(t, hc, "gups", sol)
			})
		}
	}
	// Admission-enabled sweep over every migrating solution, on the
	// workload built to trigger its every code path, with and without a
	// flaky tier feeding the waste ledger.
	for _, sol := range SolutionNames() {
		ac := cfg
		ac.Admission = &admission.Config{}
		t.Run("pingpong/"+sol+"/admission", func(t *testing.T) {
			t.Parallel()
			runPair(t, ac, "pingpong", sol)
		})
		af := ac
		af.Faults = "cxl-flaky"
		af.Audit = true
		t.Run("pingpong/"+sol+"/admission/cxl-flaky", func(t *testing.T) {
			t.Parallel()
			runPair(t, af, "pingpong", sol)
		})
	}
	// Fidelity-enabled sweep: the oracle grades every solution (profiler
	// fidelity where the solution exposes regions, lineage everywhere),
	// with and without a flaky tier aborting moves mid-lineage.
	for _, sol := range SolutionNames() {
		fc := cfg
		fc.Fidelity = true
		t.Run("pingpong/"+sol+"/fidelity", func(t *testing.T) {
			t.Parallel()
			runPair(t, fc, "pingpong", sol)
		})
		ff := fc
		ff.Faults = "cxl-flaky"
		ff.Audit = true
		t.Run("pingpong/"+sol+"/fidelity/cxl-flaky", func(t *testing.T) {
			t.Parallel()
			runPair(t, ff, "pingpong", sol)
		})
	}
}

// TestParallelDeterminismMetrics extends the invariant to metrics-enabled
// runs: the exported counters, time series, and event ring. The Metrics
// field rides inside Result, so runPair's JSON comparison covers the
// whole export.
func TestParallelDeterminismMetrics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Metrics = true
	t.Run("gups/mtm", func(t *testing.T) { runPair(t, cfg, "gups", "mtm") })
	t.Run("gups/tiered-autonuma", func(t *testing.T) { runPair(t, cfg, "gups", "tiered-autonuma") })
	// Faulty variant: abort/retry events and fault-activation events must
	// land in the ring in the same order.
	faulty := cfg
	faulty.Faults = "ebusy-storm"
	t.Run("gups/mtm/ebusy-storm", func(t *testing.T) { runPair(t, faulty, "gups", "mtm") })
}

// spanJSONL runs one traced configuration and returns the JSONL-encoded
// span stream.
func spanJSONL(t *testing.T, cfg Config, wl, sol string) []byte {
	t.Helper()
	res, err := Run(cfg, wl, sol)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Spans == nil {
		t.Fatal("traced run produced no span export")
	}
	var buf bytes.Buffer
	if err := res.Spans.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSpanSet executes the same traced run twice and fails unless the
// JSONL span streams are byte-identical: every timestamp comes from the
// virtual clock and every ID from a per-interval counter.
func runSpanSet(t *testing.T, cfg Config, wl, sol string) {
	t.Helper()
	cfg.Trace = &span.Config{}
	sameTwice(t, "span stream", func() []byte {
		b := spanJSONL(t, cfg, wl, sol)
		if bytes.Count(b, []byte("\n")) < 2 {
			t.Fatal("trace is empty; determinism comparison is vacuous")
		}
		return b
	})
}

// TestParallelDeterminismSpans extends the determinism invariant to the
// span tracer across the solution x workload matrix.
func TestParallelDeterminismSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	if testing.Short() || sim.RaceEnabled {
		// Same trim rationale as TestParallelDeterminismMatrix.
		for _, sol := range []string{"mtm", "tiered-autonuma"} {
			t.Run("gups/"+sol, func(t *testing.T) { runSpanSet(t, cfg, "gups", sol) })
		}
		return
	}
	for _, wl := range WorkloadNames() {
		for _, sol := range SolutionNames() {
			t.Run(wl+"/"+sol, func(t *testing.T) {
				t.Parallel()
				runSpanSet(t, cfg, wl, sol)
			})
		}
	}
}

// TestParallelDeterminismSpansFaults covers the fault-injected variant:
// retry, backoff and abort annotations ride in the transfer spans.
func TestParallelDeterminismSpansFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Faults = "ebusy-storm"
	runSpanSet(t, cfg, "gups", "mtm")
}

// TestParallelDeterminismFaults extends the invariant to fault-injected
// runs: the injector draws from its own stream, so injected EBUSY storms
// must not break determinism either.
func TestParallelDeterminismFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Faults = "ebusy-storm"
	runPair(t, cfg, "gups", "mtm")
}

// TestParallelDeterminismNomad pins the determinism invariant on the
// non-exclusive tiering path explicitly: shadow retention, write
// invalidation, background sync and flip demotion all mutate shared
// state (the per-page shadow index, the per-node shadow ledger, the
// free-demotion counters), and all of it must stay bit-identical — on the workload
// whose churn exercises every one of those transitions,
// with and without a flaky CXL tier aborting moves mid-retention. Audit
// is on so the end-of-run residency/shadow reconciliation runs too.
func TestParallelDeterminismNomad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Audit = true
	t.Run("pingpong/nomad", func(t *testing.T) { runPair(t, cfg, "pingpong", "nomad") })
	flaky := cfg
	flaky.Faults = "cxl-flaky"
	t.Run("pingpong/nomad/cxl-flaky", func(t *testing.T) { runPair(t, flaky, "pingpong", "nomad") })
}

// TestParallelDeterminismNomadSpans extends the Nomad invariant to the
// span stream: shadow sync events, flip-demotion provenance and the
// admission layer's flip decisions must serialize identically.
func TestParallelDeterminismNomadSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Audit = true
	t.Run("pingpong/nomad", func(t *testing.T) { runSpanSet(t, cfg, "pingpong", "nomad") })
	flaky := cfg
	flaky.Faults = "cxl-flaky"
	t.Run("pingpong/nomad/cxl-flaky", func(t *testing.T) { runSpanSet(t, flaky, "pingpong", "nomad") })
}

// TestParallelDeterminismAdmissionSpans pins the determinism invariant
// on admission provenance: every admit/defer/reject decision span — ROI,
// threshold, allowance, pair budget — must appear identically, in the
// same order, even while a flaky tier keeps the waste ledger and the
// breaker hook busy.
func TestParallelDeterminismAdmissionSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Admission = &admission.Config{}
	cfg.Faults = "cxl-flaky"
	cfg.Audit = true
	runSpanSet(t, cfg, "pingpong", "mtm")
}

// TestParallelDeterminismHealthSpans pins the determinism invariant on
// the health provenance trail: poison, transition, breaker-trip and
// drain spans carry virtual-clock timestamps and interval-scoped IDs, so
// the JSONL stream of a run that kills a DIMM and offlines its tier must
// be byte-identical.
func TestParallelDeterminismHealthSpans(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Faults = "dimm-death"
	cfg.Audit = true
	runSpanSet(t, cfg, "gups", "mtm")
}

// fidelityJSON runs one fidelity-enabled configuration and returns the
// marshaled Fidelity block.
func fidelityJSON(t *testing.T, cfg Config, wl, sol string) []byte {
	t.Helper()
	res, err := Run(cfg, wl, sol)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Fidelity == nil {
		t.Fatal("fidelity-enabled run produced no Fidelity block")
	}
	b, err := json.Marshal(res.Fidelity)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelDeterminismFidelity pins the oracle's determinism contract:
// the hot-set cutoff is a pure function of the truth histogram and the
// lineage ledger fills in commit order — so the whole Fidelity block
// (accuracy means, lag tallies, heatmap rows, per-rule outcome lineage)
// must be byte-identical across runs, including under fault injection,
// and the outcome span events ride the same guarantee (the span stream is
// compared too).
func TestParallelDeterminismFidelity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.Fidelity = true
	cfg.Admission = &admission.Config{}
	variants := []struct{ name, faults string }{
		{"plain", ""},
		{"cxl-flaky", "cxl-flaky"},
	}
	for _, v := range variants {
		vc := cfg
		vc.Faults = v.faults
		vc.Audit = v.faults != ""
		t.Run("pingpong/mtm/"+v.name, func(t *testing.T) {
			sameTwice(t, "Fidelity block", func() []byte { return fidelityJSON(t, vc, "pingpong", "mtm") })
		})
		t.Run("pingpong/mtm/"+v.name+"/spans", func(t *testing.T) {
			runSpanSet(t, vc, "pingpong", "mtm")
		})
	}
}

// TestParallelDeterminismLearn pins the adaptive admission layer's
// determinism contract: the lineage ledger fills in commit order and
// resolves at interval end, where lane counters and the demand-scaled
// refill also update — so the whole Result (including the learned
// floors' downstream effects and the AdmissionLanes block) and the span
// stream (including per-decision floor attributes) must be
// byte-identical across runs, with and without fault injection.
func TestParallelDeterminismLearn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	cfg.OpsFactor = 0.25
	cfg.AdmissionLearn = true
	cfg.AdmissionLanes = "default"
	variants := []struct{ name, faults string }{
		{"plain", ""},
		{"cxl-flaky", "cxl-flaky"},
	}
	for _, v := range variants {
		vc := cfg
		vc.Faults = v.faults
		vc.Audit = v.faults != ""
		t.Run("pingpong/mtm/"+v.name, func(t *testing.T) {
			runPair(t, vc, "pingpong", "mtm")
		})
		t.Run("pingpong/mtm/"+v.name+"/spans", func(t *testing.T) {
			runSpanSet(t, vc, "pingpong", "mtm")
		})
	}
}

// resultJSON runs and marshals the whole Result.
func resultJSON(t *testing.T, cfg Config, wl, sol string) []byte {
	t.Helper()
	res, err := Run(cfg, wl, sol)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
