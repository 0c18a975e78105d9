// Package mtm is a simulation-backed reproduction of "MTM: Rethinking
// Memory Profiling and Migration for Multi-Tiered Large Memory"
// (EuroSys '24). It provides:
//
//   - a virtual-time multi-tiered memory substrate (tiers, software page
//     tables, huge pages, PEBS-style sampling, migration mechanisms);
//   - the MTM page-management system: adaptive profiling with overhead
//     control, the global fast-promotion/slow-demotion policy, and the
//     adaptive asynchronous migration mechanism;
//   - the paper's seven baselines and six workloads;
//   - experiment drivers regenerating every table and figure of the
//     evaluation (see the cmd/experiments binary).
//
// Quick start:
//
//	cfg := mtm.DefaultConfig()
//	res, err := mtm.Run(cfg, "gups", "mtm")
//	// res.ExecTime is the virtual execution time; res.Profiling and
//	// res.Migration are the overheads on the critical path.
//
// All times are virtual (deterministic nanosecond accounting), so results
// are reproducible on any host. The Scale knob shrinks the paper's
// 1.7 TB testbed and its workloads uniformly; ratios between footprints,
// capacities, migration budgets, and profiling budgets are preserved.
package mtm

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mtm/internal/fault"
	"mtm/internal/migrate"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/workload"
)

// Config selects the machine, the scale, and shared run parameters.
type Config struct {
	// Scale divides the paper's capacities, footprints, interval and
	// migration budget; 0 selects DefaultScale (64). Validate rejects a
	// negative Scale.
	Scale int64
	// Seed makes runs deterministic; runs with equal seeds and configs
	// produce identical virtual-time results.
	Seed int64
	// Threads is the application thread count (8 in the paper).
	Threads int
	// OpsFactor scales workload length (1.0 = paper-equivalent runtime);
	// 0 selects 1. Validate rejects a negative or non-finite OpsFactor.
	OpsFactor float64
	// TwoTier selects the single-socket DRAM+PM machine of §9.6 instead
	// of the two-socket four-tier Optane box.
	TwoTier bool
	// CXL selects a single-socket DRAM + direct-CXL + switched-CXL
	// machine (three tiers, all expansion CPU-less) — the §8 generality
	// configuration. Takes precedence over TwoTier.
	CXL bool
	// Interval is the profiling interval; 0 selects 10s/Scale.
	Interval time.Duration
	// MigrateBudget is the per-profiling-interval migration volume; 0
	// selects 800MB/Scale — the paper's N=200MB cap per *migration*
	// interval with four migration rounds inside each 10 s profiling
	// interval.
	MigrateBudget int64
	// OverheadTarget is the profiling overhead constraint; 0 selects 5%.
	OverheadTarget float64
	// Alpha is the EMA weight of Equation 2; 0 selects 0.5. (Set to a
	// negative value to force 0, i.e. history-only decisions.)
	Alpha float64
	// Faults names a fault-injection scenario (see fault.Scenarios);
	// "" or "none" runs without injection. The injector draws from its
	// own stream, seeded with Seed+1, so fault decisions never perturb
	// the engine's randomness.
	Faults string
	// Metrics enables the in-process observability layer: counters,
	// gauges, histograms, and the bounded event ring, sampled once per
	// profiling interval and returned in Result.Metrics. Recording is
	// deterministic (the export is part of the determinism-gate
	// comparison); disabled, the run is bit-identical to a build without
	// the metrics layer.
	Metrics bool
	// Trace, when non-nil, enables the deterministic span tracer: the
	// whole interval pipeline (profiling scans, classification decisions,
	// migration transfers, emergency events) is recorded as causally
	// linked spans on the virtual clock and returned in Result.Spans.
	// The zero Config selects the defaults. Nil adds zero overhead to the
	// hot path.
	Trace *span.Config
	// Admission enables migration admission control: every planned page
	// move passes an ROI gate, a per-tier-pair token-bucket bandwidth
	// budget, and a ping-pong cool-down before any page is touched.
	// Refusals (defer/reject) are recorded in the Result counters, the
	// metrics layer, and — with Trace enabled — as span provenance with
	// the estimated ROI. Its tuning is fixed (the admission package's
	// constants). Off, it adds zero overhead and keeps results
	// bit-identical to a build without the layer.
	Admission bool
	// AdmissionLearn enables online MinROI learning on the admission
	// layer: per-tier-pair promotion floors are adjusted once per interval
	// from hindsight verdicts (promoted-and-reaccessed vs promoted-wasted)
	// with bounded multiplicative steps and an evidence floor that freezes
	// adaptation when samples are scarce. Implies Admission. Learned
	// floors appear in Result, the mtm_admission_minroi gauges, and — with
	// Trace — as per-decision span provenance.
	AdmissionLearn bool
	// AdmissionLanes turns on traffic-class lanes for the admission layer:
	// "" leaves them off and "default" turns them on; Validate rejects any
	// other value. Lanes split migration traffic into
	// normal/drain/emergency classes with strict-priority admission, a
	// reserved bandwidth slice for the critical classes, demand-scaled
	// budget refill, background (shadow-sync/profiling) traffic charging,
	// and a starvation watchdog. Implies Admission, like AdmissionLearn.
	AdmissionLanes string
	// Health enables the tier-health subsystem (memory-error poisoning,
	// tier draining/offlining, migration circuit breakers) even without a
	// fault scenario. Scenarios that inject memory errors or tier
	// failures (dimm-death, cxl-flaky) enable it automatically. Enabled
	// with no such scenario, every tier simply stays Online.
	Health bool
	// Audit runs the end-of-run invariant auditor: page-table residency,
	// per-tier capacity accounting, and the migration/metrics counters
	// are cross-checked, and any drift is returned as a *sim.AuditError
	// joined with the run's own error.
	Audit bool
	// Fidelity enables the ground-truth fidelity oracle: once per
	// interval the engine samples per-page access truth, grades the
	// active profiler's hot set against it (precision/recall/F1, rank
	// agreement, estimation lag), and resolves a hindsight verdict for
	// every committed migration within sim.DefaultFidelityHorizon
	// intervals. Results land in Result.Fidelity (omitted when disabled so
	// fidelity-off JSON is unchanged), the mtm_fidelity_* metrics family,
	// and outcome span events. The oracle charges no virtual time.
	Fidelity bool
}

// DefaultScale mirrors workload.DefaultScale.
const DefaultScale = workload.DefaultScale

// DefaultConfig returns the standard evaluation configuration.
func DefaultConfig() Config {
	return Config{Scale: DefaultScale, Seed: 1, Threads: 8, OpsFactor: 1}
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = DefaultScale
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.OpsFactor <= 0 {
		c.OpsFactor = 1
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second / time.Duration(c.Scale)
	}
	if c.MigrateBudget <= 0 {
		c.MigrateBudget = 800 * tier.MB / c.Scale
	}
	if c.OverheadTarget <= 0 {
		c.OverheadTarget = 0.05
	}
	if c.AdmissionLearn || c.AdmissionLanes != "" {
		c.Admission = true
	}
	return c
}

// Validate reports configurations that would produce a degenerate engine.
// Run calls it; construct-your-own-engine callers should too. The
// resolved Interval and MigrateBudget must stay positive — at extreme
// Scale values (more than 10s of nanoseconds, or more than 800 MB in
// bytes) the defaults would otherwise truncate to zero and the engine
// would spin on a zero-length interval or never migrate. A negative
// Scale and a negative or non-finite OpsFactor are rejected rather than
// replaced by the defaults that zero selects.
func (c Config) Validate() error {
	if c.Scale < 0 {
		return fmt.Errorf("mtm: negative Scale %d (0 selects the default)", c.Scale)
	}
	if c.OpsFactor < 0 || math.IsNaN(c.OpsFactor) || math.IsInf(c.OpsFactor, 0) {
		return fmt.Errorf("mtm: OpsFactor %v is negative or not finite (0 selects the default)", c.OpsFactor)
	}
	r := c.withDefaults()
	if r.Interval <= 0 {
		return fmt.Errorf("mtm: config resolves to a non-positive Interval (Scale=%d too extreme; set Interval explicitly)", r.Scale)
	}
	if r.MigrateBudget <= 0 {
		return fmt.Errorf("mtm: config resolves to a non-positive MigrateBudget (Scale=%d too extreme; set MigrateBudget explicitly)", r.Scale)
	}
	if !fault.Valid(r.Faults) {
		return fmt.Errorf("mtm: unknown fault scenario %q (have %v)", r.Faults, fault.Scenarios())
	}
	if r.AdmissionLanes != "" && r.AdmissionLanes != "default" {
		return fmt.Errorf("mtm: unknown admission lanes %q (want \"\" or \"default\")", r.AdmissionLanes)
	}
	return nil
}

// Topology returns the machine the config selects.
func (c Config) Topology() *tier.Topology {
	c = c.withDefaults()
	switch {
	case c.CXL:
		return tier.CXLTopology(c.Scale)
	case c.TwoTier:
		return tier.TwoTierTopology(96*tier.GB/c.Scale, 756*tier.GB/c.Scale)
	}
	return tier.OptaneTopology(c.Scale)
}

// NewEngine builds a configured simulation engine. An invalid Faults
// scenario is ignored here (Validate reports it); injector attachment
// only happens for known scenarios.
func NewEngine(c Config) *sim.Engine {
	c = c.withDefaults()
	e := sim.NewEngine(c.Topology(), c.Seed)
	e.Threads = c.Threads
	e.Interval = c.Interval
	if c.Metrics {
		e.EnableMetrics()
	}
	if c.Trace != nil {
		e.EnableSpans(*c.Trace)
	}
	enableHealth := c.Health
	if inj, err := fault.NewScenario(c.Faults, c.Seed+1); err == nil && inj != nil {
		e.SetFaultPlane(inj)
		if inj.Cfg.UsesHealth() {
			enableHealth = true
		}
	}
	if enableHealth {
		// After Interval is set: the breaker cool-down is twice the
		// profiling interval.
		e.EnableHealth()
	}
	if c.Admission {
		// Also after Interval is set: budgets refill per profiling
		// interval and the thrash cool-down is twice of it.
		e.EnableAdmission(c.AdmissionLearn, c.AdmissionLanes == "default")
	}
	if c.Fidelity {
		// Last, after EnableMetrics/EnableSpans, so the oracle's
		// instruments and outcome events register with them.
		e.EnableFidelity()
	}
	return e
}

// workloadConfig adapts Config for the workload package.
func (c Config) workloadConfig() workload.Config {
	c = c.withDefaults()
	return workload.Config{Scale: c.Scale, OpsFactor: c.OpsFactor}
}

// workloads is the one workload table, in WorkloadNames order; paper
// marks the Table 2 applications.
var workloads = []struct {
	name  string
	paper bool
	mk    func(workload.Config) sim.Workload
}{
	{"gups", true, func(c workload.Config) sim.Workload { return workload.NewGUPS(c) }},
	{"voltdb", true, func(c workload.Config) sim.Workload { return workload.NewVoltDB(c) }},
	{"cassandra", true, func(c workload.Config) sim.Workload { return workload.NewCassandra(c) }},
	{"bfs", true, func(c workload.Config) sim.Workload { return workload.NewBFS(c) }},
	{"sssp", true, func(c workload.Config) sim.Workload { return workload.NewSSSP(c) }},
	{"spark", true, func(c workload.Config) sim.Workload { return workload.NewSpark(c) }},
	{"pingpong", false, func(c workload.Config) sim.Workload { return workload.NewPingPong(c) }},
}

// NewWorkload builds one of the workloads by name (see WorkloadNames).
func NewWorkload(name string, c Config) (sim.Workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.mk(c.workloadConfig()), nil
		}
	}
	return nil, fmt.Errorf("mtm: unknown workload %q (have %v)", name, WorkloadNames())
}

// WorkloadNames lists the available workloads. The first six are the
// paper's Table 2 applications (see PaperWorkloadNames); pingpong is the
// synthetic thrash generator for the admission-control experiments.
func WorkloadNames() []string { return workloadNames(false) }

// PaperWorkloadNames lists only the Table 2 applications — the set every
// paper table and figure iterates over.
func PaperWorkloadNames() []string { return workloadNames(true) }

func workloadNames(paperOnly bool) []string {
	var names []string
	for _, w := range workloads {
		if w.paper || !paperOnly {
			names = append(names, w.name)
		}
	}
	return names
}

// alpha resolves Alpha: 0 selects 0.5 and a negative value selects 0.
// withDefaults leaves Alpha as given, because every entry point applies
// it again and a resolved 0 would then read as "select 0.5".
func (c Config) alpha() float64 {
	switch {
	case c.Alpha == 0:
		return 0.5
	case c.Alpha < 0:
		return 0
	}
	return c.Alpha
}

// mtmProfiler builds the adaptive profiler with config-applied knobs and
// optional feature ablations.
func (c Config) mtmProfiler(mod func(*profiler.MTMConfig)) *profiler.MTM {
	c = c.withDefaults()
	pc := profiler.DefaultMTMConfig()
	pc.OverheadTarget = c.OverheadTarget
	pc.Alpha = c.alpha()
	if mod != nil {
		mod(&pc)
	}
	return profiler.NewMTM(pc)
}

// mtmSolution builds MTM's policy and mechanism over profiler p.
func (c Config) mtmSolution(label string, p profiler.Profiler, mech migrate.Mechanism) *policy.MTM {
	return policy.NewMTMVariant(label, p, mech, c.withDefaults().MigrateBudget)
}

// solutions lists the constructible solutions: the paper's, then
// non-exclusive tiering (shadow-frame retention, zero-copy clean
// demotion), then the §9.3 ablation variants. Each constructor receives
// a Config with defaults applied.
var solutions = []struct {
	name string
	mk   func(Config) sim.Solution
}{
	{"mtm", mtmWith("MTM", nil)},
	{"first-touch", func(Config) sim.Solution { return policy.NewFirstTouch() }},
	{"slow-first", func(Config) sim.Solution { return policy.NewSlowFirst() }},
	{"hmc", func(Config) sim.Solution { return policy.NewHMC() }},
	{"vanilla-tiered-autonuma", func(c Config) sim.Solution { return policy.NewTieredAutoNUMA(false, c.MigrateBudget) }},
	{"tiered-autonuma", func(c Config) sim.Solution { return policy.NewTieredAutoNUMA(true, c.MigrateBudget) }},
	{"autotiering", func(c Config) sim.Solution { return policy.NewAutoTiering(c.MigrateBudget) }},
	{"hemem", func(c Config) sim.Solution { return policy.NewHeMem(c.MigrateBudget) }},
	{"nomad", func(c Config) sim.Solution { return policy.NewNomad(c.mtmProfiler(nil), c.MigrateBudget) }},
	{"mtm-wo-amr", mtmWith("MTM w/o AMR", func(p *profiler.MTMConfig) { p.AdaptiveRegions = false })},
	{"mtm-wo-pebs", mtmWith("MTM w/o PEBS", func(p *profiler.MTMConfig) { p.UsePEBS = false })},
	{"mtm-wo-aps", mtmWith("MTM w/o APS", func(p *profiler.MTMConfig) { p.AdaptiveSampling = false })},
	{"mtm-wo-oc", mtmWith("MTM w/o OC", func(p *profiler.MTMConfig) {
		p.OverheadControl = false
		p.TauM = 0
		p.TauS = 0
	})},
	{"mtm-wo-async", func(c Config) sim.Solution {
		return c.mtmSolution("MTM w/o async migration", c.mtmProfiler(nil), &migrate.Adaptive{ForceSync: true, WriteRate: -1})
	}},
	{"mtm-thermostat-prof", func(c Config) sim.Solution {
		return c.mtmSolution("Thermostat profiling + MTM migration", profiler.NewThermostat(), migrate.NewAdaptive())
	}},
	{"mtm-autonuma-prof", func(c Config) sim.Solution {
		return c.mtmSolution("tiered-AutoNUMA profiling + MTM migration", profiler.NewSequentialScan(true), migrate.NewAdaptive())
	}},
}

// mtmWith is the constructor of MTM over its adaptive profiler with the
// feature ablation mod applied (nil: none) and the adaptive mechanism.
func mtmWith(label string, mod func(*profiler.MTMConfig)) func(Config) sim.Solution {
	return func(c Config) sim.Solution { return c.mtmSolution(label, c.mtmProfiler(mod), migrate.NewAdaptive()) }
}

// NewSolution builds a page-management solution by name (see
// SolutionNames).
func NewSolution(name string, c Config) (sim.Solution, error) {
	for _, s := range solutions {
		if s.name == name {
			return s.mk(c.withDefaults()), nil
		}
	}
	return nil, fmt.Errorf("mtm: unknown solution %q (have %v)", name, SolutionNames())
}

// SolutionNames lists all constructible solutions, sorted.
func SolutionNames() []string {
	names := make([]string, len(solutions))
	for i, s := range solutions {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}

// FaultScenarios lists the named fault-injection scenarios usable in
// Config.Faults (and mtmsim -faults).
func FaultScenarios() []string { return fault.Scenarios() }

// Result is the outcome of a run (alias of the engine's result type).
type Result = sim.Result

// MaxIntervals bounds any single run; at the default scale one interval
// is ~156 ms of virtual time, so this is a generous safety limit.
const MaxIntervals = 4096

// Run executes a workload under a solution and returns the summary. A
// non-nil Result may accompany a non-nil error (e.g. ErrOutOfMemory): it
// covers the partial run up to the failure.
func Run(c Config, workloadName, solutionName string) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	w, err := NewWorkload(workloadName, c)
	if err != nil {
		return nil, err
	}
	s, err := NewSolution(solutionName, c)
	if err != nil {
		return nil, err
	}
	return run(c, NewEngine(c), w, s)
}

// RunWith executes a caller-built workload and solution on a fresh
// engine. Like Run, a partial Result may accompany an error.
func RunWith(c Config, w sim.Workload, s sim.Solution) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c = c.withDefaults()
	return run(c, NewEngine(c), w, s)
}

// run executes the workload and, when Config.Audit is set, cross-checks
// the engine's ledgers afterwards; an audit failure joins the run error.
func run(c Config, e *sim.Engine, w sim.Workload, s sim.Solution) (*Result, error) {
	res, err := sim.Run(e, w, s, MaxIntervals)
	if c.Audit {
		err = errors.Join(err, e.Audit())
	}
	return res, err
}
