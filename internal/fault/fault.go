// Package fault is the deterministic fault-injection layer of the
// simulator. Real multi-tiered kernels live with routine failure:
// move_pages() returns EBUSY/EAGAIN for pinned or locked pages, tiers fill
// up mid-migration, PEBS drops samples under interrupt storms, and link
// bandwidth degrades under contention from other tenants. The happy-path
// simulator hides all of that; an Injector puts it back, seed-driven and
// fully deterministic, so robustness experiments are as reproducible as
// performance ones.
//
// The Injector implements sim.FaultPlane. All randomness comes from its
// own rng.Rand, never the engine's: attaching an injector whose classes
// are all disabled leaves a run bit-identical to one with no injector at
// all, and enabling a class perturbs only the decisions that class owns.
//
// Failure classes (each with a real-kernel analogue, see DESIGN.md):
//
//   - page-busy: per-page transient migration failure (EBUSY on a pinned
//     or concurrently-accessed page), with a wasted-work time penalty;
//   - tier-pressure: a destination tier transiently signals allocation
//     pressure (watermarks breached; admission control should back off);
//   - sample-drop: PEBS interrupt storms lose a fraction of samples;
//   - link-degrade: a socket→node link runs at a fraction of its rated
//     bandwidth for a window of intervals;
//   - mem-error: a tier throws uncorrectable memory errors that poison
//     resident pages (the HWPOISON soft-offline regime), feeding the
//     tier-health state machine in internal/health;
//   - tier-flaky: copies *into* one tier fail at a high per-attempt rate
//     (a dying DIMM or a flaky CXL link), the input that trips migration
//     circuit breakers.
package fault

import (
	"sort"
	"time"

	"mtm/internal/rng"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// DefaultBusyPenalty is the wasted kernel time of one failed page-move
// attempt (lock the page, discover it is busy, unwind) when a scenario
// does not set its own.
const DefaultBusyPenalty = 3 * time.Microsecond

// Config describes the failure classes an Injector drives. The zero value
// injects nothing. Probabilities are in [0, 1]; a "duty" is the fraction
// of profiling intervals during which a class is active (its storm
// windows), drawn independently per interval.
type Config struct {
	// PageBusyProb is the per-attempt probability that copying one page
	// fails with an EBUSY-style transient error while the class is active.
	PageBusyProb float64
	// PageBusyDuty is the fraction of intervals the EBUSY class is active
	// (1 = every interval).
	PageBusyDuty float64
	// BusyPenalty is the wasted kernel time charged per failed attempt;
	// 0 selects DefaultBusyPenalty.
	BusyPenalty time.Duration

	// PressureProb is the per-node, per-interval probability that a tier
	// signals transient allocation pressure. Admission control defers
	// promotions into pressured tiers.
	PressureProb float64

	// SampleDropDuty is the fraction of intervals a PEBS drop storm is
	// active; SampleDropFrac is the fraction of samples lost during one.
	SampleDropDuty float64
	SampleDropFrac float64

	// LinkDegradeDuty is the fraction of intervals any given socket→node
	// link is degraded; LinkDegradeFactor (>1) divides its bandwidth.
	LinkDegradeDuty   float64
	LinkDegradeFactor float64

	// CapacityTaxFrac models co-tenant memory consumption: the engine
	// reserves this fraction of every node's capacity up front (see
	// sim.SetFaultPlane), so workloads sized for the full machine hit real
	// exhaustion and exercise the emergency-reclaim / OOM path.
	CapacityTaxFrac float64

	// MemErrorProb is the per-interval probability that the target tier
	// throws uncorrectable memory errors; each event poisons
	// MemErrorBurst resident pages (HWPOISON soft-offline).
	MemErrorProb float64
	// MemErrorBurst is the pages poisoned per mem-error event (0 → 1).
	MemErrorBurst int
	// MemErrorNode selects the tier the errors strike, as a node index
	// into the machine; out-of-range values (including the default -1 of
	// LastNode) clamp to the machine's last node at Attach time.
	MemErrorNode int

	// TierFailProb is the per-attempt probability that copying a page
	// INTO the target tier fails while the class's storm window is open —
	// the sustained-failure input that trips migration circuit breakers.
	TierFailProb float64
	// TierFailDuty is the fraction of intervals the tier-flaky class is
	// active (0 → 1).
	TierFailDuty float64
	// TierFailNode selects the flaky destination tier; clamping rules
	// match MemErrorNode.
	TierFailNode int
}

// LastNode selects the machine's last (slowest) node for MemErrorNode /
// TierFailNode.
const LastNode = -1

// UsesHealth reports whether the config enables a failure class that
// requires the tier-health subsystem (page poisoning or destination-tier
// copy failures). The engine auto-enables health for such scenarios.
func (c Config) UsesHealth() bool {
	return c.MemErrorProb > 0 || c.TierFailProb > 0
}

// Injector is a deterministic fault source implementing sim.FaultPlane.
// Not safe for concurrent use (the engine is single-threaded).
type Injector struct {
	Cfg Config

	rng     *rng.Rand
	sockets int
	nodes   int

	busyActive  bool
	dropActive  bool
	pressured   []bool
	degraded    [][]bool
	memErrNode  int // resolved target node of the mem-error class
	flakyNode   int // resolved target node of the tier-flaky class
	memErrPages int // pages to poison this interval (0 outside a burst)
	flakyActive bool

	// Decision counters, for tests and reporting.
	BusyInjected      int64
	MemErrorsInjected int64
	TierFailInjected  int64
}

// NewInjector builds an injector over cfg with its own deterministic RNG.
func NewInjector(cfg Config, seed int64) *Injector {
	if cfg.BusyPenalty <= 0 {
		cfg.BusyPenalty = DefaultBusyPenalty
	}
	return &Injector{Cfg: cfg, rng: rng.New(seed)}
}

// Attach sizes the injector's per-node state to the machine. The engine
// calls it from SetFaultPlane.
func (in *Injector) Attach(sockets, nodes int) {
	in.sockets, in.nodes = sockets, nodes
	in.pressured = make([]bool, nodes)
	in.degraded = make([][]bool, sockets)
	for s := range in.degraded {
		in.degraded[s] = make([]bool, nodes)
	}
	in.memErrNode = clampNode(in.Cfg.MemErrorNode, nodes)
	in.flakyNode = clampNode(in.Cfg.TierFailNode, nodes)
}

// clampNode resolves a configured target node against the machine:
// out-of-range indices (including LastNode) clamp to the last node, so a
// scenario written for the four-tier Optane box still strikes a real
// tier on a two-tier machine.
func clampNode(n, nodes int) int {
	if n < 0 || n >= nodes {
		return nodes - 1
	}
	return n
}

// BeginInterval redraws the storm windows for one profiling interval.
// Draws happen only for enabled classes, in a fixed order, so a config
// with one class enabled consumes exactly that class's share of the
// random stream.
func (in *Injector) BeginInterval(interval int) {
	if in.Cfg.PageBusyProb > 0 {
		duty := in.Cfg.PageBusyDuty
		if duty <= 0 {
			duty = 1
		}
		in.busyActive = in.rng.Float64() < duty
	}
	if in.Cfg.PressureProb > 0 {
		for n := range in.pressured {
			in.pressured[n] = in.rng.Float64() < in.Cfg.PressureProb
		}
	}
	if in.Cfg.SampleDropDuty > 0 && in.Cfg.SampleDropFrac > 0 {
		in.dropActive = in.rng.Float64() < in.Cfg.SampleDropDuty
	}
	if in.Cfg.LinkDegradeDuty > 0 && in.Cfg.LinkDegradeFactor > 1 {
		for s := range in.degraded {
			for n := range in.degraded[s] {
				in.degraded[s][n] = in.rng.Float64() < in.Cfg.LinkDegradeDuty
			}
		}
	}
	// The health classes draw strictly after the original four so that
	// configs without them consume the exact same stream as before.
	if in.Cfg.MemErrorProb > 0 {
		in.memErrPages = 0
		if in.rng.Float64() < in.Cfg.MemErrorProb {
			burst := in.Cfg.MemErrorBurst
			if burst <= 0 {
				burst = 1
			}
			in.memErrPages = burst
			in.MemErrorsInjected += int64(burst)
		}
	}
	if in.Cfg.TierFailProb > 0 {
		duty := in.Cfg.TierFailDuty
		if duty <= 0 {
			duty = 1
		}
		in.flakyActive = in.rng.Float64() < duty
	}
}

// MemErrorPages returns how many pages the mem-error class poisons on
// node n this interval (an optional extension beyond sim.FaultPlane; the
// health layer reads it at interval start).
func (in *Injector) MemErrorPages(n tier.NodeID) int {
	if int(n) != in.memErrNode {
		return 0
	}
	return in.memErrPages
}

// PageBusy reports whether one attempt to copy page idx of v to dst fails
// with a transient EBUSY, and the wasted kernel time of the attempt.
func (in *Injector) PageBusy(v *vm.VMA, idx int, dst tier.NodeID) (bool, time.Duration) {
	if in.busyActive && in.Cfg.PageBusyProb > 0 {
		if in.rng.Float64() < in.Cfg.PageBusyProb {
			in.BusyInjected++
			return true, in.Cfg.BusyPenalty
		}
	}
	// tier-flaky draws after page-busy (fixed class order) and only for
	// attempts aimed at the flaky destination.
	if in.flakyActive && int(dst) == in.flakyNode {
		if in.rng.Float64() < in.Cfg.TierFailProb {
			in.TierFailInjected++
			return true, in.Cfg.BusyPenalty
		}
	}
	return false, 0
}

// DestPressure reports whether node n is under transient allocation
// pressure this interval.
func (in *Injector) DestPressure(n tier.NodeID) bool {
	if int(n) < 0 || int(n) >= len(in.pressured) {
		return false
	}
	return in.pressured[n]
}

// SampleDropFrac returns the fraction of PEBS samples lost this interval
// (0 outside a storm).
func (in *Injector) SampleDropFrac() float64 {
	if !in.dropActive {
		return 0
	}
	return in.Cfg.SampleDropFrac
}

// CapacityTax returns the fraction of every node's capacity held by
// simulated co-tenants. The engine reads it once at SetFaultPlane (an
// optional extension beyond sim.FaultPlane).
func (in *Injector) CapacityTax() float64 { return in.Cfg.CapacityTaxFrac }

// ActiveClasses names the failure classes whose storm windows are open
// this interval, in a fixed order. The engine's metrics layer turns each
// into a fault-activation event; the always-on capacity tax is not listed
// (it is a standing condition, not a storm).
func (in *Injector) ActiveClasses() []string {
	var out []string
	if in.busyActive {
		out = append(out, "page-busy")
	}
	for _, p := range in.pressured {
		if p {
			out = append(out, "tier-pressure")
			break
		}
	}
	if in.dropActive {
		out = append(out, "sample-drop")
	}
degrade:
	for _, row := range in.degraded {
		for _, d := range row {
			if d {
				out = append(out, "link-degrade")
				break degrade
			}
		}
	}
	if in.memErrPages > 0 {
		out = append(out, "mem-error")
	}
	if in.flakyActive {
		out = append(out, "tier-flaky")
	}
	return out
}

// LinkBWFactor returns the bandwidth-degradation divisor (>= 1) of the
// socket→node link this interval.
func (in *Injector) LinkBWFactor(socket int, n tier.NodeID) float64 {
	if socket < 0 || socket >= len(in.degraded) {
		return 1
	}
	row := in.degraded[socket]
	if int(n) < 0 || int(n) >= len(row) || !row[n] {
		return 1
	}
	return in.Cfg.LinkDegradeFactor
}

// scenarios maps named scenarios to their configs. Names are part of the
// CLI surface (mtmsim -faults).
var scenarios = map[string]Config{
	// ebusy-storm: 10% of page copies fail transiently in every interval —
	// the THP-pinning / concurrent-access regime Nomad's transactional
	// migration targets.
	"ebusy-storm": {PageBusyProb: 0.10, PageBusyDuty: 1.0},
	// tier-pressure: tiers intermittently refuse promotions, the admission
	// control regime of TierBPF-style shedding.
	"tier-pressure": {PressureProb: 0.5},
	// pebs-storm: interrupt overload drops three quarters of samples in
	// half the intervals; profilers must survive a starved signal.
	"pebs-storm": {SampleDropDuty: 0.5, SampleDropFrac: 0.75},
	// link-degrade: links intermittently run at a quarter of their rated
	// bandwidth (noisy-neighbour interconnect contention).
	"link-degrade": {LinkDegradeDuty: 0.5, LinkDegradeFactor: 4},
	// capacity-crunch: co-tenants hold 95% of every tier, so a workload
	// sized for the machine exhausts real capacity and drives the
	// emergency-reclaim / graceful-OOM path.
	"capacity-crunch": {CapacityTaxFrac: 0.95},
	// chaos: everything at once, for worst-case soak runs.
	"chaos": {
		PageBusyProb: 0.10, PageBusyDuty: 1.0,
		PressureProb:   0.25,
		SampleDropDuty: 0.25, SampleDropFrac: 0.75,
		LinkDegradeDuty: 0.25, LinkDegradeFactor: 4,
	},
	// dimm-death: a DIMM on the first capacity tier (node 2: PM0 on the
	// Optane box, CXL1 on the CXL box) is dying — every interval throws a
	// burst of uncorrectable errors and most copies into the tier fail.
	// Drives the full health pipeline: poisoning → Degraded → Draining →
	// background evacuation → Offline, with breakers tripping on the way.
	"dimm-death": {
		MemErrorProb: 1.0, MemErrorBurst: 4, MemErrorNode: 2,
		TierFailProb: 0.85, TierFailNode: 2,
	},
	// cxl-flaky: an intermittently misbehaving far tier — occasional
	// single-page poisons and windows where half-ish of inbound copies
	// fail. The tier oscillates Online ↔ Degraded and breakers open and
	// recover, without ever reaching the drain threshold in short runs.
	"cxl-flaky": {
		MemErrorProb: 0.25, MemErrorBurst: 1, MemErrorNode: 2,
		TierFailProb: 0.6, TierFailDuty: 0.5, TierFailNode: 2,
	},
}

// Scenarios lists the named scenarios, sorted, with "none" first.
func Scenarios() []string {
	names := make([]string, 0, len(scenarios)+1)
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return append([]string{"none"}, names...)
}

// Valid reports whether spec is a parseable fault scenario ("" and
// "none" are the no-injection scenarios; see Parse for the grammar).
func Valid(spec string) bool {
	_, err := Parse(spec)
	return err == nil
}

// NewScenario builds the injector for a scenario spec (a named scenario
// optionally extended with key=value overrides, see Parse), or nil for a
// spec that injects nothing.
func NewScenario(spec string, seed int64) (*Injector, error) {
	cfg, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if cfg == (Config{}) {
		return nil, nil
	}
	return NewInjector(cfg, seed), nil
}
