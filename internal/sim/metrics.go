// Engine-side metrics wiring: the observability layer of internal/metrics
// attached to the simulation. Disabled by default — an engine without
// EnableMetrics runs exactly the pre-metrics code (every recording site
// goes through nil-safe instrument handles whose methods no-op).
//
// Determinism contract: every instrument write and event emission happens
// in program order on the interval loop, so the export is a pure function
// of the simulated execution.
//
// One source per count: every counter is a CounterFunc over a count its
// owner keeps whether metrics are on or not, read when the registry
// samples or exports. The engine's are its fields: Intervals, the Total*
// times, TotalFaults, PromotedBytes/DemotedBytes, OOM as failed != nil,
// the robustness, health, admission and shadow counters, appAccesses
// (node accesses summed at interval end, so Init's, which NodeAccesses
// includes, stay out), the health transitions and each pairInfo's moved,
// aborted, retried and backoff counts. The fidelity oracle's counters
// read its tallies (see EnableFidelity), and the profilers' read their
// own counts, region.Set.Merged/Split and pebs.Buffer.Dropped. The
// engine writes only the gauges and the histogram. The gauges hold the
// value last set rather than live state: contention is set at interval
// end, so a run that fails inside Init exports it as zero.
package sim

import (
	"time"

	"mtm/internal/metrics"
	"mtm/internal/tier"
)

// Event types emitted by the engine. The profiling interval and virtual
// clock stamps come from the registry (SetNow at interval boundaries).
const (
	// EventMigrationAbort: one page-move transaction rolled back after its
	// retry budget; Detail is the src->dst pair, Value the page index.
	EventMigrationAbort = "migration-abort"
	// EventOOM: capacity exhaustion failed a placement; Detail describes
	// the faulting VMA, Value the page index. The run carries an
	// *OOMError from this point.
	EventOOM = "oom"
	// EventFaultActivation: a fault-injection class is active this
	// interval; Detail names the class.
	EventFaultActivation = "fault-activation"
	// EventPromotionDeferred: admission control deferred a promotion;
	// Detail names the pressured destination node.
	EventPromotionDeferred = "promotion-deferred"
	// EventEmergencyDemotion: the emergency-reclaim path freed room by
	// demoting cold pages; Detail names the node that was consolidated.
	EventEmergencyDemotion = "emergency-demotion"
	// EventMemPoison: an uncorrectable memory error poisoned a page;
	// Detail names the node, Value is the page index.
	EventMemPoison = "mem-poison"
	// EventHealthTransition: a tier changed health state; Detail is
	// "node From->To", Value the numeric new state.
	EventHealthTransition = "health-transition"
	// EventBreakerTrip: a tier-pair migration circuit breaker tripped;
	// Detail is the src->dst pair, Value the pair's lifetime trip count.
	EventBreakerTrip = "breaker-trip"
	// EventDrainStall: a draining tier found no destination with room;
	// Detail names the node, Value the resident pages left behind.
	EventDrainStall = "drain-stall"
	// EventAdmissionDefer: admission control deferred a planned move
	// under budget pressure; Detail is the src->dst pair, Value the
	// requested bytes.
	EventAdmissionDefer = "admission-defer"
	// EventAdmissionReject: admission control rejected a planned move on
	// its ROI; Detail is the src->dst pair, Value the requested bytes.
	EventAdmissionReject = "admission-reject"
	// EventThrashSuppressed: the ping-pong detector blocked a page from
	// reversing direction inside its cool-down; Detail is the src->dst
	// pair, Value the page index of the first suppressed page.
	EventThrashSuppressed = "thrash-suppressed"
	// EventLaneStarvation: the admission starvation watchdog caught a
	// critical traffic class (drain, emergency) with requests but zero
	// admits for more than admission.WatchdogIntervals consecutive
	// intervals; Detail names the class, Value the intervals waited.
	EventLaneStarvation = "lane-starvation"
)

// engineMetrics holds the handles of the instruments the engine writes:
// the gauges and the histogram. All are resolved once at EnableMetrics;
// the hot path never performs name lookups.
type engineMetrics struct {
	reg *metrics.Registry

	shadowBytes []*metrics.Gauge // per node
	contention  []*metrics.Gauge // per node
	tierState   []*metrics.Gauge // per node health state (0=Online..3=Offline)

	intervalAppNs *metrics.Histogram
}

// intervalAppBounds are the fixed buckets of the per-interval application
// time histogram, in nanoseconds (100µs … 10s, decade steps).
var intervalAppBounds = []float64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// EnableMetrics attaches a fresh metrics registry to the engine and
// registers the engine-level instruments. Calling it again returns the
// existing registry. Solutions and profilers register their own
// instruments against Metrics() during Attach.
func (e *Engine) EnableMetrics() *metrics.Registry {
	if e.met != nil {
		return e.met.reg
	}
	reg := metrics.New()
	m := &engineMetrics{reg: reg}
	count := func(name, help string, p *int64, labels ...metrics.Label) {
		reg.CounterFunc(name, help, func() int64 { return *p }, labels...)
	}
	ns := func(name, help string, p *time.Duration) {
		reg.CounterFunc(name, help, func() int64 { return int64(*p) })
	}

	reg.CounterFunc("mtm_sim_intervals_total", "profiling intervals completed", func() int64 { return int64(e.Intervals) })
	ns("mtm_sim_app_ns_total", "cumulative application time (virtual ns)", &e.TotalApp)
	ns("mtm_sim_profiling_ns_total", "cumulative critical-path profiling time (virtual ns)", &e.TotalProf)
	ns("mtm_sim_migration_ns_total", "cumulative critical-path migration time (virtual ns)", &e.TotalMig)
	ns("mtm_sim_background_ns_total", "cumulative off-critical-path copy time (virtual ns)", &e.TotalBg)
	count("mtm_sim_page_faults_total", "demand-zero page faults serviced", &e.TotalFaults)
	count("mtm_sim_promoted_bytes_total", "bytes promoted to faster tiers", &e.PromotedBytes)
	count("mtm_sim_demoted_bytes_total", "bytes demoted to slower tiers", &e.DemotedBytes)
	count("mtm_sim_deferred_promotions_total", "promotions deferred by admission control", &e.DeferredPromotions)
	count("mtm_sim_emergency_demotions_total", "emergency-reclaim events in the fault path", &e.EmergencyDemotions)
	reg.CounterFunc("mtm_sim_oom_total", "out-of-memory placement failures", func() int64 {
		if e.failed != nil {
			return 1 // the failure is sticky: a run fails at most once
		}
		return 0
	})
	count("mtm_migrate_retries_total", "page-copy attempts retried after transient failure", &e.MigrationRetries)
	count("mtm_migrate_aborts_total", "page-move transactions rolled back", &e.MigrationAborts)
	count("mtm_migrate_wasted_bytes_total", "copy bytes thrown away by aborts", &e.WastedBytes)
	m.intervalAppNs = reg.Histogram("mtm_sim_interval_app_ns", "per-interval application time (virtual ns)", intervalAppBounds)
	count("mtm_health_poisoned_pages_total", "pages lost to uncorrectable memory errors", &e.PoisonedPages)
	count("mtm_health_poison_recoveries_total", "recovery faults taken on poisoned pages", &e.PoisonRecoveries)
	count("mtm_health_drained_bytes_total", "bytes evacuated off draining tiers", &e.DrainedBytes)
	count("mtm_health_drain_stalls_total", "drain steps stalled with no destination", &e.DrainStalls)
	count("mtm_health_breaker_trips_total", "migration circuit-breaker trips", &e.BreakerTrips)
	count("mtm_health_transitions_total", "tier health-state transitions", &e.transitions)
	count("mtm_admission_admitted_total", "planned moves admitted by admission control", &e.AdmissionAdmits)
	count("mtm_admission_deferred_total", "planned moves deferred by admission control (budget pressure)", &e.AdmissionDefers)
	count("mtm_admission_rejected_total", "planned moves rejected by admission control (ROI)", &e.AdmissionRejects)
	count("mtm_admission_thrash_suppressed_total", "page moves blocked by the ping-pong cool-down", &e.ThrashSuppressed)
	reg.CounterFunc("mtm_admission_lane_starvations_total", "starvation-watchdog firings for critical traffic classes", func() int64 {
		if e.adm == nil {
			return 0
		}
		return e.adm.ctl.Starvations()
	})
	count("mtm_shadow_retained_total", "promotions that retained their source frame as a shadow", &e.shadowRetains)
	count("mtm_shadow_hits_total", "demotion lookups that found a valid shadow", &e.ShadowHits)
	count("mtm_shadow_invalidations_total", "shadows diverged by a write to the fast copy", &e.ShadowInvalidations)
	count("mtm_shadow_dropped_total", "shadows dropped under pressure or health events", &e.shadowDrops)
	count("mtm_shadow_flips_total", "demotions completed as zero-copy shadow flips", &e.FreeDemotions)
	count("mtm_shadow_flip_bytes_total", "bytes demoted without copying", &e.FreeDemotionBytes)
	count("mtm_shadow_sync_bytes_total", "bytes re-copied to shadow frames in the background", &e.ShadowSyncBytes)

	nodes := e.Sys.Topo.Nodes
	m.contention = make([]*metrics.Gauge, len(nodes))
	m.tierState = make([]*metrics.Gauge, len(nodes))
	m.shadowBytes = make([]*metrics.Gauge, len(nodes))
	for i, n := range nodes {
		count("mtm_sim_node_accesses_total", "application accesses served per node", &e.appAccesses[i], metrics.L("node", n.Name))
		m.contention[i] = reg.Gauge("mtm_sim_node_contention", "bandwidth-contention factor carried into the next interval", metrics.L("node", n.Name))
		m.tierState[i] = reg.Gauge("mtm_health_tier_state", "tier health state (0=Online 1=Degraded 2=Draining 3=Offline)", metrics.L("node", n.Name))
		m.shadowBytes[i] = reg.Gauge("mtm_shadow_bytes", "bytes held as retained shadow copies per node", metrics.L("node", n.Name))
	}

	// Each per-pair instrument is registered for every pair, source-major,
	// before the next: registration order is the time-series column order.
	for _, c := range []struct {
		name, help string
		ctr        func(*pairInfo) *int64
	}{
		{"mtm_migrate_pages_moved_total", "pages migrated per tier pair", func(p *pairInfo) *int64 { return &p.moved }},
		{"mtm_migrate_pages_aborted_total", "page moves aborted per tier pair", func(p *pairInfo) *int64 { return &p.aborted }},
		{"mtm_migrate_pages_retried_total", "page-copy retries per tier pair", func(p *pairInfo) *int64 { return &p.retried }},
		{"mtm_migrate_backoff_ns_total", "virtual backoff time charged per tier pair (ns)", func(p *pairInfo) *int64 { return &p.backoffNs }},
	} {
		for i := range e.pairs {
			if p := &e.pairs[i]; p.src != p.dst {
				count(c.name, c.help, c.ctr(p), e.pairLabels(p)...)
			}
		}
	}
	for i := range e.pairs {
		p := &e.pairs[i]
		p.name = nodes[p.src].Name + "->" + nodes[p.dst].Name
	}

	e.met = m
	return reg
}

// Metrics returns the engine's metrics registry, or nil when metrics are
// disabled. The registry's instrument constructors and instrument methods
// are nil-safe, so callers may use the result unconditionally.
func (e *Engine) Metrics() *metrics.Registry {
	if e.met == nil {
		return nil
	}
	return e.met.reg
}

// MetricsExport snapshots the registry for embedding in a Result; nil when
// metrics are disabled.
func (e *Engine) MetricsExport() *metrics.Export {
	if e.met == nil {
		return nil
	}
	return e.met.reg.Export()
}

// pairLabels are the src and dst labels of a per-pair instrument.
func (e *Engine) pairLabels(p *pairInfo) []metrics.Label {
	nodes := e.Sys.Topo.Nodes
	return []metrics.Label{metrics.L("src", nodes[p.src].Name), metrics.L("dst", nodes[p.dst].Name)}
}

// emitEventOnce emits a metrics event at most once per (type, detail)
// pair per interval. Recurring per-page conditions — repeated aborts on
// one flaky pair, drain stalls retried every interval, thrash storms —
// would otherwise flood the bounded event ring and evict the diverse
// evidence it exists to keep; the first occurrence per interval carries
// the value, later ones only bump their counters. The seen-set is only
// ever probed by key (never iterated), so it cannot leak map order. Its
// key is the two strings themselves, so a repeat allocates nothing.
func (e *Engine) emitEventOnce(typ, detail string, value int64) {
	if e.met == nil {
		return
	}
	key := [2]string{typ, detail}
	if _, dup := e.evSeen[key]; dup {
		return
	}
	if e.evSeen == nil {
		e.evSeen = make(map[[2]string]struct{})
	}
	e.evSeen[key] = struct{}{}
	e.met.reg.Emit(typ, detail, value)
}

// metricsBeginInterval stamps the registry with the interval about to run
// and emits activation events for any fault-injection classes whose storm
// windows opened (the plane advertises them via ActiveClasses).
func (e *Engine) metricsBeginInterval() {
	if e.met == nil {
		return
	}
	clear(e.evSeen)
	e.met.reg.SetNow(e.Intervals, int64(e.clock))
	if a, ok := e.faults.(interface{ ActiveClasses() []string }); ok {
		for _, class := range a.ActiveClasses() {
			e.met.reg.Emit(EventFaultActivation, class, 0)
		}
	}
}

// metricsEndInterval records the finished interval's gauges and histogram
// and appends one time-series sample. Called from endInterval after the
// interval folded into the engine's counts and Intervals incremented, so
// the sample is stamped with the interval it describes, Intervals-1.
func (e *Engine) metricsEndInterval(app time.Duration) {
	if e.met == nil {
		return
	}
	m := e.met
	m.intervalAppNs.Observe(float64(app))
	for i, c := range e.contention {
		m.contention[i].Set(c)
		if e.shd != nil {
			m.shadowBytes[i].Set(float64(e.Sys.ShadowBytes(tier.NodeID(i))))
		}
	}
	m.reg.SetNow(e.Intervals-1, int64(e.clock))
	m.reg.Sample()
}
