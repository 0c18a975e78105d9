package profiler

import (
	"mtm/internal/metrics"
	"mtm/internal/pebs"
	"mtm/internal/region"
	"mtm/internal/sim"
)

// profMetrics bundles the per-profiler instrument handles, labeled by
// profiler name so runs comparing solutions keep their series apart. The
// zero value (and the value built against a metrics-disabled engine) is
// fully usable: every handle is nil and every recording no-ops, so the
// profilers carry no "metrics enabled?" branches.
type profMetrics struct {
	scanNs   *metrics.Counter // critical-path profiling cost charged
	pages    *metrics.Counter // pages whose PTEs were scanned/sampled
	pebsKept *metrics.Counter // PEBS samples delivered to attribution
}

// newProfMetrics registers the profiler's instruments. The counts other
// state already keeps are CounterFuncs over it: PEBS samples lost read
// buf's drop count (zero when buf is nil, a profiler without PEBS), and
// region splits and merges read set's formation totals.
func newProfMetrics(e *sim.Engine, name string, set *region.Set, buf *pebs.Buffer) profMetrics {
	reg := e.Metrics()
	l := metrics.L("profiler", name)
	pm := profMetrics{
		scanNs:   reg.Counter("mtm_profiler_scan_ns_total", "critical-path profiling cost charged (virtual ns)", l),
		pages:    reg.Counter("mtm_profiler_pages_scanned_total", "pages whose PTEs were scanned", l),
		pebsKept: reg.Counter("mtm_profiler_pebs_samples_kept_total", "PEBS samples delivered to attribution", l),
	}
	reg.CounterFunc("mtm_profiler_pebs_samples_dropped_total", "PEBS samples lost to buffer overflow or injected drop storms", func() int64 {
		if buf == nil {
			return 0
		}
		return int64(buf.Dropped())
	}, l)
	reg.CounterFunc("mtm_profiler_region_splits_total", "region splits performed", func() int64 { return set.Split }, l)
	reg.CounterFunc("mtm_profiler_region_merges_total", "region merges performed", func() int64 { return set.Merged }, l)
	return pm
}
