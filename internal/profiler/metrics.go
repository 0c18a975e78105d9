package profiler

import (
	"mtm/internal/metrics"
	"mtm/internal/pebs"
	"mtm/internal/region"
	"mtm/internal/sim"
)

// profCounts are the counts a profiler keeps for its metrics, written
// whether metrics are on or not.
type profCounts struct {
	scanNs   int64 // critical-path profiling cost charged (virtual ns)
	pages    int64 // pages whose PTEs were scanned/sampled
	pebsKept int64 // PEBS samples delivered to attribution
}

// registerMetrics registers the profiler's counters, labeled by profiler
// name so runs comparing solutions keep their series apart. Each reads a
// count kept elsewhere: pc's counts, buf's drop count (zero when buf is
// nil, a profiler without PEBS), and set's split and merge totals.
func registerMetrics(e *sim.Engine, name string, pc *profCounts, set *region.Set, buf *pebs.Buffer) {
	reg := e.Metrics()
	l := metrics.L("profiler", name)
	reg.CounterFunc("mtm_profiler_scan_ns_total", "critical-path profiling cost charged (virtual ns)", func() int64 { return pc.scanNs }, l)
	reg.CounterFunc("mtm_profiler_pages_scanned_total", "pages whose PTEs were scanned", func() int64 { return pc.pages }, l)
	reg.CounterFunc("mtm_profiler_pebs_samples_kept_total", "PEBS samples delivered to attribution", func() int64 { return pc.pebsKept }, l)
	reg.CounterFunc("mtm_profiler_pebs_samples_dropped_total", "PEBS samples lost to buffer overflow or injected drop storms", func() int64 {
		if buf == nil {
			return 0
		}
		return int64(buf.Dropped())
	}, l)
	reg.CounterFunc("mtm_profiler_region_splits_total", "region splits performed", func() int64 { return set.Split }, l)
	reg.CounterFunc("mtm_profiler_region_merges_total", "region merges performed", func() int64 { return set.Merged }, l)
}
