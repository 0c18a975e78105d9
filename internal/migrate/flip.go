// Shadow-flip demotion: the zero-copy path of non-exclusive tiering
// (Nomad). A clean page whose slow-tier shadow frame is still valid
// demotes by remapping onto the shadow — no allocation, no unmap of a
// frame that must survive, no copy; only the remap and page-table steps
// of §7.1 are paid.
package migrate

import (
	"math/bits"
	"time"

	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/vm"
)

// FlipPerPTE is the per-4KB-PTE cost of a shadow-flip demotion: the
// remap plus page-table update steps. The allocate, unmap, and copy
// steps of a full move (and its bandwidth) are never paid.
const FlipPerPTE = RemapPerPTE + PTPerPTE

// FlipCost returns the critical-path metadata cost of flipping bytes
// worth of pages (THP split: per-4KB-PTE work, like the copy paths).
func FlipCost(bytes int64) time.Duration {
	return time.Duration(bytes/vm.BasePageSize) * FlipPerPTE
}

// FlipSpan demotes every valid-shadow page of [start, end) of v via
// Engine.FlipDemote, up to maxPages pages (maxPages <= 0 means no cap).
// Pages without a valid shadow — or whose flip the engine refuses
// (thrash cool-down, unusable shadow node) — are left for the caller's
// copy path. The flips' metadata cost is charged to critical-path
// migration time; no copy bytes move and no bandwidth is recorded.
func FlipSpan(e *sim.Engine, v *vm.VMA, start, end int, maxPages int) Report {
	var rep Report
	e.SpanBegin("migration", "shadow-flip",
		span.S("vma", v.Name),
		span.I("page_start", int64(start)),
		span.I("page_end", int64(end)),
		span.I("max_pages", int64(maxPages)))
	for w := start / vm.WordPages; w*vm.WordPages < end; w++ {
		word := v.ShadowValidRangeWord(w, start, end)
		for word != 0 {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			if maxPages > 0 && rep.MovedPages >= maxPages {
				break
			}
			if _, ok := e.FlipDemote(v, i); ok {
				rep.MovedPages++
				rep.Bytes += v.PageSize
			}
		}
		if maxPages > 0 && rep.MovedPages >= maxPages {
			break
		}
	}
	if rep.Bytes > 0 {
		n4k := rep.Bytes / vm.BasePageSize
		rep.CriticalSteps = Steps{
			Remap:     time.Duration(n4k) * RemapPerPTE,
			PageTable: time.Duration(n4k) * PTPerPTE,
		}
		rep.Critical = rep.CriticalSteps.Total()
		e.ChargeMigration(rep.Critical)
	}
	e.SpanEnd(
		span.I("moved_pages", int64(rep.MovedPages)),
		span.I("bytes", rep.Bytes),
		span.I("critical_ns", int64(rep.Critical)))
	return rep
}
