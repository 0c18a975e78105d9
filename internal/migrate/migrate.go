// Package migrate implements the page-migration mechanisms of §7: Linux's
// synchronous move_pages(), Nimble's parallel/huge-page-aware migration,
// and MTM's move_memory_regions() — asynchronous page copy with dirty
// tracking and an adaptive switch back to synchronous copy when a write
// hits the region mid-copy.
//
// Each mechanism charges virtual time to the engine, split into the four
// move_pages() steps of §7.1 (allocate, unmap, copy, remap+PT) plus MTM's
// dirty tracking, so the Figure 3/11 breakdowns can be regenerated.
package migrate

import (
	"math"
	"math/bits"
	"time"

	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// Per-PTE software costs of the migration steps. Values follow the §7.1
// measurement that page copy is ~40% of move_pages() time for a 2 MB
// region with the remainder split across the other steps.
const (
	AllocPerPTE = 600 * time.Nanosecond
	UnmapPerPTE = 700 * time.Nanosecond
	RemapPerPTE = 700 * time.Nanosecond
	PTPerPTE    = 200 * time.Nanosecond
	CopyPerPTE  = 400 * time.Nanosecond // per-page loop overhead of the copy step

	// SingleThreadCopyBW is what one kernel thread's 4 KB-at-a-time
	// memcpy sustains; move_pages() copies pages sequentially with one
	// thread, which is why multi-threaded copy (Nimble, MTM) wins on
	// wide links.
	SingleThreadCopyBW = 5 * tier.GB

	// CopyThreads is the helper-thread count for parallel copy.
	CopyThreads = 4

	// DirtyTrackArm is the cost of write-protecting a region and issuing
	// the single TLB flush MTM's tracking needs (§7.2).
	DirtyTrackArm = 10 * time.Microsecond
	// DirtyFaultCost is one user-space write-protection fault (~40 µs,
	// §9.5), paid once: tracking turns off after the first write.
	DirtyFaultCost = 40 * time.Microsecond
)

// Steps is the per-step time breakdown of one migration.
type Steps struct {
	Alloc      time.Duration
	Unmap      time.Duration
	Copy       time.Duration
	Remap      time.Duration
	PageTable  time.Duration
	DirtyTrack time.Duration
}

// Total sums the steps.
func (s Steps) Total() time.Duration {
	return s.Alloc + s.Unmap + s.Copy + s.Remap + s.PageTable + s.DirtyTrack
}

// Report summarises one region migration.
type Report struct {
	MovedPages int   // pages actually rebound
	Bytes      int64 // bytes moved
	// Critical is the time exposed on the application's critical path;
	// Background is helper-thread time overlapped with execution.
	Critical   time.Duration
	Background time.Duration
	// CriticalSteps breaks down the critical-path time.
	CriticalSteps Steps
	// ExtraCopyBytes is data re-copied because pages were written during
	// an asynchronous copy.
	ExtraCopyBytes int64
	// SwitchedToSync reports MTM's adaptive fallback firing.
	SwitchedToSync bool
}

// Mechanism migrates a span of pages [start, end) of a VMA to dst and
// charges the engine. Pages already on dst are skipped; at most maxPages
// pages are attempted (maxPages <= 0 means no cap). Each page moves as
// one Engine.CopyPage transaction, which keeps tier accounting exact and
// retries busy copies; the mechanism prices the moves, wasted work
// included.
type Mechanism interface {
	Name() string
	Migrate(e *sim.Engine, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) Report
}

// pairBW returns the bandwidth of the narrower link of a src→dst copy
// issued from the engine's home socket, after any fault-plane link
// degradation.
func pairBW(e *sim.Engine, src, dst tier.NodeID) int64 {
	bs := e.LinkBandwidth(sim.HomeSocket, src)
	bd := e.LinkBandwidth(sim.HomeSocket, dst)
	if bs < bd {
		return bs
	}
	return bd
}

func copyTime(bytes int64, bw int64) time.Duration {
	return time.Duration(float64(bytes) / float64(bw) * float64(time.Second))
}

// weightedCopyTime charges each source node's bytes at its own src→dst
// pair bandwidth, capped at bwCap (<= 0 means uncapped). Spans whose
// pages start on multiple nodes thereby pay the correct per-link time
// instead of the first page's link for everything. Duration addition is
// integer, so the sum is order-independent and deterministic.
func weightedCopyTime(e *sim.Engine, tallies []srcTally, dst tier.NodeID, bwCap int64) time.Duration {
	var d time.Duration
	for src, t := range tallies {
		if t.bytes == 0 {
			continue
		}
		bw := pairBW(e, tier.NodeID(src), dst)
		if bwCap > 0 && bwCap < bw {
			bw = bwCap
		}
		d += copyTime(t.bytes, bw)
	}
	return d
}

// dominantSrc returns the source node contributing the most bytes
// (Invalid if none) — the representative source for per-region effects
// like dirty-page re-copies.
func dominantSrc(tallies []srcTally) tier.NodeID {
	best := tier.Invalid
	var bestBytes int64
	for src, t := range tallies {
		if t.bytes > bestBytes {
			bestBytes, best = t.bytes, tier.NodeID(src)
		}
	}
	return best
}

// spanCandidates walks [start, end) and returns the indices of pages that
// are present and not already on dst, in address order, together with the
// span's write-counter sum (the Adaptive mechanism's write-rate input).
func spanCandidates(v *vm.VMA, start, end int, dst tier.NodeID) (cand []int, writes uint32) {
	// Word-wide: write counts are non-zero only on touched pages, and
	// candidates only on present ones; both planes narrow the walk. Set
	// bits are consumed in ascending page order.
	for w := start / vm.WordPages; w*vm.WordPages < end; w++ {
		tw := v.TouchedRangeWord(w, start, end)
		for tw != 0 {
			i := w*vm.WordPages + bits.TrailingZeros64(tw)
			tw &= tw - 1
			writes += v.WriteCount(i)
		}
		pw := v.PresentRangeWord(w, start, end)
		for pw != 0 {
			i := w*vm.WordPages + bits.TrailingZeros64(pw)
			pw &= pw - 1
			if v.Node(i) != dst {
				cand = append(cand, i)
			}
		}
	}
	return cand, writes
}

// srcTally is one source node's share of a rebind: the productive bytes
// and pages it gave up, and the copy attempts retried, virtual backoff
// time and aborted transactions of its pages, so every src→dst transfer
// span carries its own retry story.
type srcTally struct {
	bytes, pages, retries, backoffNs, aborts int64
}

// rebindResult is the outcome of the rebind loop.
type rebindResult struct {
	moved int
	bytes int64
	src   []srcTally    // per source node, indexed by NodeID
	waste time.Duration // busy attempts + backoffs + aborted copies
}

// rebind moves the candidate pages one by one, each as an
// Engine.CopyPage transaction, until dst runs out of space or maxPages
// pages have been attempted (maxPages <= 0 means no cap). A page whose
// copy aborts is skipped, not fatal — later pages still move. Aborted
// pages count against the maxPages cap: the cap models a per-call work
// budget, and failed attempts consume it like the kernel's nr_pages do.
func rebind(e *sim.Engine, v *vm.VMA, cand []int, dst tier.NodeID, maxPages int) rebindResult {
	res := rebindResult{src: make([]srcTally, len(e.Sys.Topo.Nodes))}
	attempted := 0
	for _, i := range cand {
		if maxPages > 0 && attempted >= maxPages {
			break
		}
		if !e.PageMoveAllowed(v, i, dst) {
			// Thrash suppression: the page committed a move the other way
			// inside its cool-down window; it neither opens a transaction
			// nor consumes the page budget.
			continue
		}
		mv, ok := e.CopyPage(v, i, dst)
		if !ok {
			break // destination full; partial move keeps accounting exact
		}
		attempted++
		t := &res.src[mv.Src]
		res.waste += mv.Waste
		t.retries += mv.Retries
		t.backoffNs += int64(mv.Backoff)
		if !mv.Committed {
			// The last attempt's copy had already streamed the page, so
			// its copy time is wasted work.
			res.waste += copyTime(v.PageSize, pairBW(e, mv.Src, dst))
			t.aborts++
			continue
		}
		res.moved++
		res.bytes += v.PageSize
		t.bytes += v.PageSize
		t.pages++
	}
	return res
}

// beginMigration opens the mechanism's migration span (spanStart is its
// virtual timestamp, the transfer-span cursor) and rebinds the span's
// candidate pages. writes is the span's write-counter sum, read before
// rebinding.
func beginMigration(e *sim.Engine, name string, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) (spanStart int64, rb rebindResult, writes uint32) {
	spanStart = e.SpanClockNs()
	e.SpanBegin("migration", name,
		span.S("vma", v.Name),
		span.I("page_start", int64(start)),
		span.I("page_end", int64(end)),
		span.S("dst", e.Sys.Topo.Nodes[dst].Name),
		span.I("max_pages", int64(maxPages)))
	cand, writes := spanCandidates(v, start, end, dst)
	return spanStart, rebind(e, v, cand, dst, maxPages), writes
}

// finishMigration charges rep.Critical to the critical path, closes the
// migration span, and returns rep. A migration that
// committed no page finishes with Report{Critical: rb.waste}: only the
// wasted work of busy attempts and aborts is charged.
func finishMigration(e *sim.Engine, spanStart int64, rb rebindResult, rep Report, dst tier.NodeID) Report {
	e.ChargeMigration(rep.Critical)
	endMigrationSpan(e, spanStart, rb, &rep, dst)
	return rep
}

// endMigrationSpan emits one transfer child span per source tier that
// contributed pages (or retries/aborts) to the move — annotated with the
// pair's retry count, backoff time, and aborts — then closes the
// mechanism span with the report summary. The transfer spans are laid
// end to end from the mechanism's start, each sized by its pair-bandwidth
// copy time. With tracing off it reads the tallies and records nothing.
func endMigrationSpan(e *sim.Engine, startNs int64, rb rebindResult, rep *Report, dst tier.NodeID) {
	cur := startNs
	var retries, aborts int64
	for src, t := range rb.src {
		retries += t.retries
		aborts += t.aborts
		if t.bytes == 0 && t.retries == 0 && t.aborts == 0 {
			continue
		}
		d := int64(copyTime(t.bytes, pairBW(e, tier.NodeID(src), dst)))
		e.SpanEmit("migration", "transfer", cur, d,
			span.S("src", e.Sys.Topo.Nodes[src].Name),
			span.S("dst", e.Sys.Topo.Nodes[dst].Name),
			span.I("pages", t.pages),
			span.I("bytes", t.bytes),
			span.I("retries", t.retries),
			span.I("backoff_ns", t.backoffNs),
			span.I("aborts", t.aborts))
		cur += d
	}
	e.SpanEnd(
		span.I("moved_pages", int64(rep.MovedPages)),
		span.I("bytes", rep.Bytes),
		span.I("critical_ns", int64(rep.Critical)),
		span.I("background_ns", int64(rep.Background)),
		span.I("retries", retries),
		span.I("aborts", aborts))
}

// MovePages models Linux move_pages(): the four steps run sequentially on
// the calling thread, the copy is single-threaded, and THP mappings are
// split so every 4 KB page pays per-PTE costs (§7.1).
type MovePages struct{}

func (MovePages) Name() string { return "move_pages" }

func (m MovePages) Migrate(e *sim.Engine, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) Report {
	return syncMigrate(e, m.Name(), v, start, end, dst, maxPages, 1, 1)
}

// Nimble models Nimble page management: still synchronous, but with
// multi-threaded parallel copy and exchange-style allocation that halves
// allocation work. Per-PTE bookkeeping happens at 4 KB granularity like
// move_pages (migration splits THP mappings).
type Nimble struct{}

func (Nimble) Name() string { return "nimble" }

func (m Nimble) Migrate(e *sim.Engine, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) Report {
	return syncMigrate(e, m.Name(), v, start, end, dst, maxPages, 2, CopyThreads)
}

// syncMigrate is the synchronous mechanisms' shared body: every step runs
// on the critical path at 4 KB PTE granularity (THP split). Allocation
// work is divided by allocDiv, and the copy is split over threads copy
// threads, each sustaining SingleThreadCopyBW.
func syncMigrate(e *sim.Engine, name string, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int, allocDiv, threads int) Report {
	spanStart, rb, _ := beginMigration(e, name, v, start, end, dst, maxPages)
	if rb.moved == 0 {
		return finishMigration(e, spanStart, rb, Report{Critical: rb.waste}, dst)
	}
	n4k := rb.bytes / vm.BasePageSize
	st := Steps{
		Alloc:     time.Duration(n4k) * AllocPerPTE / time.Duration(allocDiv),
		Unmap:     time.Duration(n4k) * UnmapPerPTE,
		Copy:      time.Duration(n4k)*CopyPerPTE/time.Duration(threads) + weightedCopyTime(e, rb.src, dst, int64(threads)*SingleThreadCopyBW),
		Remap:     time.Duration(n4k) * RemapPerPTE,
		PageTable: time.Duration(n4k) * PTPerPTE,
	}
	return finishMigration(e, spanStart, rb, Report{
		MovedPages:    rb.moved,
		Bytes:         rb.bytes,
		Critical:      st.Total() + rb.waste,
		CriticalSteps: st,
	}, dst)
}

// Adaptive models MTM's move_memory_regions() (§7.2): allocation and copy
// run on helper threads off the critical path while unmap/remap/PT stay
// on it; dirty tracking write-protects the region, and the first write
// during the async copy switches the remainder to synchronous copy (the
// pages already copied and then dirtied are re-copied).
//
// ForceSync disables the async path ("w/o async migration" ablation): the
// mechanism then runs move_pages' steps with a CopyThreads-thread copy
// (unlike Nimble, allocation is not halved) and arms no dirty tracking.
type Adaptive struct {
	ForceSync bool
	// WriteRate overrides the per-page write-rate estimate (writes per
	// second during the copy window); negative means derive it from the
	// interval's ground-truth write counters. Microbenchmarks use the
	// override to model concurrent writers.
	WriteRate float64
}

// NewAdaptive returns the default MTM mechanism.
func NewAdaptive() *Adaptive { return &Adaptive{WriteRate: -1} }

func (a *Adaptive) Name() string {
	if a.ForceSync {
		return "move_memory_regions(sync)"
	}
	return "move_memory_regions"
}

func (a *Adaptive) Migrate(e *sim.Engine, v *vm.VMA, start, end int, dst tier.NodeID, maxPages int) Report {
	if a.ForceSync {
		return syncMigrate(e, a.Name(), v, start, end, dst, maxPages, 1, CopyThreads)
	}
	// The prescan estimates the region's write rate BEFORE rebinding
	// (counters are per-interval; rebinding doesn't change them, but
	// order keeps the estimate tied to the pages actually moved).
	spanStart, rb, writes := beginMigration(e, a.Name(), v, start, end, dst, maxPages)
	if rb.moved == 0 {
		return finishMigration(e, spanStart, rb, Report{Critical: rb.waste}, dst)
	}
	bytes := rb.bytes
	srcNode := dominantSrc(rb.src)
	n4k := bytes / vm.BasePageSize // same 4 KB PTE granularity as move_pages
	alloc := time.Duration(n4k) * AllocPerPTE
	cp := time.Duration(n4k)*CopyPerPTE/CopyThreads + weightedCopyTime(e, rb.src, dst, int64(CopyThreads)*SingleThreadCopyBW)
	crit := Steps{
		Unmap:     time.Duration(n4k) * UnmapPerPTE,
		Remap:     time.Duration(n4k) * RemapPerPTE,
		PageTable: time.Duration(n4k) * PTPerPTE,
	}
	rep := Report{MovedPages: rb.moved, Bytes: bytes}

	crit.DirtyTrack = DirtyTrackArm
	// Will a write land while the async copy is in flight?
	rate := a.WriteRate
	if rate < 0 {
		rate = float64(writes) / e.Interval.Seconds()
	}
	window := (alloc + cp).Seconds()
	expWrites := rate * window
	pWrite := 1 - math.Exp(-expWrites)
	if e.Rng.Float64() < pWrite {
		// First write detected: one WP fault, then the remaining copy
		// switches to the synchronous move_pages-style path (single
		// copy thread, on the critical path, §7.2). Async progress is
		// bounded by when the first write landed — under heavy writes
		// the switch fires almost immediately, which is why MTM
		// performs like move_pages for write-intensive regions (§9.5).
		rep.SwitchedToSync = true
		firstWrite := 1.0
		if expWrites > 1 {
			firstWrite = 1 / expWrites
		}
		done := e.Rng.Float64() * firstWrite
		dirtyFrac := 0.25 * done // already-copied pages dirtied meanwhile
		crit.DirtyTrack += DirtyFaultCost
		syncCopy := time.Duration(n4k)*CopyPerPTE + weightedCopyTime(e, rb.src, dst, SingleThreadCopyBW)
		crit.Copy = time.Duration(float64(syncCopy) * (1 - done + dirtyFrac))
		crit.Alloc = 0 // allocation had completed in the background
		rep.ExtraCopyBytes = int64(float64(bytes) * dirtyFrac)
		rep.Background = time.Duration(float64(alloc) + float64(cp)*done)
	} else {
		rep.Background = alloc + cp
	}
	rep.Critical = crit.Total() + rb.waste
	rep.CriticalSteps = crit
	e.ChargeBackground(rep.Background)
	if rep.ExtraCopyBytes > 0 {
		e.Sys.RecordTransfer(srcNode, rep.ExtraCopyBytes)
		e.Sys.RecordTransfer(dst, rep.ExtraCopyBytes)
	}
	return finishMigration(e, spanStart, rb, rep, dst)
}
