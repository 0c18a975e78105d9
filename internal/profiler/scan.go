package profiler

import (
	"math"
	"math/bits"
	"time"

	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/vm"
)

// ChunkBytes is the virtual-address span AutoTiering and tiered-AutoNUMA
// profile per interval (256 MB in the paper §9.3).
const ChunkBytes = 256 * (1 << 20)

// scanWindow is the observation window of a hint-fault latency check as a
// fraction of the interval: the patched hot-page-selection heuristic
// compares consecutive fault timestamps, giving it some rate sensitivity,
// but over far coarser windows than MTM's paced PTE scans.
const scanWindow = 0.05

// RandomChunk is the AutoTiering profiling baseline: each interval it
// randomly chooses a contiguous 256 MB span of the address space and
// tracks accesses to every page in it by manipulating present bits and
// counting the resulting page faults (one observation per page). Coverage
// is random, so hot pages outside the chosen window stay invisible — the
// "uncontrolled profiling quality" of §3.
type RandomChunk struct {
	regionTable
	shardBuf []int64 // reusable per-shard tally buffer (harvestRegions)
}

// chunkAlpha is AutoTiering's EMA weight for time-consecutive hotness,
// the same as MTM's.
const chunkAlpha = 0.5

// NewRandomChunk creates the AutoTiering-style profiler.
func NewRandomChunk() *RandomChunk { return &RandomChunk{} }

func (p *RandomChunk) Name() string { return "autotiering-sampling" }

func (p *RandomChunk) Attach(e *sim.Engine) {
	p.attach(e, p.Name(), region.DefaultNumScans, DefaultRegionBytes)
}

// chunkShardRegions is how many consecutive selected regions one
// access-bit-harvest shard walks; each shard has its own RNG stream and
// scan span, so the size is part of the simulated output.
const chunkShardRegions = 8

// harvestRegions walks the selected regions' pages shard by shard: each
// shard owns a fixed run of the selection and draws from its own stream.
// It returns the total scan count for the profiling charge, alongside the
// per-shard tallies (in buf, grown as needed and returned for reuse) so
// callers can emit per-shard scan spans in shard order.
//
// The page walk is a word-wide sweep over the present∧touched planes:
// only pages that can observe anything draw from the RNG — identical
// draws to the old per-page loop, since untouched pages short-circuited
// before drawing there too — while the scan *cost* still covers every
// page of the region, because the modelled PTE walk reads them all.
func harvestRegions(e *sim.Engine, sel []*region.Region, buf []int64, round, scansPerPage int, windowFrac, alpha float64, numScans int) (int64, []int64) {
	nShards := sim.NumShards(len(sel), chunkShardRegions)
	if cap(buf) < nShards {
		buf = make([]int64, nShards)
	}
	shardScans := buf[:nShards]
	logw := math.Log1p(-windowFrac)
	var total int64
	for s := range shardScans {
		// Later selection rounds within one interval re-walk the same
		// regions; giving each round a disjoint block of shard indices
		// keeps their observation draws on distinct streams.
		rng := e.Scratch().Rand(e, sim.SaltChunkScan, round<<20|s)
		lo, hi := sim.ShardSpan(len(sel), chunkShardRegions, s)
		var scans int64
		for _, r := range sel[lo:hi] {
			v := r.V
			sum := 0
			for w := r.Start / vm.WordPages; w*vm.WordPages < r.End; w++ {
				word := v.ActiveRangeWord(w, r.Start, r.End)
				for word != 0 {
					pg := w*vm.WordPages + bits.TrailingZeros64(word)
					word &= word - 1
					sum += vm.ObserveScansL(v, pg, scansPerPage, windowFrac, logw, rng)
				}
			}
			ns := r.Pages()
			scans += int64(ns)
			r.PrevHI = r.HI
			if ns > 0 {
				// Scale into scan units so thresholds and histograms are
				// comparable across profilers.
				r.HI = float64(sum) / float64(ns) * float64(numScans) / float64(scansPerPage)
			}
			r.Sampled = true
			r.UpdateEMA(alpha)
		}
		shardScans[s] = scans
		total += scans
	}
	return total, shardScans
}

func (p *RandomChunk) Profile(e *sim.Engine) {
	p.set.BeginInterval()
	regions := p.set.Regions()
	if len(regions) == 0 {
		return
	}
	// Pick a random contiguous run of regions covering ~ChunkBytes; the
	// selection is the only draw from the engine's own stream; the page
	// walk draws from per-shard streams.
	start := e.Rng.Intn(len(regions))
	var covered int64
	end := start
	for end < len(regions) && covered < ChunkBytes {
		covered += regions[end].Bytes()
		end++
	}
	e.SpanBegin("profiling", "chunk-profile",
		span.I("regions", int64(len(regions))),
		span.I("chunk_regions", int64(end-start)))
	scans, shardScans := harvestRegions(e, regions[start:end], p.shardBuf, 0, 1, 1.0, chunkAlpha, p.set.NumScans)
	p.shardBuf = shardScans
	cur := e.SpanClockNs()
	for s, sc := range shardScans {
		d := int64(time.Duration(sc) * (OneScanOverhead + ProtFaultCost/2))
		e.SpanEmit("profiling", "chunk-scan", cur, d,
			span.I("shard", int64(s)), span.I("pages", sc))
		cur += d
	}
	// Present-bit profiling takes a fault per observed page on top of
	// the PTE write; charge scan + fault cost per page.
	p.charge(e, time.Duration(scans)*(OneScanOverhead+ProtFaultCost/2), scans)
	e.SpanEnd(span.I("pages", scans))
}

// SequentialScan is the tiered-AutoNUMA profiling baseline: a scan pointer
// walks the address space 256 MB per interval, unmapping PTEs so the next
// access takes a NUMA hint fault that reveals the accessing CPU and, with
// the hot-page-selection patch, the access latency used for hotness
// classification. Patched mode keeps an EMA so repeatedly-hot pages
// accumulate score; vanilla mode uses only the latest interval.
type SequentialScan struct {
	// Patched selects the two upstream patches of §9 (hot-page selection
	// + auto threshold); vanilla tiered-AutoNUMA sets it false.
	Patched bool

	regionTable
	// alpha is the EMA weight: 0.5 patched, 1.0 (latest interval only)
	// vanilla.
	alpha    float64
	cursor   int
	shardBuf []int64 // reusable per-shard tally buffer (harvestRegions)
}

// NewSequentialScan creates the tiered-AutoNUMA-style profiler.
func NewSequentialScan(patched bool) *SequentialScan {
	a := 1.0
	if patched {
		a = 0.5
	}
	return &SequentialScan{Patched: patched, alpha: a}
}

func (p *SequentialScan) Name() string {
	if p.Patched {
		return "tiered-autonuma-scan"
	}
	return "vanilla-autonuma-scan"
}

func (p *SequentialScan) Attach(e *sim.Engine) {
	p.attach(e, p.Name(), region.DefaultNumScans, DefaultRegionBytes)
}

func (p *SequentialScan) Profile(e *sim.Engine) {
	p.set.BeginInterval()
	regions := p.set.Regions()
	if len(regions) == 0 {
		return
	}
	e.SpanBegin("profiling", "seq-scan-profile",
		span.I("regions", int64(len(regions))),
		span.I("cursor", int64(p.cursor)))
	cur := e.SpanClockNs()
	var covered int64
	var faults int64
	scansPerPage := 1
	if p.Patched {
		// The hot-page-selection patch uses hint-fault latency over
		// repeated touches, distinguishing "accessed once" from
		// "accessed often" better than a single present-bit check.
		scansPerPage = 2
	}
	// Advance the cursor in rounds: each round is a run of regions that
	// stops at the address-space wrap. A small space scanned with a large
	// budget simply takes more rounds, re-walking regions.
	for round := 0; covered < ChunkBytes; round++ {
		pos := p.cursor % len(regions)
		sel := regions[pos:]
		var take int
		for take < len(sel) && covered < ChunkBytes {
			covered += sel[take].Bytes()
			take++
		}
		sel = sel[:take]
		p.cursor += take
		f, shardFaults := harvestRegions(e, sel, p.shardBuf, round, scansPerPage, scanWindow, p.alpha, p.set.NumScans)
		p.shardBuf = shardFaults
		faults += f
		for s, sc := range shardFaults {
			d := int64(time.Duration(sc) * HintFaultCost / 4)
			e.SpanEmit("profiling", "hint-fault-scan", cur, d,
				span.I("round", int64(round)),
				span.I("shard", int64(s)),
				span.I("pages", sc))
			cur += d
		}
		if p.cursor >= 1<<30 {
			p.cursor = p.cursor % len(regions)
		}
	}
	// Hint faults are 12x a PTE scan (§6.2); AutoNUMA's profiling cost
	// is dominated by them.
	p.charge(e, time.Duration(faults)*HintFaultCost/4, faults)
	e.SpanEnd(span.I("pages", faults))
}
