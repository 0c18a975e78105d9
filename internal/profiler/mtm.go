package profiler

import (
	"math"
	"slices"
	"time"

	"mtm/internal/pebs"
	"mtm/internal/region"
	"mtm/internal/sim"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// MTMConfig carries the tunables of the MTM adaptive profiler. The zero
// value is not usable; start from DefaultMTMConfig.
type MTMConfig struct {
	// OverheadTarget is the profiling-overhead constraint as a fraction
	// of execution time (§5.3; 5% in the paper's evaluation).
	OverheadTarget float64
	// NumScans is the number of PTE scans per sampled page per interval
	// (§5.1; constant 3 in the paper).
	NumScans int
	// Alpha weighs current vs historical hotness in the EMA (Equation 2).
	Alpha float64
	// TauM and TauS override the merge/split thresholds; negative values
	// select the defaults num_scans/3 and 2*num_scans/3.
	TauM, TauS float64

	// Feature switches for the §9.3 ablations.
	UsePEBS          bool // performance counter-assisted PTE scan (§5.5)
	AdaptiveRegions  bool // merge/split region formation ("AMR")
	AdaptiveSampling bool // variance-guided quota redistribution ("APS")
	OverheadControl  bool // Equation 1 budget + τm escalation ("OC")
}

// DefaultMTMConfig returns the paper's evaluation configuration.
func DefaultMTMConfig() MTMConfig {
	return MTMConfig{
		OverheadTarget:   0.05,
		NumScans:         region.DefaultNumScans,
		Alpha:            0.5,
		TauM:             -1,
		TauS:             -1,
		UsePEBS:          true,
		AdaptiveRegions:  true,
		AdaptiveSampling: true,
		OverheadControl:  true,
	}
}

// MTM is the adaptive memory profiler of §5: overhead control connected
// directly to the number of PTE scans (Equation 1), multi-scan sampling,
// variance-guided sample redistribution, hotness-guided region formation
// with huge-page alignment, and PEBS-assisted event-driven profiling of
// the slow tiers.
type MTM struct {
	Cfg MTMConfig

	regionTable
	topVar  *region.TopVariance
	buf     *pebs.Buffer
	budget  int     // num_ps from Equation 1
	tauMEsc float64 // temporary τm escalation for overhead control

	pmNodes  []tier.NodeID // nodes profiled event-driven via PEBS
	isPMNode []bool        // indexed by NodeID

	// Reusable per-interval buffers, indexed by region position in the
	// set's address-ordered slice (stable for the whole Profile call).
	// They replace the per-interval map allocations of the old hot path;
	// after warm-up the steady-state scan path allocates nothing.
	profiled []bool     // region receives PTE scans this interval
	kept     []pebsKept // PEBS hits + first-4 kept pages per region
	gen      uint32     // profiling generation for region selection stamps
}

// pebsKept is the per-region PEBS evidence of one interval: how many
// samples hit the region and the first (up to) four distinct sampled
// pages, which the PTE scans profile preferentially (§5.2).
type pebsKept struct {
	hits  int32
	n     int8
	pages [4]int32
}

// scanShard profiles shard s, a fixed run of scanShardRegions regions:
// it draws sample pages and scan observations from the shard's own
// stream and returns the shard's scan and page tallies. VMA state is only
// read (ObserveScansL models the scan against the touched plane, it does
// not clear bits).
func (m *MTM) scanShard(e *sim.Engine, regions []*region.Region, s int, usePEBS bool) (scans, nPages int64) {
	sc := e.Scratch()
	rng := sc.Rand(e, sim.SaltPTEScan, s)
	lo, hi := sim.ShardSpan(len(regions), scanShardRegions, s)
	for i, r := range regions[lo:hi] {
		if !m.profiled[lo+i] {
			// Event-driven: no PEBS event means no observed traffic;
			// the region is cold this interval without spending scans.
			r.Samples = r.Samples[:0]
			r.Observed = r.Observed[:0]
			r.Observe(0)
			continue
		}
		n := r.Quota
		if n < 1 {
			n = 1
		}
		pages := r.Samples[:0]
		if usePEBS {
			if k := &m.kept[lo+i]; k.n > 0 {
				// PEBS-captured pages first (§5.2), random samples for
				// the remaining quota.
				for _, p := range k.pages[:k.n] {
					pages = append(pages, int(p))
				}
			}
		}
		if n > len(pages) {
			pages = samplePagesInto(pages, sc, rng, r.Start, r.End, n-len(pages))
		}
		r.Samples = pages
		r.Observed = r.Observed[:0]
		sum := 0
		for _, p := range pages {
			obs := vm.ObserveScansL(r.V, p, m.Cfg.NumScans, mtmScanWindowFrac, mtmScanLogW, rng)
			r.Observed = append(r.Observed, obs)
			sum += obs
		}
		scans += int64(len(pages) * m.Cfg.NumScans)
		nPages += int64(len(pages))
		hi := 0.0
		if len(pages) > 0 {
			hi = float64(sum) / float64(len(pages))
		}
		r.Observe(hi)
	}
	return scans, nPages
}

// mtmScanWindowFrac is the observation window of one PTE scan as a
// fraction of the profiling interval: MTM paces its num_scans scans
// ~30 ms apart within a 10 s interval, so each scan's accessed bit covers
// ~0.3% of it. This is what turns the binary bit into a rate signal (see
// vm.ObserveScans).
const mtmScanWindowFrac = 0.003

// mtmScanLogW is log1p(-mtmScanWindowFrac) for the per-page observation
// model (vm.ObserveScansL).
var mtmScanLogW = math.Log1p(-mtmScanWindowFrac)

// NewMTM creates the profiler with the given config.
func NewMTM(cfg MTMConfig) *MTM {
	if cfg.NumScans <= 0 {
		cfg.NumScans = region.DefaultNumScans
	}
	return &MTM{Cfg: cfg, topVar: region.NewTopVariance()}
}

func (m *MTM) Name() string { return "mtm-profiler" }

// Budget returns num_ps, the page-sample budget of Equation 1.
func (m *MTM) Budget() int { return m.budget }

func (m *MTM) Attach(e *sim.Engine) {
	// Slow (CPU-less / PM / CXL) nodes are profiled event-driven.
	m.isPMNode = make([]bool, len(e.Sys.Topo.Nodes))
	for i, n := range e.Sys.Topo.Nodes {
		if n.Kind != tier.DRAM {
			m.pmNodes = append(m.pmNodes, tier.NodeID(i))
			m.isPMNode[i] = true
		}
	}
	if m.Cfg.UsePEBS && len(m.pmNodes) > 0 {
		m.buf = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 1<<16)
		e.PEBS = m.buf
	}
	m.attach(e, m.Name(), m.Cfg.NumScans, DefaultRegionBytes, m.buf)
	if m.Cfg.TauM >= 0 {
		m.set.TauM = m.Cfg.TauM
	}
	if m.Cfg.TauS >= 0 {
		m.set.TauS = m.Cfg.TauS
	}
	// Equation 1: num_ps = t_mi * overhead_target / (one_scan_overhead * num_scans).
	m.budget = int(float64(e.Interval) * m.Cfg.OverheadTarget /
		(float64(MTMScanCost) * float64(m.Cfg.NumScans)))
	if m.budget < 1 {
		m.budget = 1
	}
}

func (m *MTM) IntervalStart(e *sim.Engine) {
	if m.buf != nil {
		m.buf.Arm(m.pmNodes...)
	}
}

// Shard sizes of the profiling passes. Both show up in the simulated
// output, so both are fixed.
const (
	// scanShardRegions is how many consecutive regions one PTE-scan shard
	// owns; each shard has its own RNG stream and pte-scan span.
	scanShardRegions = 16
	// pebsShardSamples sizes the "shards" attribute of the
	// pebs-attribution span.
	pebsShardSamples = 1024
)

// Profile implements the §5 pipeline for one interval.
func (m *MTM) Profile(e *sim.Engine) {
	regions := m.set.Regions()
	e.SpanBegin("profiling", "mtm-profile",
		span.I("regions", int64(len(regions))),
		span.I("budget", int64(m.budget)))

	// Map PEBS samples to regions so slow-tier regions with observed
	// traffic get event-driven PTE-scan profiling (§5.5). The sampled
	// pages themselves are kept: §5.2 profiles "specifically the page
	// captured by the performance counters", which is what points the
	// PTE scans at the hot spots inside a large region. Samples resolve
	// against the region table in sample order, so the kept pages are the
	// first four distinct pages per region. All per-region evidence lands
	// in m.kept, indexed by region position — no per-interval maps.
	usePEBS := m.buf != nil
	if usePEBS {
		m.buf.Disarm()
		m.kept = growClear(m.kept, len(regions))
		samples := m.buf.Samples()
		m.pc.pebsKept += int64(len(samples))
		for _, smp := range samples {
			ri := m.set.Find(smp.VMA, smp.Page)
			if ri < 0 {
				continue
			}
			k := &m.kept[ri]
			k.hits++
			if page := int32(smp.Page); k.n < 4 && !slices.Contains(k.pages[:k.n], page) {
				k.pages[k.n] = page
				k.n++
			}
		}
		// PEBS runtime overhead is <1% (§9.3); charge a small per-sample
		// handling cost.
		handling := time.Duration(len(samples)) * 100 * time.Nanosecond
		e.SpanEmit("profiling", "pebs-attribution", e.SpanClockNs(), int64(handling),
			span.I("samples", int64(len(samples))),
			span.I("shards", int64(sim.NumShards(len(samples), pebsShardSamples))))
		m.charge(e, handling, 0)
	}

	// Decide which regions to profile and trim quotas to budget.
	profiled := m.profiledSet(regions)
	m.enforceQuota(e, regions, profiled)

	// Scan shard by shard. The per-shard scan spans are laid end to end;
	// their summed duration equals the ChargeProfiling below exactly.
	var totalScans, totalPages int64
	cur := e.SpanClockNs()
	for s := 0; s < sim.NumShards(len(regions), scanShardRegions); s++ {
		scans, pages := m.scanShard(e, regions, s, usePEBS)
		totalScans += scans
		totalPages += pages
		d := int64(time.Duration(scans) * MTMScanCost)
		e.SpanEmit("profiling", "pte-scan", cur, d,
			span.I("shard", int64(s)),
			span.I("scans", scans),
			span.I("pages", pages))
		cur += d
	}
	m.charge(e, time.Duration(totalScans)*MTMScanCost, totalPages)

	// Time-consecutive profiling: EMA update and variance tracking.
	m.topVar.Reset()
	for _, r := range regions {
		r.UpdateEMA(m.Cfg.Alpha)
		m.topVar.Offer(r)
	}

	// Region formation (§5.1) with overhead control (§5.3).
	if m.Cfg.AdaptiveRegions {
		tauM := m.set.TauM + m.tauMEsc
		freed := m.set.MergePass(tauM)
		m.set.SplitPass(m.set.TauS, m.Cfg.Alpha)
		if m.Cfg.AdaptiveSampling {
			// Quota freed by merging goes to the top-variance regions
			// (§5.2); without APS it drops back into the pool, which
			// enforceQuota re-spreads next interval.
			grant(m.topVar.Regions(), freed, func(*region.Region) bool { return true })
		}
	}
	if m.Cfg.OverheadControl {
		if m.set.Len() > m.budget {
			// Too many regions for one sample each: escalate τm
			// gradually across intervals (§5.3).
			m.tauMEsc += m.set.TauM/2 + 0.05
		} else {
			m.tauMEsc = 0
		}
	}
	e.SpanEnd(
		span.I("scans", totalScans),
		span.I("regions_after", int64(m.set.Len())))
}

// profiledSet decides which regions receive PTE scans this interval: with
// PEBS assistance, slow-tier regions only when the counters saw traffic;
// all fast-tier regions always (§5.2 "initial page sampling"). The
// decision lands both in the returned index-aligned []bool (for the scan
// shards) and as a generation stamp on each region, so holders of region
// pointers from a previous interval — the top-variance list survives
// merge/split — read a stale region as not-selected.
func (m *MTM) profiledSet(regions []*region.Region) []bool {
	m.gen++
	usePEBS := m.Cfg.UsePEBS && m.buf != nil
	m.profiled = growClear(m.profiled, len(regions))
	for i, r := range regions {
		sel := true
		if usePEBS {
			node := RegionNode(r)
			switch {
			case node == tier.Invalid:
				sel = false // nothing mapped yet
			case m.isPMNode[node]:
				sel = m.kept[i].hits > 0
			}
		}
		m.profiled[i] = sel
		r.SetProfiled(m.gen, sel)
	}
	return m.profiled
}

func (m *MTM) enforceQuota(e *sim.Engine, regions []*region.Region, profiled []bool) {
	total := 0
	for i, r := range regions {
		if profiled[i] {
			if r.Quota < 1 {
				r.Quota = 1
			}
			total += r.Quota
		}
	}
	if !m.Cfg.OverheadControl {
		return
	}
	// Trim: reclaim extra quota from the largest holders until the
	// budget holds (or every region is at the 1-sample floor).
	for total > m.budget {
		trimmed := false
		for i, r := range regions {
			if total <= m.budget {
				break
			}
			if profiled[i] && r.Quota > 1 {
				r.Quota--
				total--
				trimmed = true
			}
		}
		if !trimmed {
			break
		}
	}
	// Grow: spend leftover budget on the most variable regions first
	// (§5.2), then spread the rest across all profiled regions — more
	// samples per region directly cut hotness-estimation noise, which is
	// the profiling quality the scan budget buys.
	spare := m.budget - total
	if spare <= 0 {
		return
	}
	if m.Cfg.AdaptiveSampling {
		inInterval := func(r *region.Region) bool { return r.ProfiledIn(m.gen) }
		spare -= grant(m.topVar.Regions(), spare/4, inInterval)
		grant(regions, spare, inInterval)
		return
	}
	// Ablation: random distribution of the same scan budget.
	var cand []*region.Region
	for i, r := range regions {
		if profiled[i] && r.Quota < r.Pages() {
			cand = append(cand, r)
		}
	}
	for spare > 0 && len(cand) > 0 {
		i := e.Rng.Intn(len(cand))
		r := cand[i]
		r.Quota++
		spare--
		if r.Quota >= r.Pages() {
			cand[i] = cand[len(cand)-1]
			cand = cand[:len(cand)-1]
		}
	}
}

// grant hands up to n samples to the eligible regions below one sample
// per page: one sample each per round, in slice order, until n are
// granted or a round grants none. It returns how many it granted.
func grant(regions []*region.Region, n int, eligible func(*region.Region) bool) int {
	left := n
	for left > 0 {
		grew := false
		for _, r := range regions {
			if left == 0 {
				break
			}
			if eligible(r) && r.Quota < r.Pages() {
				r.Quota++
				left--
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return n - left
}

// growClear returns buf resized to n zeroed elements, reusing its backing
// array when the capacity allows — the reuse idiom of the per-interval
// profiler buffers.
func growClear[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// MemoryOverheadBytes estimates MTM's metadata footprint (Table 5): per
// region, two hotness floats, the address range, the quota, and a hash-map
// slot for address indexing.
func (m *MTM) MemoryOverheadBytes() int64 {
	const perRegion = 2*8 + 16 + 8 + 32
	return int64(m.set.Len()) * perRegion
}
