// Package fidelity is the ground-truth oracle the simulator can afford
// and a real kernel cannot: because every application access lands in the
// VMA's per-page count plane, the simulator knows — exactly — which pages
// were hot in an interval, and can grade what each profiler *believed*
// against what the workload *did*. The package holds the pure scoring
// machinery: word-wide truth tallies over the count plane, top-K hot-set
// selection by log2 count bucket, precision/recall/F1, a WHI-vs-truth
// rank-agreement score, and the migration-outcome lineage verdicts. The
// engine-side wiring (per-interval sampling, the pending-move ledger)
// lives in internal/sim; everything here is deterministic arithmetic over
// its tallies.
package fidelity

import (
	"math/bits"
	"sort"

	"mtm/internal/vm"
)

// NBuckets is the number of log2 access-count buckets: bits.Len32 of a
// page's interval count is 0 for an untouched page and at most 32, so
// bucket b holds pages with counts in [2^(b-1), 2^b).
const NBuckets = 33

// Buckets is a bytes-per-log2(count) histogram of one interval's truth
// plane; it picks the hot-set cutoff.
type Buckets [NBuckets]int64

// AccumulateTruth tallies pages [lo, hi) of v into b, word-wide over the
// touched plane: each present-and-touched page adds its bytes to the
// bucket of its access count. It returns the touched bytes and pages and
// the total accesses seen, and allocates nothing.
func AccumulateTruth(v *vm.VMA, lo, hi int, b *Buckets) (touchedBytes, touchedPages, accesses int64) {
	for w := lo / vm.WordPages; w*vm.WordPages < hi; w++ {
		word := v.TouchedRangeWord(w, lo, hi) & v.PresentRangeWord(w, lo, hi)
		for word != 0 {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			c := v.Count(i)
			b[bits.Len32(c)] += v.PageSize
			touchedBytes += v.PageSize
			touchedPages++
			accesses += int64(c)
		}
	}
	return touchedBytes, touchedPages, accesses
}

// CutBucket returns the truth hot-set cutoff: the highest bucket B such
// that pages in buckets >= B cover at least target bytes, clamped to at
// least minBucket (and at least 1, so untouched pages are never "hot").
// Walking whole buckets keeps the cutoff a pure function of the
// histogram — no within-bucket tie-breaking that could observe page
// order.
func (b *Buckets) CutBucket(target int64, minBucket int) int {
	cut := 1
	var acc int64
	for k := NBuckets - 1; k >= 1; k-- {
		acc += b[k]
		if acc >= target {
			cut = k
			break
		}
	}
	if cut < minBucket {
		cut = minBucket
	}
	if cut < 1 {
		cut = 1
	}
	return cut
}

// MinHotBucket returns the bucket of twice the mean per-touched-page
// access count: the floor below which a page is background noise, not
// hot, regardless of how much fast memory is available. Uniform
// workloads (every page near the mean) therefore report a near-empty
// truth hot set instead of calling everything hot.
func MinHotBucket(accesses, touchedPages int64) int {
	if touchedPages <= 0 {
		return 1
	}
	mean := accesses / touchedPages
	if mean < 1 {
		mean = 1
	}
	return bits.Len64(uint64(2 * mean))
}

// PRF computes precision, recall and F1 from hot-set byte tallies:
// precision = |est ∩ truth| / |est|, recall = |est ∩ truth| / |truth|.
func PRF(truthBytes, estBytes, interBytes int64) (p, r, f1 float64) {
	if estBytes > 0 {
		p = float64(interBytes) / float64(estBytes)
	}
	if truthBytes > 0 {
		r = float64(interBytes) / float64(truthBytes)
	}
	if p+r > 0 {
		f1 = 2 * p * r / (p + r)
	}
	return p, r, f1
}

// rankBuckets is the resolution of the rank-agreement score: both the
// profiler's WHI and the oracle's truth density are quantised into this
// many equal-width buckets before comparison, so the score rewards
// getting the *ordering* right without demanding calibrated magnitudes.
const rankBuckets = 16

// RankAgreement scores how well the profiler's WHI ordering of regions
// matches the ground-truth access-density ordering: each region's WHI and
// truth density are bucketised into rankBuckets equal-width buckets over
// their respective [0, max] ranges, and the score is one minus the
// bytes-weighted mean bucket distance (1 = orderings agree, 0 = maximally
// inverted). Zero when either side saw nothing. All three slices are
// indexed per region.
func RankAgreement(whi, truthDen []float64, bytes []int64) float64 {
	var maxW, maxT float64
	for i := range whi {
		if whi[i] > maxW {
			maxW = whi[i]
		}
		if truthDen[i] > maxT {
			maxT = truthDen[i]
		}
	}
	if maxW <= 0 || maxT <= 0 {
		return 0
	}
	var sum, tot float64
	for i := range whi {
		bw := int(whi[i] / maxW * rankBuckets)
		if bw > rankBuckets-1 {
			bw = rankBuckets - 1
		}
		bt := int(truthDen[i] / maxT * rankBuckets)
		if bt > rankBuckets-1 {
			bt = rankBuckets - 1
		}
		d := bw - bt
		if d < 0 {
			d = -d
		}
		sum += float64(d) * float64(bytes[i])
		tot += float64(bytes[i])
	}
	if tot == 0 {
		return 0
	}
	return 1 - sum/(float64(rankBuckets-1)*tot)
}

// Verdict is the hindsight outcome of one committed page move, resolved
// within the configured horizon after the move.
type Verdict uint8

const (
	// PromotedReaccessed: the promoted page was accessed again within the
	// horizon — the promotion paid off.
	PromotedReaccessed Verdict = iota
	// PromotedWasted: the horizon expired without a single access — the
	// copy (and the fast-tier residency) bought nothing.
	PromotedWasted
	// DemotedRefaulted: the demoted page was accessed from the slow tier
	// within the horizon — the eviction was premature.
	DemotedRefaulted
	// DemotedCorrect: the demoted page stayed cold through the horizon.
	DemotedCorrect
	// FlipResurrected: a zero-copy shadow-flip demotion whose page turned
	// out to still be live — the flip was cheap, but the page will want
	// promoting again.
	FlipResurrected
	// NumVerdicts bounds per-verdict arrays.
	NumVerdicts
)

var verdictNames = [NumVerdicts]string{
	"promoted-and-reaccessed",
	"promoted-wasted",
	"demoted-and-refaulted",
	"demoted-correct",
	"flip-resurrected",
}

func (vd Verdict) String() string {
	if int(vd) < len(verdictNames) {
		return verdictNames[vd]
	}
	return "unknown"
}

// Resolve classifies a committed move from its direction, mechanism and
// realized reaccess evidence.
func Resolve(promote, flip, reaccessed bool) Verdict {
	switch {
	case promote && reaccessed:
		return PromotedReaccessed
	case promote:
		return PromotedWasted
	case flip && reaccessed:
		return FlipResurrected
	case reaccessed:
		return DemotedRefaulted
	default:
		return DemotedCorrect
	}
}

// OutcomeCounts is a per-verdict page tally.
type OutcomeCounts [NumVerdicts]int64

// RuleKey identifies one (policy rule, admission rule) lineage bucket.
type RuleKey struct{ Rule, Admission string }

// RuleOutcome is the exported per-rule lineage row.
type RuleOutcome struct {
	// Rule is the policy clause that planned the move (fast-promotion,
	// slow-demotion, shadow-flip, emergency-demotion, ...).
	Rule string
	// Admission is the admission-layer rule that admitted it
	// (roi-admitted, shadow-flip-admitted, ...), or "unguarded" when the
	// admission subsystem was off.
	Admission          string
	PromotedReaccessed int64 `json:",omitempty"`
	PromotedWasted     int64 `json:",omitempty"`
	DemotedRefaulted   int64 `json:",omitempty"`
	DemotedCorrect     int64 `json:",omitempty"`
	FlipResurrected    int64 `json:",omitempty"`
}

// MoveOutcomes is the run-wide lineage summary.
type MoveOutcomes struct {
	PromotedReaccessed int64
	PromotedWasted     int64
	DemotedRefaulted   int64
	DemotedCorrect     int64
	FlipResurrected    int64
	// Unresolved counts moves still inside their horizon at run end.
	Unresolved int64
}

// set stores counts into the named MoveOutcomes fields.
func (m *MoveOutcomes) set(c OutcomeCounts) {
	m.PromotedReaccessed = c[PromotedReaccessed]
	m.PromotedWasted = c[PromotedWasted]
	m.DemotedRefaulted = c[DemotedRefaulted]
	m.DemotedCorrect = c[DemotedCorrect]
	m.FlipResurrected = c[FlipResurrected]
}

// HeatCols is the fixed column count of the time×address-space heatmap:
// every VMA page maps to one of HeatCols equal slices of the total mapped
// page range, so rows are constant-size regardless of footprint.
const HeatCols = 64

// HeatRow is one interval's heat sample: hot bytes per address column,
// ground truth and profiler estimate side by side.
type HeatRow struct {
	Interval int
	Truth    [HeatCols]int64
	Est      [HeatCols]int64
}

// Heatmap is the full time×region hotness record rendered by
// cmd/heatreport.
type Heatmap struct {
	Cols int
	Rows []HeatRow
}

// Report is the Result.Fidelity block: profiler accuracy, estimation lag,
// and migration-outcome lineage, all against simulator ground truth.
type Report struct {
	// Samples is the number of oracle samples (one per interval).
	Samples int
	// Scored counts samples where both the truth and the estimated hot
	// sets were non-empty; the accuracy means below average over these.
	Scored int
	// HotsetBytes is the top-K target: the truth and estimated hot sets
	// are each capped at this many bytes (the machine's fast-tier
	// capacity).
	HotsetBytes int64
	// Horizon is the outcome-resolution window in intervals.
	Horizon int

	MeanPrecision     float64
	MeanRecall        float64
	MeanF1            float64
	MeanRankAgreement float64

	// LagSamples counts pages whose turn-hot was eventually seen by the
	// profiler; MeanLagIntervals is the mean intervals it took.
	LagSamples       int64   `json:",omitempty"`
	MeanLagIntervals float64 `json:",omitempty"`
	// MissedHotPages counts pages that turned hot and went cold again
	// without the profiler's hot set ever covering them.
	MissedHotPages int64 `json:",omitempty"`

	Moves  MoveOutcomes
	ByRule []RuleOutcome `json:",omitempty"`

	Heatmap *Heatmap `json:",omitempty"`
}

// BuildReport assembles the exported report from merged accumulators.
// byRule is consumed in sorted key order so the export is deterministic.
func BuildReport(samples, scored int, hotset int64, horizon int,
	sumP, sumR, sumF, sumRank float64,
	lagSum, lagN, missed int64,
	outcomes OutcomeCounts, unresolved int64,
	byRule map[RuleKey]*OutcomeCounts, heat *Heatmap) *Report {
	r := &Report{
		Samples:        samples,
		Scored:         scored,
		HotsetBytes:    hotset,
		Horizon:        horizon,
		LagSamples:     lagN,
		MissedHotPages: missed,
		Heatmap:        heat,
	}
	if scored > 0 {
		n := float64(scored)
		r.MeanPrecision = sumP / n
		r.MeanRecall = sumR / n
		r.MeanF1 = sumF / n
		r.MeanRankAgreement = sumRank / n
	}
	if lagN > 0 {
		r.MeanLagIntervals = float64(lagSum) / float64(lagN)
	}
	r.Moves.set(outcomes)
	r.Moves.Unresolved = unresolved
	keys := make([]RuleKey, 0, len(byRule))
	for k := range byRule {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Rule != keys[j].Rule {
			return keys[i].Rule < keys[j].Rule
		}
		return keys[i].Admission < keys[j].Admission
	})
	for _, k := range keys {
		c := byRule[k]
		r.ByRule = append(r.ByRule, RuleOutcome{
			Rule:               k.Rule,
			Admission:          k.Admission,
			PromotedReaccessed: c[PromotedReaccessed],
			PromotedWasted:     c[PromotedWasted],
			DemotedRefaulted:   c[DemotedRefaulted],
			DemotedCorrect:     c[DemotedCorrect],
			FlipResurrected:    c[FlipResurrected],
		})
	}
	return r
}
