package sim

import (
	"math/bits"

	"mtm/internal/fidelity"
	"mtm/internal/metrics"
	"mtm/internal/region"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// regionEstimator is implemented by solutions whose profiler exposes its
// region table; the oracle grades that table against ground truth.
// Solutions without one (first-touch, slow-first, hmc) still get lineage
// and truth heat rows — their estimate is simply empty.
type regionEstimator interface {
	Regions() []*region.Region
}

// fidelityPlane is the oracle's per-VMA state: the truth hot set of this
// and the previous interval, the profiler's estimated hot set, and the
// turn-hot stamps for estimation-lag tracking.
type fidelityPlane struct {
	truth vm.Bitmap // ground-truth hot set, this interval
	prev  vm.Bitmap // ground-truth hot set, previous interval
	est   vm.Bitmap // profiler's estimated hot set, this interval
	pend  vm.Bitmap // turned hot, not yet seen by the profiler
	// hotSince[i] is the interval page i turned hot (valid while the pend
	// bit is set).
	hotSince []int32
}

// fidScore is one sample's truth-vs-estimate tally, summed over VMAs.
type fidScore struct {
	truthBytes int64
	estBytes   int64
	interBytes int64

	lagSum int64
	lagN   int64
	missed int64
}

// fidelityState is the engine-side oracle. Nil unless EnableFidelity was
// called; every hook is nil-safe so a fidelity-off run takes no branches
// beyond one pointer test.
type fidelityState struct {
	// hotset is the top-K target: truth and estimated hot sets are each
	// selected down to about this many bytes, the machine's total DRAM
	// capacity — "what would fit in fast memory".
	hotset int64

	planes map[*vm.VMA]*fidelityPlane

	outcomes fidelity.OutcomeCounts
	byRule   map[fidelity.RuleKey]*fidelity.OutcomeCounts

	samples int
	scored  int
	sumP    float64
	sumR    float64
	sumF    float64
	sumRank float64

	lagSum int64
	lagN   int64
	missed int64

	heat *fidelity.Heatmap

	// Reusable rank-agreement inputs (one entry per region).
	whiBuf   []float64
	denBuf   []float64
	bytesBuf []int64

	// Metrics handles; nil without EnableMetrics.
	gPrec       *metrics.Gauge
	gRec        *metrics.Gauge
	gF1         *metrics.Gauge
	gRank       *metrics.Gauge
	gTruthBytes *metrics.Gauge
	gEstBytes   *metrics.Gauge
	cLag        *metrics.Counter
	cLagSamples *metrics.Counter
	cMissed     *metrics.Counter
	cOutcome    [fidelity.NumVerdicts]*metrics.Counter
}

// EnableFidelity turns on the ground-truth fidelity oracle: once per
// interval — after migration, before the access counts reset — the engine
// samples per-page access truth, grades the active profiler's hot set
// against it, and tallies the hindsight verdict the lineage ledger
// resolves for every committed move within DefaultFidelityHorizon
// intervals. Idempotent; call after Interval is set and after
// EnableMetrics/EnableSpans so the oracle's instruments and outcome
// events register with them.
func (e *Engine) EnableFidelity() {
	if e.fid != nil {
		return
	}
	f := &fidelityState{
		planes: map[*vm.VMA]*fidelityPlane{},
		byRule: map[fidelity.RuleKey]*fidelity.OutcomeCounts{},
		heat:   &fidelity.Heatmap{Cols: fidelity.HeatCols, Rows: make([]fidelity.HeatRow, 0, 256)},
	}
	for _, n := range e.Sys.Topo.Nodes {
		if n.Kind == tier.DRAM {
			f.hotset += n.Capacity
		}
	}
	if reg := e.Metrics(); reg != nil {
		f.gPrec = reg.Gauge("mtm_fidelity_precision", "hot-set precision of the profiler estimate vs ground truth, this interval")
		f.gRec = reg.Gauge("mtm_fidelity_recall", "hot-set recall of the profiler estimate vs ground truth, this interval")
		f.gF1 = reg.Gauge("mtm_fidelity_f1", "hot-set F1 of the profiler estimate vs ground truth, this interval")
		f.gRank = reg.Gauge("mtm_fidelity_rank_agreement", "WHI-vs-truth rank agreement of the profiler's region ordering, this interval")
		f.gTruthBytes = reg.Gauge("mtm_fidelity_truth_hot_bytes", "bytes in the ground-truth hot set, this interval")
		f.gEstBytes = reg.Gauge("mtm_fidelity_est_hot_bytes", "bytes in the profiler's estimated hot set, this interval")
		f.cLag = reg.Counter("mtm_fidelity_lag_intervals_total", "summed intervals between pages turning hot and the profiler seeing them")
		f.cLagSamples = reg.Counter("mtm_fidelity_lag_samples_total", "pages whose turn-hot was eventually seen by the profiler")
		f.cMissed = reg.Counter("mtm_fidelity_missed_hot_pages_total", "pages that turned hot and went cold again unseen by the profiler")
		for vd := fidelity.Verdict(0); vd < fidelity.NumVerdicts; vd++ {
			f.cOutcome[vd] = reg.Counter("mtm_fidelity_moves_resolved_total", "committed page moves resolved per hindsight verdict", metrics.L("verdict", vd.String()))
		}
	}
	e.fid = f
	e.enableLineage()
}

// solutionRegions returns the active solution's profiled region table, or
// nil when it does not expose one.
func (e *Engine) solutionRegions() []*region.Region {
	if re, ok := e.sol.(regionEstimator); ok {
		return re.Regions()
	}
	return nil
}

// scoreVMA marks v's truth hot set at cut and grades it against the
// estimate plane: truth-vs-estimate overlap and estimation-lag
// transitions go to s, hot bytes per address column to row. baseOff is
// v's byte offset in the address-column mapping.
func scoreVMA(v *vm.VMA, pl *fidelityPlane, baseOff, totalBytes int64, cut int, interval int32, s *fidScore, row *fidelity.HeatRow) {
	ps := v.PageSize
	for w := 0; w < v.Words(); w++ {
		var tw uint64
		for word := v.ActiveWord(w); word != 0; {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			if bits.Len32(v.Count(i)) >= cut {
				tw |= 1 << uint(i&63)
			}
		}
		ew := pl.est.Word(w)
		pw := pl.prev.Word(w)
		pendw := pl.pend.Word(w)

		s.truthBytes += int64(bits.OnesCount64(tw)) * ps
		s.estBytes += int64(bits.OnesCount64(ew)) * ps
		s.interBytes += int64(bits.OnesCount64(tw&ew)) * ps

		// Lag transitions. Seen: a pending page entered the estimated
		// hot set — close its lag sample.
		seen := ew & pendw
		for word := seen; word != 0; {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			s.lagSum += int64(interval - pl.hotSince[i])
			s.lagN++
			pl.hotSince[i] = -1
		}
		pendw &^= seen
		// Missed: a pending page went cold before the profiler ever
		// covered it.
		missed := pendw &^ tw
		s.missed += int64(bits.OnesCount64(missed))
		for word := missed; word != 0; {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			pl.hotSince[i] = -1
		}
		pendw &^= missed
		// Instantly seen: turned hot already inside the estimate —
		// a zero-lag sample.
		s.lagN += int64(bits.OnesCount64(tw &^ pw & ew &^ pendw))
		// Newly hot, unseen: start the lag clock.
		newh := tw &^ pw &^ ew &^ pendw
		for word := newh; word != 0; {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			pl.hotSince[i] = interval
		}
		pendw |= newh

		pl.pend[w] = pendw
		pl.truth[w] = tw
		pl.prev[w] = tw // becomes "previous" for the next sample

		// Heat columns: hot bytes per address-space slice.
		for word := tw; word != 0; {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			col := int((baseOff + int64(i)*ps) * fidelity.HeatCols / totalBytes)
			row.Truth[col] += ps
		}
		for word := ew; word != 0; {
			i := w*vm.WordPages + bits.TrailingZeros64(word)
			word &= word - 1
			col := int((baseOff + int64(i)*ps) * fidelity.HeatCols / totalBytes)
			row.Est[col] += ps
		}
	}
}

// FidelitySample takes one oracle sample immediately, outside the normal
// end-of-interval sequence. It reads (and does not reset) the current
// access counts, so callers own the surrounding ResetCounts discipline.
// Exported for the zero-alloc gate and the sampling benchmark; simulation
// runs never need it.
func (e *Engine) FidelitySample() { e.fidelityEndInterval() }

// fidelityEndInterval takes the once-per-interval oracle sample. It runs
// after the solution's migration pass and MUST run
// before AddressSpace.ResetCounts — the access counts are the ground
// truth. It charges no virtual time: the oracle is measurement
// scaffolding, not part of the simulated system, so enabling it cannot
// perturb the run it grades.
func (e *Engine) fidelityEndInterval() {
	f := e.fid
	if f == nil {
		return
	}
	vmas := e.AS.VMAs()
	f.samples++
	if len(vmas) == 0 {
		return
	}

	// Truth histogram: bytes per log2(count) bucket. The hot-set cutoff is
	// a pure function of it.
	var bk fidelity.Buckets
	var touchedPages, accesses, totalBytes int64
	for _, v := range vmas {
		totalBytes += v.Bytes()
		_, tp, acc := fidelity.AccumulateTruth(v, 0, v.NPages, &bk)
		touchedPages += tp
		accesses += acc
		pl := f.planes[v]
		if pl == nil {
			pl = &fidelityPlane{
				truth:    vm.NewBitmap(v.NPages),
				prev:     vm.NewBitmap(v.NPages),
				est:      vm.NewBitmap(v.NPages),
				pend:     vm.NewBitmap(v.NPages),
				hotSince: make([]int32, v.NPages),
			}
			for i := range pl.hotSince {
				pl.hotSince[i] = -1
			}
			f.planes[v] = pl
		}
	}
	cut := bk.CutBucket(f.hotset, fidelity.MinHotBucket(accesses, touchedPages))

	// Estimate plane: clear and re-mark from the profiler's
	// hottest regions down to the same byte target. Word-wide stores; the
	// region list is small.
	for _, v := range vmas {
		f.planes[v].est.ClearAll()
	}
	regions := e.solutionRegions()
	f.markEstimate(regions)

	// Rank-agreement inputs: per-region ground-truth access density from
	// the same access counts the profiler could only sample.
	f.whiBuf, f.denBuf, f.bytesBuf = f.whiBuf[:0], f.denBuf[:0], f.bytesBuf[:0]
	for _, r := range regions {
		var sum int64
		for w := r.Start / vm.WordPages; w*vm.WordPages < r.End; w++ {
			word := r.V.TouchedRangeWord(w, r.Start, r.End) & r.V.PresentRangeWord(w, r.Start, r.End)
			for word != 0 {
				i := w*vm.WordPages + bits.TrailingZeros64(word)
				word &= word - 1
				sum += int64(r.V.Count(i))
			}
		}
		den := 0.0
		if rp := r.End - r.Start; rp > 0 {
			den = float64(sum) / float64(rp)
		}
		f.whiBuf = append(f.whiBuf, r.WHI)
		f.denBuf = append(f.denBuf, den)
		f.bytesBuf = append(f.bytesBuf, int64(r.End-r.Start)*r.V.PageSize)
	}
	rank := fidelity.RankAgreement(f.whiBuf, f.denBuf, f.bytesBuf)

	// Truth membership, truth-vs-estimate overlap, estimation-lag
	// transitions, heat columns.
	var sc fidScore
	row := fidelity.HeatRow{Interval: e.Intervals}
	var off int64
	for _, v := range vmas {
		scoreVMA(v, f.planes[v], off, totalBytes, cut, int32(e.Intervals), &sc, &row)
		off += v.Bytes()
	}
	f.lagSum += sc.lagSum
	f.lagN += sc.lagN
	f.missed += sc.missed
	f.heat.Rows = append(f.heat.Rows, row)

	p, r, f1 := fidelity.PRF(sc.truthBytes, sc.estBytes, sc.interBytes)
	if sc.truthBytes > 0 && sc.estBytes > 0 {
		f.scored++
		f.sumP += p
		f.sumR += r
		f.sumF += f1
		f.sumRank += rank
	}

	if f.gPrec != nil {
		f.gPrec.Set(p)
		f.gRec.Set(r)
		f.gF1.Set(f1)
		f.gRank.Set(rank)
		f.gTruthBytes.Set(float64(sc.truthBytes))
		f.gEstBytes.Set(float64(sc.estBytes))
		f.cLag.Add(sc.lagSum)
		f.cLagSamples.Add(sc.lagN)
		f.cMissed.Add(sc.missed)
	}
}

// markEstimate marks the profiler's estimated hot set: regions are
// bucketised by WHI into 32 equal-width buckets and whole buckets are
// taken hottest-first until the byte target is covered — a pure function
// of the region table, mirroring fidelity.Buckets.CutBucket on the truth
// side.
func (f *fidelityState) markEstimate(regions []*region.Region) {
	var maxW float64
	for _, r := range regions {
		if r.WHI > maxW {
			maxW = r.WHI
		}
	}
	if maxW <= 0 {
		return
	}
	const nb = 32
	var bbytes [nb]int64
	for _, r := range regions {
		if r.WHI <= 0 {
			continue
		}
		b := int(r.WHI / maxW * nb)
		if b > nb-1 {
			b = nb - 1
		}
		bbytes[b] += int64(r.End-r.Start) * r.V.PageSize
	}
	cut := nb - 1
	var acc int64
	for k := nb - 1; k >= 0; k-- {
		acc += bbytes[k]
		cut = k
		if acc >= f.hotset {
			break
		}
	}
	for _, r := range regions {
		if r.WHI <= 0 {
			continue
		}
		b := int(r.WHI / maxW * nb)
		if b > nb-1 {
			b = nb - 1
		}
		if b < cut {
			continue
		}
		if pl := f.planes[r.V]; pl != nil {
			pl.est.SetRange(r.Start, r.End)
		}
	}
}

// fidelityOutcome tallies one move the lineage ledger resolved at
// interval cur: the run-wide and per-rule verdict counts, the verdict
// counter, and an outcome span event. No-op without the oracle.
func (e *Engine) fidelityOutcome(m *pendingMove, reaccessed bool, cur int32) {
	f := e.fid
	if f == nil {
		return
	}
	vd := fidelity.Resolve(m.promote, m.flip, reaccessed)
	f.outcomes[vd]++
	key := fidelity.RuleKey{Rule: m.rule, Admission: m.adm}
	c := f.byRule[key]
	if c == nil {
		c = new(fidelity.OutcomeCounts)
		f.byRule[key] = c
	}
	c[vd]++
	if f.cOutcome[vd] != nil {
		f.cOutcome[vd].Inc()
	}
	e.SpanEvent("migration", "outcome",
		span.S("verdict", vd.String()),
		span.S("rule", m.rule),
		span.S("admission", m.adm),
		span.S("vma", m.v.Name),
		span.I("page", int64(m.idx)),
		span.S("src", e.Sys.Topo.Nodes[m.src].Name),
		span.S("dst", e.Sys.Topo.Nodes[m.dst].Name),
		span.I("lag_intervals", int64(cur-m.interval)))
}

// FidelityReport assembles the Result.Fidelity block; nil without
// EnableFidelity, so fidelity-off Result JSON is unchanged.
func (e *Engine) FidelityReport() *fidelity.Report {
	f := e.fid
	if f == nil {
		return nil
	}
	heat := f.heat
	if len(heat.Rows) == 0 {
		heat = nil
	}
	return fidelity.BuildReport(f.samples, f.scored, f.hotset, DefaultFidelityHorizon,
		f.sumP, f.sumR, f.sumF, f.sumRank,
		f.lagSum, f.lagN, f.missed,
		f.outcomes, int64(len(e.lin.pend)), f.byRule, heat)
}
