package sim

import (
	"testing"
	"time"

	"mtm/internal/admission"
	"mtm/internal/health"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// TestInvalidPairsAreInert drives every pair-taking entry point with a
// pair that is not a move between two nodes: a source of vm.NoNode (a
// page with no frame yet) or tier.Invalid, and, where the entry point
// guards it, a destination of tier.Invalid. Each must admit or allow,
// count nothing, emit nothing and not panic. DestUsable and MovePage
// index by dst before any pair test and no caller passes them a bad dst,
// so they get only a bad src. No diagonal pair (src == dst) is driven: no
// caller reaches one, because every mover takes a page off its own node
// (spanCandidates skips pages already on dst, and drainDest never returns
// the draining node).
func TestInvalidPairsAreInert(t *testing.T) {
	e := NewEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB), 1)
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 1})
	enableEventSinks(e)
	e.EnableHealth()
	e.EnableAdmission(true, true) // learning attaches the lineage ledger
	e.beginInterval()
	v := e.AS.Alloc("v", 4*tier.MB)
	e.Access(v, 0, 1, 0, 0) // page 0 on node 1; page 1 has no frame
	const ps = 2 * tier.MB

	now := e.SpanClockNs()
	tokens := func() (out []int64) {
		for s := 0; s < 2; s++ {
			out = append(out, e.adm.ctl.Tokens(s, 1-s, now))
		}
		return out
	}
	before := tokens()

	type pair struct{ src, dst tier.NodeID }
	bad := []pair{{vm.NoNode, 0}, {tier.Invalid, 1}, {0, tier.Invalid}, {1, vm.NoNode}}
	for _, p := range bad {
		if d := e.AdmitMigration(p.src, p.dst, 4*ps, ps, 1, 1); d.Verdict != admission.VerdictAdmit || d.AllowedBytes != 4*ps {
			t.Errorf("AdmitMigration(%d, %d) = %+v, want all bytes admitted", p.src, p.dst, d)
		}
		if d := e.AdmitFlip(p.src, p.dst, ps, 1, 1, 100); d.Verdict != admission.VerdictAdmit {
			t.Errorf("AdmitFlip(%d, %d) = %+v, want admit", p.src, p.dst, d)
		}
		if st, consec, until, trips := e.BreakerEvidence(p.src, p.dst); st != health.BreakerClosed.String() || consec != 0 || until != 0 || trips != 0 {
			t.Errorf("BreakerEvidence(%d, %d) = %s %d %d %d, want a closed breaker", p.src, p.dst, st, consec, until, trips)
		}
		if !e.admitLaneMove(admission.ClassDrain, p.src, p.dst, ps) {
			t.Errorf("admitLaneMove(%d, %d) refused", p.src, p.dst)
		}
		e.admissionChargeBackground(p.src, p.dst, 1<<40)
	}
	for _, dst := range []tier.NodeID{0, 1} {
		if !e.DestUsable(vm.NoNode, dst) {
			t.Errorf("DestUsable(NoNode, %d) = false", dst)
		}
	}
	if !e.PageMoveAllowed(v, 1, 0) {
		t.Error("PageMoveAllowed of a page with no frame = false")
	}
	if !e.PageMoveAllowed(v, 0, tier.Invalid) {
		t.Error("PageMoveAllowed to tier.Invalid = false")
	}
	if !e.MovePage(v, 1, 0) || v.Node(1) != 0 {
		t.Fatalf("MovePage of a page with no frame: node %d, want 0", v.Node(1))
	}

	if got := tokens(); got[0] != before[0] || got[1] != before[1] {
		t.Errorf("pair tokens %v, want %v unchanged", got, before)
	}
	if e.RobustnessCounters != (RobustnessCounters{}) || e.HealthCounters != (HealthCounters{}) ||
		e.AdmissionCounters != (AdmissionCounters{}) || e.ShadowCounters != (ShadowCounters{}) {
		t.Errorf("Result counters moved: %+v %+v %+v %+v",
			e.RobustnessCounters, e.HealthCounters, e.AdmissionCounters, e.ShadowCounters)
	}
	if ls := e.AdmissionLaneStats(); *ls != (LaneStats{}) {
		t.Errorf("lane stats %+v, want zero", ls)
	}
	if n := len(e.lin.pend); n != 0 {
		t.Errorf("lineage holds %d pending moves, want 0", n)
	}
	perPair := 0
	for _, in := range e.MetricsExport().Instruments {
		if in.Kind != "counter" || len(in.Labels) != 2 || in.Labels[0].Key != "src" {
			continue
		}
		perPair++
		if in.Value != 0 {
			t.Errorf("%s%v = %v, want 0", in.Name, in.Labels, in.Value)
		}
	}
	if perPair != 4*2 {
		t.Errorf("%d per-pair counters, want 4 instruments × 2 pairs", perPair)
	}
	wantLines(t, "ring", ringRows(e), nil)
	wantLines(t, "spans", spanInstants(e), nil)
}
