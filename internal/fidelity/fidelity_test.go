package fidelity

import (
	"math/bits"
	"math/rand"
	"testing"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

// TestAccumulateTruthMatchesNaive pins the word-wide truth accumulator
// against a page-at-a-time reference loop over a randomly populated VMA:
// same histogram, same tallies, for every page span — including spans
// that start and end mid-word.
func TestAccumulateTruthMatchesNaive(t *testing.T) {
	as := vm.NewAddressSpace()
	as.THP = false
	v := as.Alloc("truth", 3000*vm.BasePageSize)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < v.NPages; i++ {
		if rng.Intn(4) == 0 {
			continue // leave a hole: not present
		}
		v.Place(i, tier.NodeID(0))
		if n := rng.Intn(300); n > 0 {
			v.TouchN(i, uint32(n), 0, 0)
		}
	}

	spans := [][2]int{{0, v.NPages}, {0, 64}, {7, 130}, {65, 67}, {2999, 3000}, {100, 100}}
	for _, sp := range spans {
		lo, hi := sp[0], sp[1]
		var got Buckets
		gb, gp, ga := AccumulateTruth(v, lo, hi, &got)

		var want Buckets
		var wb, wp, wa int64
		for i := lo; i < hi; i++ {
			if !v.Present(i) || !v.Touched(i) {
				continue
			}
			c := v.Count(i)
			want[bits.Len32(c)] += v.PageSize
			wb += v.PageSize
			wp++
			wa += int64(c)
		}
		if got != want {
			t.Errorf("span [%d,%d): histogram mismatch\n got %v\nwant %v", lo, hi, got, want)
		}
		if gb != wb || gp != wp || ga != wa {
			t.Errorf("span [%d,%d): tallies = (%d,%d,%d), want (%d,%d,%d)", lo, hi, gb, gp, ga, wb, wp, wa)
		}
	}
}

func TestCutBucket(t *testing.T) {
	var b Buckets
	b[10] = 100 // hottest
	b[5] = 200
	b[2] = 1000
	if got := b.CutBucket(100, 1); got != 10 {
		t.Errorf("target covered by the top bucket: cut = %d, want 10", got)
	}
	if got := b.CutBucket(250, 1); got != 5 {
		t.Errorf("target needing two buckets: cut = %d, want 5", got)
	}
	if got := b.CutBucket(1<<40, 1); got != 1 {
		t.Errorf("target beyond everything: cut = %d, want 1 (every touched page is hot)", got)
	}
	if got := b.CutBucket(1<<40, 4); got != 4 {
		t.Errorf("minBucket floor: cut = %d, want 4", got)
	}
	var empty Buckets
	if got := empty.CutBucket(100, 3); got != 3 {
		t.Errorf("empty histogram: cut = %d, want the floor 3", got)
	}
}

func TestMinHotBucket(t *testing.T) {
	// 1000 accesses over 10 pages: mean 100, threshold 200 → bucket 8
	// (Len64(200) = 8), so pages need count >= 128 to qualify.
	if got := MinHotBucket(1000, 10); got != 8 {
		t.Errorf("MinHotBucket(1000, 10) = %d, want 8", got)
	}
	if got := MinHotBucket(0, 0); got != 1 {
		t.Errorf("MinHotBucket(0, 0) = %d, want 1", got)
	}
	// Mean below 1 clamps to 1: threshold 2 → bucket 2.
	if got := MinHotBucket(3, 100); got != 2 {
		t.Errorf("MinHotBucket(3, 100) = %d, want 2", got)
	}
}

func TestPRF(t *testing.T) {
	p, r, f1 := PRF(100, 50, 25)
	if p != 0.5 || r != 0.25 {
		t.Errorf("PRF = (%v, %v), want (0.5, 0.25)", p, r)
	}
	wantF1 := 2 * 0.5 * 0.25 / 0.75
	if f1 != wantF1 {
		t.Errorf("F1 = %v, want %v", f1, wantF1)
	}
	if p, r, f1 = PRF(0, 0, 0); p != 0 || r != 0 || f1 != 0 {
		t.Errorf("PRF(0,0,0) = (%v,%v,%v), want zeros", p, r, f1)
	}
}

func TestRankAgreement(t *testing.T) {
	// Perfectly aligned ranking: agreement 1.
	whi := []float64{1, 2, 4, 8}
	den := []float64{10, 20, 40, 80}
	bytes := []int64{1, 1, 1, 1}
	if got := RankAgreement(whi, den, bytes); got != 1 {
		t.Errorf("aligned ranking: agreement = %v, want 1", got)
	}
	// Perfectly inverted two-region ranking: agreement 0.
	if got := RankAgreement([]float64{1e-9, 1}, []float64{1, 1e-9}, []int64{1, 1}); got != 0 {
		t.Errorf("inverted ranking: agreement = %v, want 0", got)
	}
	if got := RankAgreement(nil, nil, nil); got != 0 {
		t.Errorf("empty input: agreement = %v, want 0", got)
	}
}

func TestResolveVerdicts(t *testing.T) {
	cases := []struct {
		promote, flip, reaccessed bool
		want                      Verdict
	}{
		{true, false, true, PromotedReaccessed},
		{true, false, false, PromotedWasted},
		{false, false, true, DemotedRefaulted},
		{false, false, false, DemotedCorrect},
		{false, true, true, FlipResurrected},
		{false, true, false, DemotedCorrect},
	}
	for _, c := range cases {
		if got := Resolve(c.promote, c.flip, c.reaccessed); got != c.want {
			t.Errorf("Resolve(%v, %v, %v) = %s, want %s", c.promote, c.flip, c.reaccessed, got, c.want)
		}
	}
}

// TestBuildReportByRuleOrder pins the deterministic ByRule ordering:
// sorted by (Rule, Admission) regardless of map iteration order.
func TestBuildReportByRuleOrder(t *testing.T) {
	byRule := map[RuleKey]*OutcomeCounts{
		{Rule: "b", Admission: "y"}: {1, 0, 0, 0, 0},
		{Rule: "a", Admission: "z"}: {0, 2, 0, 0, 0},
		{Rule: "a", Admission: "x"}: {0, 0, 3, 0, 0},
	}
	rep := BuildReport(1, 1, 0, 8, 0, 0, 0, 0, 0, 0, 0, OutcomeCounts{}, 0, byRule, nil)
	want := []RuleKey{{"a", "x"}, {"a", "z"}, {"b", "y"}}
	if len(rep.ByRule) != len(want) {
		t.Fatalf("ByRule entries = %d, want %d", len(rep.ByRule), len(want))
	}
	for i, w := range want {
		if rep.ByRule[i].Rule != w.Rule || rep.ByRule[i].Admission != w.Admission {
			t.Errorf("ByRule[%d] = (%s, %s), want (%s, %s)",
				i, rep.ByRule[i].Rule, rep.ByRule[i].Admission, w.Rule, w.Admission)
		}
	}
}
