package admission

import (
	"math"
	"testing"
)

// learnCtl builds a two-node learning controller with a generous budget
// on the 0→1 pair so floor behaviour, not tokens, decides admissions.
func learnCtl(t *testing.T) *Controller {
	t.Helper()
	c := NewController(2, true, false)
	c.SetRate(0, 1, 1<<40, 1<<40)
	return c
}

// feed notes n identical verdicts on the 0→1 pair.
func feed(c *Controller, n int, reaccessed bool) {
	for i := 0; i < n; i++ {
		c.NoteOutcome(0, 1, reaccessed)
	}
}

// TestLearnerConvergence is the convergence property test for the
// online MinROI learner: under sustained promoted-wasted evidence the
// floor rises monotonically in bounded steps until it saturates at
// LearnMax; under sustained reaccess it falls to LearnMin; and with
// fewer verdicts than the evidence floor it freezes exactly.
func TestLearnerConvergence(t *testing.T) {
	t.Run("rises-under-sustained-waste", func(t *testing.T) {
		c := learnCtl(t)
		base := c.MinROIFor(0, 1)
		if base != MinROI {
			t.Fatalf("seed floor = %v, want static MinROI %v", base, MinROI)
		}
		prev := base
		for i := 0; i < 64; i++ {
			feed(c, EvidenceFloor, false)
			c.EndInterval(int64(i + 1))
			got := c.MinROIFor(0, 1)
			if got < prev {
				t.Fatalf("interval %d: floor fell %v -> %v under pure waste", i, prev, got)
			}
			// One adaptation may not exceed the bounded multiplicative step.
			if max := prev * (1 + LearnStep); got > max+1e-12 {
				t.Fatalf("interval %d: floor jumped %v -> %v, step bound %v", i, prev, got, max)
			}
			prev = got
		}
		if prev != LearnMax {
			t.Fatalf("floor after sustained waste = %v, want saturation at LearnMax %v", prev, LearnMax)
		}
	})

	t.Run("falls-under-sustained-reaccess", func(t *testing.T) {
		c := learnCtl(t)
		prev := c.MinROIFor(0, 1)
		for i := 0; i < 64; i++ {
			feed(c, EvidenceFloor, true)
			c.EndInterval(int64(i + 1))
			got := c.MinROIFor(0, 1)
			if got > prev {
				t.Fatalf("interval %d: floor rose %v -> %v under pure reaccess", i, prev, got)
			}
			prev = got
		}
		if prev != LearnMin {
			t.Fatalf("floor after sustained reaccess = %v, want saturation at LearnMin %v", prev, LearnMin)
		}
	})

	t.Run("freezes-below-evidence-floor", func(t *testing.T) {
		c := learnCtl(t)
		base := c.MinROIFor(0, 1)
		// One verdict short of the evidence floor, many intervals: the
		// floor must not move at all.
		feed(c, EvidenceFloor-1, false)
		for i := 0; i < 16; i++ {
			c.EndInterval(int64(i + 1))
			if got := c.MinROIFor(0, 1); got != base {
				t.Fatalf("interval %d: floor moved to %v on %d verdicts (evidence floor %d)", i, got, EvidenceFloor-1, EvidenceFloor)
			}
		}
		// Evidence accumulates rather than resetting: one more verdict
		// tips the pair over the floor and adaptation resumes.
		feed(c, 1, false)
		c.EndInterval(100)
		if got := c.MinROIFor(0, 1); got <= base {
			t.Fatalf("floor = %v after crossing the evidence floor, want a rise above %v", got, base)
		}
	})

	t.Run("mixed-evidence-tracks-target-waste", func(t *testing.T) {
		c := learnCtl(t)
		base := c.MinROIFor(0, 1)
		// 1 bad in 8 (12.5% < TargetWaste 25%): acceptable waste, floor
		// falls.
		feed(c, 7, true)
		feed(c, 1, false)
		c.EndInterval(1)
		if got := c.MinROIFor(0, 1); got >= base {
			t.Fatalf("floor = %v with waste below target, want a fall below %v", got, base)
		}
	})

	t.Run("decision-floor-is-learned", func(t *testing.T) {
		c := learnCtl(t)
		for i := 0; i < 64; i++ {
			feed(c, EvidenceFloor, false)
			c.EndInterval(int64(i + 1))
		}
		// A promotion priced against the saturated floor must carry it in
		// the decision and reject ROI below it.
		roi := LearnMax * 0.99
		d := c.AdmitClass(ClassNormal, 0, 1, DirPromote, roi, page, page, 1000)
		if d.Floor != LearnMax {
			t.Fatalf("Decision.Floor = %v, want learned %v", d.Floor, LearnMax)
		}
		if d.Verdict != VerdictReject || d.Rule != RuleLowROI {
			t.Fatalf("verdict = %v rule %q for roi below learned floor, want reject/%s", d.Verdict, d.Rule, RuleLowROI)
		}
		if d2 := c.AdmitClass(ClassNormal, 0, 1, DirPromote, LearnMax*1.01, page, page, 1000); d2.Verdict != VerdictAdmit {
			t.Fatalf("verdict = %v for roi above learned floor, want admit", d2.Verdict)
		}
	})
}

// TestLearnerDisabledKeepsStaticFloor asserts the learner is inert
// unless enabled: NoteOutcome/EndInterval never move the static floor.
func TestLearnerDisabledKeepsStaticFloor(t *testing.T) {
	c := NewController(2, false, false)
	for i := 0; i < 8; i++ {
		c.NoteOutcome(0, 1, false)
		c.EndInterval(int64(i + 1))
	}
	if got := c.MinROIFor(0, 1); got != MinROI {
		t.Fatalf("MinROIFor without learning = %v, want static %v", got, MinROI)
	}
}

// TestLearnerDeterministicReplay runs the same verdict schedule twice
// and requires bit-identical floors — the property the determinism
// gate relies on.
func TestLearnerDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		c := learnCtl(t)
		floors := make([]float64, 0, 32)
		for i := 0; i < 32; i++ {
			// A deterministic mixed schedule: waste bursts every third
			// interval, reaccess otherwise.
			feed(c, 4, i%3 != 0)
			feed(c, 4, false)
			c.EndInterval(int64(i + 1))
			floors = append(floors, c.MinROIFor(0, 1))
		}
		return floors
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("floor trajectory diverged at interval %d: %v vs %v", i, a[i], b[i])
		}
	}
}
