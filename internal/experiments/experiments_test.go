package experiments

import (
	"strings"
	"testing"

	"mtm"
	"mtm/internal/policy"
	"mtm/internal/sim"
)

// TestAllIDsUnique: Find returns the first experiment with an id, so a
// second one with the same id would never run alone.
func TestAllIDsUnique(t *testing.T) {
	seen := make(map[string]bool, len(All))
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("All lists %q twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestOptionsTakenAsGiven: every Options field reaches the run's config,
// seed 0 included.
func TestOptionsTakenAsGiven(t *testing.T) {
	c := Options{Scale: 256, OpsFactor: 0.1, Seed: 0}.config()
	if c.Scale != 256 || c.OpsFactor != 0.1 || c.Seed != 0 {
		t.Fatalf("Options{Scale: 256, OpsFactor: 0.1, Seed: 0} ran -scale %d -ops %v -seed %d", c.Scale, c.OpsFactor, c.Seed)
	}
}

// TestNoRowWithoutIntervals: VoltDB runs out of memory in Init at scale
// 2048, so its runs end with no interval. Tab 3, Tab 5 and Tab 7 divide
// by the interval count or read state the first interval builds; each
// must print a warning for VoltDB instead of a row, and not panic.
func TestNoRowWithoutIntervals(t *testing.T) {
	o := Options{Scale: 2048, OpsFactor: 0.02, Seed: 1}
	for _, id := range []string{"tab3", "tab5", "tab7"} {
		ex, _ := Find(id)
		out := ex.Run(o)
		if !strings.Contains(out, "warning: VoltDB under ") {
			t.Errorf("%s printed no VoltDB warning:\n%s", id, out)
		}
		if strings.Contains(out, "\nvoltdb ") {
			t.Errorf("%s printed a VoltDB row:\n%s", id, out)
		}
	}
}

// script is a workload that issues nothing and is done after doneAfter
// intervals (never, when negative).
type script struct {
	doneAfter, ran int
}

func (s *script) Name() string              { return "script" }
func (s *script) Init(e *sim.Engine)        {}
func (s *script) RunInterval(e *sim.Engine) { s.ran++ }
func (s *script) Done() bool                { return s.doneAfter >= 0 && s.ran >= s.doneAfter }

// TestRunWarnings: a run done before its first interval gives no Result
// and a warning; a fixed window shorter than mtm.MaxIntervals is not
// truncation, and a run cut short at mtm.MaxIntervals is.
func TestRunWarnings(t *testing.T) {
	cfg := Options{Scale: 256, OpsFactor: 0.1, Seed: 1}.config()
	for _, tc := range []struct {
		doneAfter, max, intervals int
		warning                   string
	}{
		{0, mtm.MaxIntervals, 0, "warning: script under first-touch NUMA finished before its first interval; no row\n"},
		{2, mtm.MaxIntervals, 2, ""},
		{-1, 3, 3, ""},
		{-1, mtm.MaxIntervals, mtm.MaxIntervals, "warning: script under first-touch NUMA truncated after 4096 intervals; row covers a partial run\n"},
	} {
		var sec section
		_, res := sec.run(cfg, &script{doneAfter: tc.doneAfter}, policy.NewFirstTouch(), tc.max)
		got := 0
		if res != nil {
			got = res.Intervals
		}
		if got != tc.intervals || strings.Join(sec.warns, "") != tc.warning {
			t.Errorf("done after %d, max %d: %d intervals, warnings %q; want %d, %q",
				tc.doneAfter, tc.max, got, sec.warns, tc.intervals, tc.warning)
		}
	}
}
