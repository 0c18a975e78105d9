// Package experiments regenerates every table and figure of the MTM
// paper's evaluation (§9). Each driver returns a text report whose rows
// mirror the corresponding figure's series or table's cells; cmd/experiments
// prints them and TestExperimentsPin pins their text.
//
// Absolute numbers come from the virtual-time simulator, so they will not
// match the paper's testbed; the shapes — who wins, by roughly what
// factor, where crossovers fall — are the reproduction target (see
// EXPERIMENTS.md for the side-by-side record).
package experiments

import (
	"fmt"
	"strings"

	"mtm"
	"mtm/internal/migrate"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/stats"
	"mtm/internal/tier"
	"mtm/internal/vm"
	"mtm/internal/workload"
)

// Options scales an experiment run. config takes all three as given;
// cmd/experiments checks its flags, and TestExperimentsPin fixes its own.
type Options struct {
	Scale     int64
	OpsFactor float64
	Seed      int64
}

func (o Options) config() mtm.Config {
	c := mtm.DefaultConfig()
	c.Scale = o.Scale
	c.OpsFactor = o.OpsFactor
	c.Seed = o.Seed
	return c
}

// section collects one report's runs: the warnings they record and the
// first config error, which then stands for the whole report.
type section struct {
	warns []string
	err   error
}

// run is the package's one simulation path. It validates c, builds an
// engine for it, runs w under s for at most maxIntervals, and returns
// the engine and the Result. A failed run records a warning and so does
// one cut short at mtm.MaxIntervals; a smaller cap is a fixed window
// (fig1, fig6, tab5), not truncation. A run that ends without an
// interval (out of memory in Init, or the workload done before its first
// interval) also records one and returns a nil Result, so it contributes
// no row; so does every run after a config error.
func (sec *section) run(c mtm.Config, w sim.Workload, s sim.Solution, maxIntervals int) (*sim.Engine, *mtm.Result) {
	if sec.err == nil {
		sec.err = c.Validate()
	}
	if sec.err != nil {
		return nil, nil
	}
	e := mtm.NewEngine(c)
	res, err := sim.Run(e, w, s, maxIntervals)
	switch {
	case err != nil:
		sec.warn("%s under %s failed after %d intervals: %v", res.Workload, res.Solution, res.Intervals, err)
	case res.Intervals == 0:
		sec.warn("%s under %s finished before its first interval; no row", res.Workload, res.Solution)
	case res.Truncated && maxIntervals == mtm.MaxIntervals:
		sec.warn("%s under %s truncated after %d intervals; row covers a partial run", res.Workload, res.Solution, res.Intervals)
	}
	if res.Intervals == 0 {
		return nil, nil
	}
	return e, res
}

// named runs workload wl under solution sol to completion.
func (sec *section) named(c mtm.Config, wl, sol string) *mtm.Result {
	_, res := sec.run(c, known(mtm.NewWorkload(wl, c)), known(mtm.NewSolution(sol, c)), mtm.MaxIntervals)
	return res
}

func (sec *section) warn(format string, args ...interface{}) {
	sec.warns = append(sec.warns, "warning: "+fmt.Sprintf(format, args...)+"\n")
}

// text renders the section: its title, table and warnings, or the config
// error alone.
func (sec *section) text(title string, tb *stats.Table) string {
	if sec.err != nil {
		return sec.err.Error()
	}
	return title + "\n" + tb.String() + strings.Join(sec.warns, "")
}

// known returns v. The drivers name only workloads and solutions that
// exist, so an error is a bug in the driver.
func known[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// observed is a solution whose IntervalEnd calls after once the wrapped
// solution's returns, for drivers that read profiler state every
// interval (fig1, tab7). e.Intervals is then the index of the interval
// ending.
type observed struct {
	sim.Solution
	after func(e *sim.Engine)
}

func (s observed) IntervalEnd(e *sim.Engine) {
	s.Solution.IntervalEnd(e)
	s.after(e)
}

// migrateFresh faults a new bytes-long array onto the fastest tier of a
// first-touch engine, one access per page, and migrates all of it to dst
// with m (fig3, fig11).
func migrateFresh(c mtm.Config, bytes int64, m migrate.Mechanism, dst tier.NodeID) migrate.Report {
	e := mtm.NewEngine(c)
	e.SetSolution(policy.NewFirstTouch())
	v := e.AS.Alloc("array", bytes)
	e.Sys.ResetWindow(e.Interval)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	return m.Migrate(e, v, 0, v.NPages, dst, 0)
}

// Experiment is one figure or table of the evaluation and its driver.
type Experiment struct {
	ID  string
	Run func(Options) string
}

// All lists the experiments in report order.
var All = []Experiment{
	{"fig1", Fig1ProfilingQuality},
	{"fig3", Fig3MigrationBreakdown},
	{"fig4", Fig4Overall},
	{"fig5", Fig5Breakdown},
	{"fig6", Fig6Heatmap},
	{"fig7", Fig7Ablations},
	{"fig8", Fig8OverheadSweep},
	{"fig9", Fig9Thresholds},
	{"fig10", Fig10Alpha},
	{"fig11", Fig11Mechanisms},
	{"fig12", Fig12TwoTier},
	{"tab3", Tab3HotPages},
	{"tab4", Tab4InitialPlacement},
	{"tab5", Tab5MemoryOverhead},
	{"tab6", Tab6TierAccesses},
	{"tab7", Tab7RegionStats},
	{"cxl", CXLGenerality},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fig1ProfilingQuality reproduces Figure 1: recall and accuracy of hot-page
// detection over time for MTM, DAMON, Thermostat and AutoTiering profiling
// under the same overhead budget, on GUPS with a time-varying hot set.
func Fig1ProfilingQuality(o Options) string {
	cfg := o.config()
	profilers := []struct {
		name string
		p    profiler.Profiler
	}{
		{"MTM", profiler.NewMTM(profiler.DefaultMTMConfig())},
		{"DAMON", profiler.NewDAMON()},
		{"Thermostat", profiler.NewThermostat()},
		{"AutoTiering", profiler.NewRandomChunk()},
	}
	tb := stats.NewTable("interval", "profiler", "recall", "accuracy")
	var sec section
	for _, ps := range profilers {
		w := workload.NewGUPS(workload.Config{Scale: cfg.Scale, OpsFactor: cfg.OpsFactor})
		// Figure 1's GUPS re-draws its hot set periodically so slow
		// profilers visibly lag (§9.3).
		w.EpochOps = w.TotalOps() / 6
		w.DriftOps = 0
		sec.run(cfg, w, observed{policy.NewProfileOnly(ps.p), func(e *sim.Engine) {
			if i := e.Intervals; i%10 == 9 {
				hot := w.HotFootprintBytes()
				q := stats.DetectionQuality(ps.p.Regions(), stats.HotOracle(w.IsHot), hot, hot)
				tb.Row(i+1, ps.name, q.Recall, q.Accuracy)
			}
		}}, 60)
	}
	return sec.text("Figure 1: profiling recall/accuracy over time (GUPS, 5% overhead)", tb)
}

// Fig3MigrationBreakdown reproduces Figure 3: the step breakdown of
// migrating one 2 MB region from the fastest to the slowest tier with
// move_pages() vs MTM's move_memory_regions().
func Fig3MigrationBreakdown(o Options) string {
	cfg := o.config()
	view := cfg.Topology().View(0)
	mp := migrateFresh(cfg, vm.HugePageSize, migrate.MovePages{}, view[len(view)-1])
	mmr := migrateFresh(cfg, vm.HugePageSize, &migrate.Adaptive{WriteRate: 0}, view[len(view)-1])
	tb := stats.NewTable("mechanism", "alloc", "unmap", "copy", "remap", "pt", "dirty", "critical")
	row := func(name string, r migrate.Report) {
		st := r.CriticalSteps
		tb.Row(name, st.Alloc, st.Unmap, st.Copy, st.Remap, st.PageTable, st.DirtyTrack, r.Critical)
	}
	row("move_pages", mp)
	row("move_memory_regions", mmr)
	speedup := float64(mp.Critical) / float64(mmr.Critical)
	return fmt.Sprintf("Figure 3: 2MB region, tier1->tier4 (paper: copy dominates; 4.37x)\n%s\nspeedup: %.2fx\n", tb.String(), speedup)
}

// fig4Solutions are the Figure 4/5 solution set in bar order.
var fig4Solutions = []string{"first-touch", "hmc", "vanilla-tiered-autonuma", "tiered-autonuma", "autotiering", "mtm"}

// Fig4Overall reproduces Figure 4: execution time of every workload under
// the six solutions, normalised to first-touch NUMA.
func Fig4Overall(o Options) string {
	cfg := o.config()
	tb := stats.NewTable("workload", "solution", "exec", "normalized")
	var sec section
	for _, wl := range mtm.PaperWorkloadNames() {
		var ft float64
		for _, sol := range fig4Solutions {
			res := sec.named(cfg, wl, sol)
			if res == nil {
				continue
			}
			if sol == "first-touch" {
				ft = res.ExecTime.Seconds()
			}
			tb.Row(wl, res.Solution, res.ExecTime, res.ExecTime.Seconds()/ft)
		}
	}
	return sec.text("Figure 4: overall performance normalized to first-touch NUMA", tb)
}

// Fig5Breakdown reproduces Figure 5: application / profiling / migration
// time for the four solutions that manage all four tiers.
func Fig5Breakdown(o Options) string {
	cfg := o.config()
	sols := []string{"first-touch", "tiered-autonuma", "autotiering", "mtm"}
	tb := stats.NewTable("workload", "solution", "app", "profiling", "migration", "total")
	var sec section
	for _, wl := range mtm.PaperWorkloadNames() {
		for _, sol := range sols {
			if res := sec.named(cfg, wl, sol); res != nil {
				tb.Row(wl, res.Solution, res.App, res.Profiling, res.Migration, res.ExecTime)
			}
		}
	}
	return sec.text("Figure 5: execution time breakdown", tb)
}

// Fig6Heatmap reproduces Figure 6: whether the profilers find GUPS's three
// hot objects — the index array A, the hot-set descriptor B, and the hot
// blocks C — reported as detected-hot coverage of each object.
func Fig6Heatmap(o Options) string {
	cfg := o.config()
	profilers := []struct {
		name string
		p    profiler.Profiler
	}{
		{"MTM", profiler.NewMTM(profiler.DefaultMTMConfig())},
		{"DAMON", profiler.NewDAMON()},
	}
	tb := stats.NewTable("profiler", "A (index)", "B (hotinfo)", "C (hotset)", "false-hot share")
	var sec section
	for _, ps := range profilers {
		w := workload.NewGUPS(workload.Config{Scale: cfg.Scale, OpsFactor: cfg.OpsFactor})
		if _, res := sec.run(cfg, w, policy.NewProfileOnly(ps.p), 40); res != nil {
			a, b, c, falseHot := objectCoverage(w, ps.p)
			tb.Row(ps.name, a, b, c, falseHot)
		}
	}
	return sec.text("Figure 6: detected-hot coverage of GUPS objects A/B/C", tb)
}

// objectCoverage returns the share of each of GUPS's objects A, B and C
// that p's regions detect as hot, and the share of the detected bytes
// that lie outside all three.
func objectCoverage(w *workload.GUPS, p profiler.Profiler) (a, b, c, falseHot float64) {
	var got, total [256]float64
	var excess float64
	for _, r := range profiler.HotBytes(p.Regions(), w.HotFootprintBytes()) {
		for i := r.Start; i < r.End; i++ {
			switch o := w.Object(r.V, i); o {
			case 'A', 'B', 'C':
				got[o] += float64(r.V.PageSize)
			default:
				excess += float64(r.V.PageSize)
			}
		}
	}
	heap := w.Heap()
	for i := 0; i < heap.NPages; i++ {
		total[w.Object(heap, i)] += float64(heap.PageSize)
	}
	if det := got['A'] + got['B'] + got['C'] + excess; det > 0 {
		falseHot = excess / det
	}
	return got['A'] / total['A'], got['B'] / total['B'], got['C'] / total['C'], falseHot
}
