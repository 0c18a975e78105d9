// Package experiments regenerates every table and figure of the MTM
// paper's evaluation (§9). Each driver returns a text report whose rows
// mirror the corresponding figure's series or table's cells; cmd/experiments
// prints them and bench_test.go wraps them as benchmarks.
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

// Options scales an experiment run. Zero values select the defaults used
// by cmd/experiments (-full sets OpsFactor=1).
type Options struct {
	Scale     int64
	OpsFactor float64
	Seed      int64
}

func (o Options) config() mtm.Config {
	c := mtm.DefaultConfig()
	if o.Scale > 0 {
		c.Scale = o.Scale
	} else {
		c.Scale = 256
	}
	if o.OpsFactor > 0 {
		c.OpsFactor = o.OpsFactor
	} else {
		c.OpsFactor = 0.5
	}
	if o.Seed != 0 {
		c.Seed = o.Seed
	}
	return c
}

// note flags partial runs: a hard mid-run failure (e.g. out of memory)
// or a truncated run (maxIntervals elapsed before completion) appends a
// warning so the section never reports partial numbers as complete. It
// passes the run through otherwise.
func note(warns *[]string, res *mtm.Result, err error) (*mtm.Result, error) {
	switch {
	case err != nil && res == nil:
		return nil, err
	case err != nil:
		*warns = append(*warns, fmt.Sprintf("warning: %s under %s failed after %d intervals: %v",
			res.Workload, res.Solution, res.Intervals, err))
	case res.Truncated:
		*warns = append(*warns, fmt.Sprintf("warning: %s under %s truncated after %d intervals; row covers a partial run",
			res.Workload, res.Solution, res.Intervals))
	}
	return res, nil
}

// withWarnings appends collected partial-run warnings to a section body.
func withWarnings(body string, warns []string) string {
	if len(warns) == 0 {
		return body
	}
	return body + strings.Join(warns, "\n") + "\n"
}

// All maps experiment ids (fig1..fig12, tab3..tab7) to drivers.
var All = map[string]func(Options) string{
	"fig1":  Fig1ProfilingQuality,
	"fig3":  Fig3MigrationBreakdown,
	"fig4":  Fig4Overall,
	"fig5":  Fig5Breakdown,
	"fig6":  Fig6Heatmap,
	"fig7":  Fig7Ablations,
	"fig8":  Fig8OverheadSweep,
	"fig9":  Fig9Thresholds,
	"fig10": Fig10Alpha,
	"fig11": Fig11Mechanisms,
	"fig12": Fig12TwoTier,
	"tab3":  Tab3HotPages,
	"tab4":  Tab4InitialPlacement,
	"tab5":  Tab5MemoryOverhead,
	"tab6":  Tab6TierAccesses,
	"tab7":  Tab7RegionStats,
	"cxl":   CXLGenerality,
}

// Names returns the experiment ids in report order.
func Names() []string {
	return []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "tab3", "tab4", "tab5", "tab6", "tab7", "cxl"}
}

// profAdapter runs a bare profiler as a non-migrating solution so
// profiling quality can be measured in isolation (Figures 1 and 6).
type profAdapter struct {
	p profiler.Profiler
}

func (a *profAdapter) Name() string { return a.p.Name() }
func (a *profAdapter) Place(e *sim.Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return e.Sys.FirstFit(e.Sys.Topo.View(socket), v.PageSize)
}
func (a *profAdapter) IntervalStart(e *sim.Engine) {
	if e.Intervals == 0 {
		a.p.Attach(e)
	}
	a.p.IntervalStart(e)
}
func (a *profAdapter) IntervalEnd(e *sim.Engine) { a.p.Profile(e) }

// Fig1ProfilingQuality reproduces Figure 1: recall and accuracy of hot-page
// detection over time for MTM, DAMON, Thermostat and AutoTiering profiling
// under the same overhead budget, on GUPS with a time-varying hot set.
func Fig1ProfilingQuality(o Options) string {
	cfg := o.config()
	type series struct {
		name string
		mk   func() profiler.Profiler
	}
	profilers := []series{
		{"MTM", func() profiler.Profiler { return profiler.NewMTM(profiler.DefaultMTMConfig()) }},
		{"DAMON", func() profiler.Profiler { return profiler.NewDAMON() }},
		{"Thermostat", func() profiler.Profiler { return profiler.NewThermostat() }},
		{"AutoTiering", func() profiler.Profiler { return profiler.NewRandomChunk() }},
	}
	tb := stats.NewTable("interval", "profiler", "recall", "accuracy")
	for _, ps := range profilers {
		e := mtm.NewEngine(cfg)
		w := workload.NewGUPS(workload.Config{Scale: cfg.Scale, OpsFactor: cfg.OpsFactor})
		// Figure 1's GUPS re-draws its hot set periodically so slow
		// profilers visibly lag (§9.3).
		w.EpochOps = w.TotalOps() / 6
		w.DriftOps = 0
		p := ps.mk()
		e.SetSolution(&profAdapter{p: p})
		w.Init(e)
		for i := 0; i < 60 && !w.Done(); i++ {
			e.RunInterval(w)
			if i%10 != 9 {
				continue
			}
			hot := w.HotFootprintBytes()
			q := stats.DetectionQuality(p.Regions(), stats.HotOracle(w.IsHot), hot, hot)
			tb.Row(i+1, ps.name, q.Recall, q.Accuracy)
		}
	}
	return "Figure 1: profiling recall/accuracy over time (GUPS, 5% overhead)\n" + tb.String()
}

// Fig3MigrationBreakdown reproduces Figure 3: the step breakdown of
// migrating one 2 MB region from the fastest to the slowest tier with
// move_pages() vs MTM's move_memory_regions().
func Fig3MigrationBreakdown(o Options) string {
	cfg := o.config()
	run := func(m migrate.Mechanism) migrate.Report {
		e := mtm.NewEngine(cfg)
		e.SetSolution(policy.NewFirstTouch())
		v := e.AS.Alloc("region", vm.HugePageSize)
		e.Sys.ResetWindow(e.Interval)
		e.Access(v, 0, 1, 0, 0) // fault onto the fastest tier
		slowest := e.Sys.Topo.View(0)[len(e.Sys.Topo.Nodes)-1]
		return m.Migrate(e, v, 0, v.NPages, slowest, 0)
	}
	mp := run(migrate.MovePages{})
	async := &migrate.Adaptive{WriteRate: 0}
	mmr := run(async)
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
	var warns []string
	for _, wl := range mtm.PaperWorkloadNames() {
		var ft float64
		for _, sol := range fig4Solutions {
			res, err := mtm.Run(cfg, wl, sol)
			if res, err = note(&warns, res, err); err != nil {
				return err.Error()
			}
			if sol == "first-touch" {
				ft = res.ExecTime.Seconds()
			}
			tb.Row(wl, res.Solution, res.ExecTime, res.ExecTime.Seconds()/ft)
		}
	}
	return withWarnings("Figure 4: overall performance normalized to first-touch NUMA\n"+tb.String(), warns)
}

// Fig5Breakdown reproduces Figure 5: application / profiling / migration
// time for the four solutions that manage all four tiers.
func Fig5Breakdown(o Options) string {
	cfg := o.config()
	sols := []string{"first-touch", "tiered-autonuma", "autotiering", "mtm"}
	tb := stats.NewTable("workload", "solution", "app", "profiling", "migration", "total")
	var warns []string
	for _, wl := range mtm.PaperWorkloadNames() {
		for _, sol := range sols {
			res, err := mtm.Run(cfg, wl, sol)
			if res, err = note(&warns, res, err); err != nil {
				return err.Error()
			}
			tb.Row(wl, res.Solution, res.App, res.Profiling, res.Migration, res.ExecTime)
		}
	}
	return withWarnings("Figure 5: execution time breakdown\n"+tb.String(), warns)
}

// Fig6Heatmap reproduces Figure 6: whether the profilers find GUPS's three
// hot objects — the index array A, the hot-set descriptor B, and the hot
// blocks C — reported as detected-hot coverage of each object.
func Fig6Heatmap(o Options) string {
	cfg := o.config()
	type coverage struct{ a, b, c, excess float64 }
	measure := func(p profiler.Profiler) coverage {
		e := mtm.NewEngine(cfg)
		w := workload.NewGUPS(workload.Config{Scale: cfg.Scale, OpsFactor: cfg.OpsFactor})
		e.SetSolution(&profAdapter{p: p})
		w.Init(e)
		for i := 0; i < 40 && !w.Done(); i++ {
			e.RunInterval(w)
		}
		hot := w.HotFootprintBytes()
		detected := profiler.HotBytes(p.Regions(), hot)
		var cov coverage
		var got [256]float64
		var excess float64
		for _, r := range detected {
			for i := r.Start; i < r.End; i++ {
				switch o := w.Object(r.V, i); o {
				case 'A', 'B', 'C':
					got[o] += float64(r.V.PageSize)
				default:
					excess += float64(r.V.PageSize)
				}
			}
		}
		var total [256]float64
		heap := w.Heap()
		for i := 0; i < heap.NPages; i++ {
			if o := w.Object(heap, i); o == 'A' || o == 'B' || o == 'C' {
				total[o] += float64(heap.PageSize)
			}
		}
		cov.a = got['A'] / total['A']
		cov.b = got['B'] / total['B']
		cov.c = got['C'] / total['C']
		if det := got['A'] + got['B'] + got['C'] + excess; det > 0 {
			cov.excess = excess / det
		}
		return cov
	}
	m := measure(profiler.NewMTM(profiler.DefaultMTMConfig()))
	d := measure(profiler.NewDAMON())
	tb := stats.NewTable("profiler", "A (index)", "B (hotinfo)", "C (hotset)", "false-hot share")
	tb.Row("MTM", m.a, m.b, m.c, m.excess)
	tb.Row("DAMON", d.a, d.b, d.c, d.excess)
	return "Figure 6: detected-hot coverage of GUPS objects A/B/C\n" + tb.String()
}
