package experiments

import (
	"fmt"
	"math"
	"time"

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

// Fig7Ablations reproduces Figure 7: VoltDB under the §9.3 ablations —
// Thermostat and tiered-AutoNUMA profiling grafted onto MTM's migration,
// full MTM, and MTM without adaptive regions / PEBS / adaptive sampling /
// overhead control / async migration.
func Fig7Ablations(o Options) string {
	cfg := o.config()
	sols := []string{
		"mtm-thermostat-prof", "mtm-autonuma-prof", "mtm",
		"mtm-wo-amr", "mtm-wo-pebs", "mtm-wo-aps", "mtm-wo-oc", "mtm-wo-async",
	}
	tb := stats.NewTable("solution", "app", "profiling", "migration", "total")
	var sec section
	for _, sol := range sols {
		if res := sec.named(cfg, "voltdb", sol); res != nil {
			tb.Row(res.Solution, res.App, res.Profiling, res.Migration, res.ExecTime)
		}
	}
	return sec.text("Figure 7: adaptive profiling / migration ablations (VoltDB)", tb)
}

// Fig8OverheadSweep reproduces Figure 8: VoltDB execution time under
// profiling overhead targets of 1/2/3/5/10% with a 5 s profiling interval.
func Fig8OverheadSweep(o Options) string {
	cfg := o.config()
	cfg.Interval = 5 * time.Second / time.Duration(cfg.Scale)
	tb := stats.NewTable("target", "app", "profiling", "migration", "total")
	var sec section
	for _, target := range []float64{0.01, 0.02, 0.03, 0.05, 0.10} {
		c := cfg
		c.OverheadTarget = target
		if res := sec.named(c, "voltdb", "mtm"); res != nil {
			tb.Row(fmt.Sprintf("%.0f%%", target*100), res.App, res.Profiling, res.Migration, res.ExecTime)
		}
	}
	return sec.text("Figure 8: profiling overhead target sweep (VoltDB, 5s interval)", tb)
}

// Fig9Thresholds reproduces Figure 9: VoltDB under (τm, τs) settings for
// num_scans = 3 and 6.
func Fig9Thresholds(o Options) string {
	cfg := o.config()
	type point struct {
		numScans   int
		tauM, tauS float64
	}
	points := []point{
		{3, 0, 3}, {3, 1, 1}, {3, 1, 2}, {3, 2, 0}, {3, 2, 1}, {3, 3, 0},
		{6, 0, 6}, {6, 2, 2}, {6, 2, 4}, {6, 4, 0}, {6, 4, 2}, {6, 6, 0},
	}
	tb := stats.NewTable("num_scans", "tau_m", "tau_s", "app", "profiling", "migration", "total")
	var sec section
	for _, pt := range points {
		pc := profiler.DefaultMTMConfig()
		pc.OverheadTarget = 0.05
		pc.NumScans = pt.numScans
		pc.TauM, pc.TauS = pt.tauM, pt.tauS
		n := known(mtm.NewSolution("mtm", cfg)).(*policy.MTM).MigrateBudget // the resolved budget
		s := policy.NewMTMVariant(fmt.Sprintf("mtm(%v,%v)", pt.tauM, pt.tauS), profiler.NewMTM(pc), migrate.NewAdaptive(), n)
		if _, res := sec.run(cfg, known(mtm.NewWorkload("voltdb", cfg)), s, mtm.MaxIntervals); res != nil {
			tb.Row(pt.numScans, pt.tauM, pt.tauS, res.App, res.Profiling, res.Migration, res.ExecTime)
		}
	}
	return sec.text("Figure 9: (tau_m, tau_s) sensitivity (VoltDB)", tb)
}

// Fig10Alpha reproduces Figure 10: performance across workloads as the
// EMA weight α varies, normalised to the default α = 1/2.
func Fig10Alpha(o Options) string {
	cfg := o.config()
	alphas := []float64{-1, 0.25, 0.5, 0.75, 1} // -1 encodes α=0
	tb := stats.NewTable("workload", "alpha", "exec", "speedup vs α=1/2")
	var sec section
	for _, wl := range mtm.PaperWorkloadNames() {
		var base float64
		var shown []float64
		var execs []time.Duration
		for _, a := range alphas {
			c := cfg
			c.Alpha = a
			res := sec.named(c, wl, "mtm")
			if res == nil {
				continue
			}
			if a == 0.5 {
				base = res.ExecTime.Seconds()
			}
			shown = append(shown, math.Max(a, 0))
			execs = append(execs, res.ExecTime)
		}
		for i, exec := range execs {
			tb.Row(wl, shown[i], exec, base/exec.Seconds())
		}
	}
	return sec.text("Figure 10: EMA weight α sweep (normalized to α=1/2)", tb)
}

// Fig11Mechanisms reproduces Figure 11: migrating a 1 GB (scaled) array
// that is concurrently read (R), read+written (R/W), or written (W), from
// tier 1 to tiers 2, 3, and 4, under move_pages, Nimble, and MTM's
// adaptive mechanism.
func Fig11Mechanisms(o Options) string {
	cfg := o.config()
	arrayBytes := tier.GB / cfg.Scale * 64 // 64 GB/scale keeps page counts meaningful
	if arrayBytes < 8*vm.HugePageSize {
		arrayBytes = 8 * vm.HugePageSize
	}
	type mech struct {
		name string
		mk   func(writeRate float64) migrate.Mechanism
	}
	mechanisms := []mech{
		{"move_pages", func(float64) migrate.Mechanism { return migrate.MovePages{} }},
		{"nimble", func(float64) migrate.Mechanism { return migrate.Nimble{} }},
		{"mtm", func(wr float64) migrate.Mechanism { return &migrate.Adaptive{WriteRate: wr} }},
	}
	patterns := []struct {
		name      string
		writeRate float64
	}{
		{"R", 0},
		{"R/W", 2000},
		{"W", 1e9},
	}
	tb := stats.NewTable("dst tier", "pattern", "mechanism", "critical", "background", "switched")
	view := cfg.Topology().View(0)
	for dstRank := 1; dstRank < len(view); dstRank++ {
		for _, pat := range patterns {
			for _, m := range mechanisms {
				rep := migrateFresh(cfg, arrayBytes, m.mk(pat.writeRate), view[dstRank])
				tb.Row(fmt.Sprintf("tier%d", dstRank+1), pat.name, m.name, rep.Critical, rep.Background, rep.SwitchedToSync)
			}
		}
	}
	return "Figure 11: migration mechanism comparison (R, R/W, W)\n" + tb.String()
}

// Fig12TwoTier reproduces Figure 12: GUPS throughput on the two-tier
// DRAM+PM machine under MTM and HeMem at 16 and 24 threads, sweeping the
// working-set : fast-memory ratio across 1.0.
func Fig12TwoTier(o Options) string {
	cfg := o.config()
	cfg.TwoTier = true
	dram := 96 * tier.GB / cfg.Scale
	ratios := []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}
	tb := stats.NewTable("ws/fast ratio", "threads", "solution", "exec", "updates/sec (M)")
	var sec section
	for _, threads := range []int{16, 24} {
		for _, ratio := range ratios {
			table := int64(float64(dram) * ratio)
			ops := int64(float64(table) / 64 * cfg.OpsFactor * 4)
			for _, sol := range []string{"hemem", "mtm"} {
				c := cfg
				c.Threads = threads
				if _, res := sec.run(c, workload.NewGUPSSized(table, ops), known(mtm.NewSolution(sol, c)), mtm.MaxIntervals); res != nil {
					gups := float64(ops) / res.ExecTime.Seconds() / 1e6
					tb.Row(fmt.Sprintf("%.2f", ratio), threads, res.Solution, res.ExecTime, gups)
				}
			}
		}
	}
	return sec.text("Figure 12: two-tier GUPS vs HeMem (throughput, higher is better)", tb)
}

// Tab3HotPages reproduces Table 3: hot volume identified and fast-tier
// accesses under vanilla tiered-AutoNUMA, patched tiered-AutoNUMA, and MTM.
func Tab3HotPages(o Options) string {
	cfg := o.config()
	tb := stats.NewTable("workload", "solution", "hot identified (MB/interval)", "fast-tier accesses (M)")
	var sec section
	for _, wl := range mtm.PaperWorkloadNames() {
		for _, sol := range []string{"vanilla-tiered-autonuma", "tiered-autonuma", "mtm"} {
			s := known(mtm.NewSolution(sol, cfg))
			e, res := sec.run(cfg, known(mtm.NewWorkload(wl, cfg)), s, mtm.MaxIntervals)
			if res == nil {
				continue
			}
			// Average volume classified hot per interval, the Table 3
			// metric: AutoNUMA accumulates its classifications; MTM's
			// identified set is what the histogram holds hot at the end
			// plus its promotion stream.
			var hot int64
			switch ps := s.(type) {
			case *policy.TieredAutoNUMA:
				hot = ps.HotBytesIdentified / int64(res.Intervals)
			case *policy.MTM:
				hot = hotResident(e, ps) + res.PromotedBytes/int64(res.Intervals)
			}
			var fast int64
			for n, spec := range e.Sys.Topo.Nodes {
				if spec.Kind == tier.DRAM {
					fast += res.NodeAccesses[n]
				}
			}
			tb.Row(wl, res.Solution, hot>>20, float64(fast)/1e6)
		}
	}
	return sec.text("Table 3: hot volume identified and fast-tier accesses", tb)
}

// hotResident sums the bytes already resident in DRAM that the final
// histogram labels hot — the part of the identified hot set that needed
// no promotion.
func hotResident(e *sim.Engine, sol *policy.MTM) int64 {
	var dram int64
	for n, spec := range e.Sys.Topo.Nodes {
		if spec.Kind == tier.DRAM {
			dram += e.Sys.Used(tier.NodeID(n))
		}
	}
	var hot int64
	for _, r := range profiler.HotBytes(sol.Prof.Regions(), dram) {
		if n := profiler.RegionNode(r); n != tier.Invalid && e.Sys.Topo.Nodes[n].Kind == tier.DRAM {
			hot += r.Bytes()
		}
	}
	return hot
}

// Tab4InitialPlacement reproduces Table 4: GUPS runtime under MTM with
// slow-tier-first vs first-touch initial placement, across update counts.
func Tab4InitialPlacement(o Options) string {
	cfg := o.config()
	tb := stats.NewTable("giga-updates (scaled)", "slow tier first", "first-touch")
	var sec section
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		var execs []time.Duration
		for _, placement := range []policy.Placement{policy.PlaceSlowLocalFirst, policy.PlaceFastFirst} {
			s := known(mtm.NewSolution("mtm", cfg))
			s.(*policy.MTM).Placement = placement
			c := cfg
			c.OpsFactor = cfg.OpsFactor * frac
			if _, res := sec.run(c, known(mtm.NewWorkload("gups", c)), s, mtm.MaxIntervals); res != nil {
				execs = append(execs, res.ExecTime)
			}
		}
		if len(execs) == 2 {
			tb.Row(fmt.Sprintf("%.1f", frac), execs[0], execs[1])
		}
	}
	return sec.text("Table 4: GUPS with different initial page placements (MTM)", tb)
}

// Tab5MemoryOverhead reproduces Table 5: MTM's metadata footprint per
// workload against the workload's memory.
func Tab5MemoryOverhead(o Options) string {
	cfg := o.config()
	tb := stats.NewTable("workload", "workload memory (MB)", "MTM overhead (KB)", "ratio")
	var sec section
	for _, wl := range mtm.PaperWorkloadNames() {
		s := known(mtm.NewSolution("mtm", cfg))
		e, res := sec.run(cfg, known(mtm.NewWorkload(wl, cfg)), s, 30)
		if res == nil {
			continue
		}
		prof := s.(*policy.MTM).Prof.(*profiler.MTM)
		over := prof.MemoryOverheadBytes()
		mem := e.AS.TotalBytes()
		tb.Row(wl, mem>>20, over>>10, fmt.Sprintf("%.5f%%", float64(over)/float64(mem)*100))
	}
	return sec.text("Table 5: MTM memory-management overhead", tb)
}

// Tab6TierAccesses reproduces Table 6: per-tier application access counts
// for VoltDB under tiered-AutoNUMA, AutoTiering, and MTM, in the home
// socket's tier order.
func Tab6TierAccesses(o Options) string {
	cfg := o.config()
	tb := stats.NewTable("solution", "tier1 (M)", "tier2 (M)", "tier3 (M)", "tier4 (M)")
	var sec section
	view := cfg.Topology().View(0)
	for _, sol := range []string{"tiered-autonuma", "autotiering", "mtm"} {
		res := sec.named(cfg, "voltdb", sol)
		if res == nil {
			continue
		}
		row := make([]interface{}, 0, 5)
		row = append(row, res.Solution)
		for _, n := range view {
			row = append(row, float64(res.NodeAccesses[n])/1e6)
		}
		tb.Row(row...)
	}
	return sec.text("Table 6: memory accesses per tier (VoltDB)", tb)
}

// Tab7RegionStats reproduces Table 7: per-interval region merge/split
// statistics under MTM.
func Tab7RegionStats(o Options) string {
	cfg := o.config()
	tb := stats.NewTable("workload", "intervals", "avg merged/PI", "avg split/PI", "avg regions/PI")
	var sec section
	for _, wl := range mtm.PaperWorkloadNames() {
		s := known(mtm.NewSolution("mtm", cfg))
		prof := s.(*policy.MTM).Prof.(*profiler.MTM)
		var regionSum int64
		count := observed{s, func(*sim.Engine) { regionSum += int64(prof.Set().Len()) }}
		_, res := sec.run(cfg, known(mtm.NewWorkload(wl, cfg)), count, mtm.MaxIntervals)
		if res == nil {
			continue
		}
		i := res.Intervals
		set := prof.Set()
		tb.Row(wl, i,
			float64(set.Merged)/float64(i),
			float64(set.Split)/float64(i),
			regionSum/int64(i))
	}
	return sec.text("Table 7: statistics of forming regions (MTM)", tb)
}

// CXLGenerality demonstrates the §8 claim beyond Optane: the same MTM
// design on a single-socket DRAM + direct-CXL + switched-CXL machine,
// against first-touch and tiered-AutoNUMA.
func CXLGenerality(o Options) string {
	cfg := o.config()
	cfg.CXL = true
	tb := stats.NewTable("workload", "solution", "exec", "normalized", "DRAM share")
	var sec section
	for _, wl := range []string{"gups", "voltdb"} {
		var base float64
		for _, sol := range []string{"first-touch", "tiered-autonuma", "mtm"} {
			res := sec.named(cfg, wl, sol)
			if res == nil {
				continue
			}
			if sol == "first-touch" {
				base = res.ExecTime.Seconds()
			}
			share := float64(res.NodeAccesses[0]) / float64(res.TotalAccesses)
			tb.Row(wl, res.Solution, res.ExecTime, res.ExecTime.Seconds()/base, share)
		}
	}
	return sec.text("CXL generality (§8): three-tier DRAM+CXL machine", tb)
}
