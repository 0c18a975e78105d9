package mtm

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mtm/internal/fault"
	"mtm/internal/policy"
	"mtm/internal/profiler"
	"mtm/internal/sim"
	"mtm/internal/tier"
)

func quickCfg() Config {
	c := DefaultConfig()
	c.Scale = 512
	c.OpsFactor = 0.05
	return c
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c = c.withDefaults()
	if c.Scale != DefaultScale || c.Threads != 8 || c.OpsFactor != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Interval != 10*time.Second/DefaultScale {
		t.Fatalf("interval = %v", c.Interval)
	}
	if c.MigrateBudget != 800*tier.MB/DefaultScale {
		t.Fatalf("budget = %d", c.MigrateBudget)
	}
	if c.OverheadTarget != 0.05 || c.alpha() != 0.5 {
		t.Fatalf("target/alpha = %v/%v", c.OverheadTarget, c.alpha())
	}
}

// TestConfigAlphaZeroEncoding: a negative Alpha reaches the MTM profiler
// as 0 however many entry points resolve the config on the way (Run
// resolves it, then NewSolution and the profiler constructor do again).
func TestConfigAlphaZeroEncoding(t *testing.T) {
	c := Config{Alpha: -1}.withDefaults().withDefaults()
	if got := c.alpha(); got != 0 {
		t.Fatalf("negative Alpha resolved to %v, want 0", got)
	}
	for _, name := range []string{"mtm", "nomad"} {
		s, err := NewSolution(name, c)
		if err != nil {
			t.Fatal(err)
		}
		var p profiler.Profiler
		switch s := s.(type) {
		case *policy.MTM:
			p = s.Prof
		case *policy.Nomad:
			p = s.Prof
		}
		if got := p.(*profiler.MTM).Cfg.Alpha; got != 0 {
			t.Errorf("%s: profiler runs at α = %v, want 0", name, got)
		}
	}
}

func TestTopologySelection(t *testing.T) {
	c := quickCfg()
	if got := len(c.Topology().Nodes); got != 4 {
		t.Fatalf("four-tier topology has %d nodes", got)
	}
	c.TwoTier = true
	if got := len(c.Topology().Nodes); got != 2 {
		t.Fatalf("two-tier topology has %d nodes", got)
	}
}

// TestEverySolutionConstructs builds every solution by name. Each must be
// a sim.RunPlacer, so a workload's set-up faults its first touches a run
// at a time instead of one page at a time, and must keep its contract:
// on a fresh engine, Place returns PlaceRun's node for every page index
// and socket.
func TestEverySolutionConstructs(t *testing.T) {
	for _, name := range SolutionNames() {
		s, err := NewSolution(name, quickCfg())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%s: empty display name", name)
		}
		rp, ok := s.(sim.RunPlacer)
		if !ok {
			t.Errorf("%s: %T is not a sim.RunPlacer", name, s)
			continue
		}
		e := NewEngine(quickCfg())
		v := e.AS.Alloc("v", 64*tier.MB)
		for socket := 0; socket < 2; socket++ {
			want := rp.PlaceRun(e, v, socket)
			for _, idx := range []int{0, 1, v.NPages / 2, v.NPages - 1} {
				if got := s.Place(e, v, idx, socket); got != want {
					t.Errorf("%s: Place(page %d, socket %d) = %d, PlaceRun = %d", name, idx, socket, got, want)
				}
			}
		}
	}
	if _, err := NewSolution("nope", quickCfg()); err == nil {
		t.Error("unknown solution accepted")
	}
}

func TestEveryWorkloadConstructs(t *testing.T) {
	for _, name := range WorkloadNames() {
		w, err := NewWorkload(name, quickCfg())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.Name() == "" {
			t.Errorf("%s: empty display name", name)
		}
	}
	if _, err := NewWorkload("nope", quickCfg()); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunEveryPairQuick(t *testing.T) {
	// Every (workload, solution) pair must run without panicking and
	// produce nonzero accesses. This is the cross-product integration
	// test; short runs keep it fast.
	if testing.Short() {
		t.Skip("cross-product is slow")
	}
	cfg := quickCfg()
	for _, wl := range WorkloadNames() {
		for _, sol := range []string{"first-touch", "hmc", "vanilla-tiered-autonuma", "tiered-autonuma", "autotiering", "hemem", "mtm", "mtm-wo-async"} {
			res, err := Run(cfg, wl, sol)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, sol, err)
			}
			if res.TotalAccesses == 0 {
				t.Errorf("%s/%s: no accesses", wl, sol)
			}
			if res.ExecTime <= 0 {
				t.Errorf("%s/%s: exec time %v", wl, sol, res.ExecTime)
			}
		}
	}
}

// TestSparkOddScale runs Spark at a scale whose footprint is not a
// multiple of its 204,800-byte scan chunk, so its input and output scans
// run over the end of their VMAs and continue from the start.
func TestSparkOddScale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 1000
	cfg.Audit = true
	res, err := Run(cfg, "spark", "mtm")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("spark at scale 1000 did not complete")
	}
}

func TestTwoTierRun(t *testing.T) {
	cfg := quickCfg()
	cfg.TwoTier = true
	for _, sol := range []string{"mtm", "hemem"} {
		res, err := Run(cfg, "gups", sol)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.NodeAccesses) != 2 {
			t.Fatalf("%s: node count %d", sol, len(res.NodeAccesses))
		}
	}
}

func TestOverheadTargetRespected(t *testing.T) {
	cfg := quickCfg()
	cfg.OpsFactor = 0.2
	for _, target := range []float64{0.01, 0.05, 0.10} {
		c := cfg
		c.OverheadTarget = target
		res, err := Run(c, "gups", "mtm")
		if err != nil {
			t.Fatal(err)
		}
		frac := res.Profiling.Seconds() / res.ExecTime.Seconds()
		if frac > target*1.5+0.005 {
			t.Errorf("target %.0f%%: profiling share %.3f", target*100, frac)
		}
	}
}

// TestCXLGenerality exercises the §8 claim: MTM's design is not tied to
// the Optane machine — on a DRAM + direct-CXL + switched-CXL box it still
// runs, promotes, and beats the no-migration baseline's hot placement.
func TestCXLGenerality(t *testing.T) {
	cfg := quickCfg()
	cfg.CXL = true
	cfg.OpsFactor = 0.2
	res, err := Run(cfg, "gups", "mtm")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeAccesses) != 3 {
		t.Fatalf("node count = %d, want 3", len(res.NodeAccesses))
	}
	if res.PromotedBytes == 0 {
		t.Fatal("MTM promoted nothing on the CXL machine")
	}
	ft, err := Run(cfg, "gups", "first-touch")
	if err != nil {
		t.Fatal(err)
	}
	// DRAM share of application accesses must not regress vs first-touch.
	mtmFast := float64(res.NodeAccesses[0]) / float64(res.TotalAccesses)
	ftFast := float64(ft.NodeAccesses[0]) / float64(ft.TotalAccesses)
	if mtmFast < ftFast*0.95 {
		t.Fatalf("MTM DRAM share %.3f well below first-touch %.3f", mtmFast, ftFast)
	}
}

// TestMemoryOverheadTiny checks Table 5's claim at simulation scale: the
// metadata MTM keeps is a vanishing fraction of the managed memory. (The
// paper reports <0.01% at terabyte scale; scaled down, region count per
// byte is the same, so the ratio holds within an order of magnitude.)
func TestMemoryOverheadTiny(t *testing.T) {
	cfg := quickCfg()
	cfg.OpsFactor = 0.1
	s, err := NewSolution("mtm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload("gups", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg)
	sim.Run(e, w, s, 20)
	prof := s.(*policy.MTM).Prof.(*profiler.MTM)
	over := prof.MemoryOverheadBytes()
	mem := e.AS.TotalBytes()
	if ratio := float64(over) / float64(mem); ratio > 0.001 {
		t.Fatalf("metadata ratio %.5f, want < 0.1%%", ratio)
	}
}

func TestFaultScenarioEBusyStormCompletes(t *testing.T) {
	// The acceptance bar for the failure model: a 10% per-page EBUSY storm
	// on gups under mtm must finish the workload — slower, never stuck.
	cfg := quickCfg()
	cfg.OpsFactor = 0.2
	cfg.Faults = "ebusy-storm"
	res, err := Run(cfg, "gups", "mtm")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run under ebusy-storm did not complete")
	}
	if res.MigrationRetries == 0 {
		t.Fatal("ebusy-storm injected no retries")
	}
}

func TestFaultsDisabledBitIdentical(t *testing.T) {
	// Determinism contract: "" and "none" are the same scenario, and an
	// attached injector with a zero config must not perturb the engine's
	// random stream or accounting in any way.
	cfg := quickCfg()
	cfg.OpsFactor = 0.2
	base, err := Run(cfg, "gups", "mtm")
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Faults = "none"
	named, err := Run(cfg2, "gups", "mtm")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, named) {
		t.Fatal(`results differ between Faults "" and "none"`)
	}
	w, err := NewWorkload("gups", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolution("mtm", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cfg)
	e.SetFaultPlane(fault.NewInjector(fault.Config{}, 99))
	attached, err := sim.Run(e, w, s, MaxIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, attached) {
		t.Fatal("zero-config injector perturbed the run")
	}
}

func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	cfg := quickCfg()
	cfg.Faults = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown fault scenario passed Validate")
	}
	if _, err := Run(cfg, "gups", "mtm"); err == nil {
		t.Fatal("Run accepted unknown fault scenario")
	}
	ext := quickCfg()
	ext.Scale = 1 << 40 // Interval = 10s/Scale truncates to 0ns
	if err := ext.Validate(); err == nil {
		t.Fatal("extreme Scale passed Validate")
	}
	if _, err := Run(ext, "gups", "mtm"); err == nil {
		t.Fatal("Run accepted a zero-interval config")
	}
	// Explicit overrides rescue an extreme scale.
	ext.Interval = time.Millisecond
	ext.MigrateBudget = tier.MB
	if err := ext.Validate(); err != nil {
		t.Fatalf("explicit Interval/MigrateBudget still rejected: %v", err)
	}
	// Out-of-range scales and run lengths are rejected, not replaced by
	// the defaults that zero selects.
	for _, bad := range []struct {
		scale int64
		ops   float64
	}{
		{-5, 0.05},
		{512, -0.5},
		{512, math.NaN()},
		{512, math.Inf(1)},
		{512, math.Inf(-1)},
	} {
		c := quickCfg()
		c.Scale, c.OpsFactor = bad.scale, bad.ops
		if err := c.Validate(); err == nil {
			t.Errorf("Scale=%d OpsFactor=%v passed Validate", c.Scale, c.OpsFactor)
		}
		if _, err := Run(c, "gups", "mtm"); err == nil {
			t.Errorf("Run accepted Scale=%d OpsFactor=%v", c.Scale, c.OpsFactor)
		}
	}
	zero := quickCfg()
	zero.Scale, zero.OpsFactor = 0, 0
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero Scale/OpsFactor (the defaults) rejected: %v", err)
	}
}
