package fault

import (
	"math"
	"strings"
	"testing"
	"time"

	"mtm/internal/tier"
)

func TestParseEmptyAndNone(t *testing.T) {
	for _, spec := range []string{"", "none", "  none  "} {
		cfg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if cfg != (Config{}) {
			t.Fatalf("Parse(%q) = %+v, want zero config", spec, cfg)
		}
		if cfg.UsesHealth() {
			t.Fatalf("zero config claims UsesHealth")
		}
	}
}

func TestParseNamedScenario(t *testing.T) {
	cfg, err := Parse("dimm-death")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.MemErrorProb != 1.0 || cfg.MemErrorBurst != 4 || cfg.MemErrorNode != 2 {
		t.Fatalf("dimm-death mem-error fields wrong: %+v", cfg)
	}
	if cfg.TierFailProb != 0.85 || cfg.TierFailNode != 2 {
		t.Fatalf("dimm-death tier-fail fields wrong: %+v", cfg)
	}
	if !cfg.UsesHealth() {
		t.Fatal("dimm-death must enable the health subsystem")
	}
}

func TestParseNamedScenarioWithOverrides(t *testing.T) {
	cfg, err := Parse("cxl-flaky, mem-error-burst=3 ,tier-fail-duty=0.25")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	base := scenarios["cxl-flaky"]
	if cfg.MemErrorBurst != 3 || cfg.TierFailDuty != 0.25 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.MemErrorProb != base.MemErrorProb || cfg.TierFailProb != base.TierFailProb {
		t.Fatalf("base fields clobbered: %+v", cfg)
	}
}

func TestParseBareOverrides(t *testing.T) {
	cfg, err := Parse("tier-fail-prob=1,tier-fail-node=0,busy-penalty=5us")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if cfg.TierFailProb != 1 || cfg.TierFailNode != 0 || cfg.BusyPenalty != 5*time.Microsecond {
		t.Fatalf("cfg = %+v", cfg)
	}
	// With no named base, unset node targets default to the last node.
	if cfg.MemErrorNode != LastNode {
		t.Fatalf("MemErrorNode = %d, want LastNode", cfg.MemErrorNode)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus-name",
		"dimm-death,mem-error-prob=2",
		"tier-fail-prob=-0.5",
		"mem-error-burst=-1",
		"mem-error-burst=x",
		"busy-penalty=-3us",
		"busy-penalty=banana",
		"dimm-death,unknown-key=1",
		"dimm-death,mem-error-prob",
		"link-degrade-factor=0.5",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
		if Valid(spec) {
			t.Errorf("Valid(%q) true", spec)
		}
	}
}

// TestParseRejectsNonFinite pins the message of each spec: NaN in any
// bounded key and an infinite link-degrade-factor are rejected, and a spec
// with several bad values names the first in validate's fixed key order,
// on every parse.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"page-busy-prob=NaN", "fault: page-busy-prob NaN outside [0, 1]"},
		{"capacity-tax=NaN", "fault: capacity-tax NaN outside [0, 1]"},
		{"tier-fail-duty=nan", "fault: tier-fail-duty NaN outside [0, 1]"},
		{"sample-drop-frac=+Inf", "fault: sample-drop-frac +Inf outside [0, 1]"},
		{"link-degrade-factor=NaN", "fault: link-degrade-factor NaN must be 0 or finite and >= 1"},
		{"link-degrade-factor=Inf", "fault: link-degrade-factor +Inf must be 0 or finite and >= 1"},
		{"link-degrade-factor=-Inf", "fault: link-degrade-factor -Inf must be 0 or finite and >= 1"},
		{"page-busy-prob=2,pressure-prob=3,capacity-tax=-1", "fault: page-busy-prob 2 outside [0, 1]"},
		{"capacity-tax=-1,pressure-prob=3", "fault: pressure-prob 3 outside [0, 1]"},
	} {
		for i := 0; i < 20; i++ {
			_, err := Parse(c.spec)
			if err == nil {
				t.Fatalf("Parse(%q) accepted", c.spec)
			}
			if err.Error() != c.want {
				t.Fatalf("Parse(%q) = %q, want %q", c.spec, err, c.want)
			}
		}
	}
}

func TestMemErrorTargeting(t *testing.T) {
	in := NewInjector(Config{MemErrorProb: 1, MemErrorBurst: 4, MemErrorNode: 2}, 1)
	in.Attach(2, 4)
	in.BeginInterval(0)
	if got := in.MemErrorPages(2); got != 4 {
		t.Fatalf("MemErrorPages(2) = %d, want 4", got)
	}
	for _, n := range []int{0, 1, 3} {
		if got := in.MemErrorPages(tier.NodeID(n)); got != 0 {
			t.Fatalf("MemErrorPages(%d) = %d, want 0 (wrong node)", n, got)
		}
	}
	if in.MemErrorsInjected != 4 {
		t.Fatalf("MemErrorsInjected = %d", in.MemErrorsInjected)
	}
}

func TestMemErrorNodeClamped(t *testing.T) {
	// LastNode and out-of-range targets resolve to the machine's last node.
	for _, target := range []int{LastNode, 99} {
		in := NewInjector(Config{MemErrorProb: 1, MemErrorBurst: 1, MemErrorNode: target}, 1)
		in.Attach(1, 3)
		in.BeginInterval(0)
		if got := in.MemErrorPages(2); got != 1 {
			t.Fatalf("target %d: MemErrorPages(last) = %d, want 1", target, got)
		}
	}
}

func TestTierFailFailsCopiesIntoTarget(t *testing.T) {
	in := NewInjector(Config{TierFailProb: 1, TierFailNode: 1}, 1)
	in.Attach(1, 3)
	in.BeginInterval(0)
	busy, pen := in.PageBusy(nil, 0, 1)
	if !busy || pen != DefaultBusyPenalty {
		t.Fatalf("copy into flaky node: busy=%v penalty=%v", busy, pen)
	}
	if busy, _ := in.PageBusy(nil, 0, 0); busy {
		t.Fatal("copy into a healthy node failed")
	}
	if in.TierFailInjected != 1 || in.BusyInjected != 0 {
		t.Fatalf("counters: tier-fail=%d busy=%d", in.TierFailInjected, in.BusyInjected)
	}
	found := false
	for _, c := range in.ActiveClasses() {
		if c == "tier-flaky" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ActiveClasses() = %v, want tier-flaky listed", in.ActiveClasses())
	}
}

func TestHealthScenariosListed(t *testing.T) {
	names := strings.Join(Scenarios(), " ")
	for _, want := range []string{"dimm-death", "cxl-flaky"} {
		if !strings.Contains(names, want) {
			t.Fatalf("Scenarios() = %v, missing %s", Scenarios(), want)
		}
	}
}

// FuzzParse asserts the spec parser never panics and that accepted specs
// produce configs that pass validation (Parse and Valid agree) and hold
// only finite floats.
func FuzzParse(f *testing.F) {
	seeds := append([]string{
		"", "none", "dimm-death", "cxl-flaky",
		"dimm-death,mem-error-burst=8",
		"tier-fail-prob=1,tier-fail-node=0",
		"page-busy-prob=0.1,busy-penalty=3us",
		"mem-error-prob=2", "x=y", ",,,", "dimm-death,",
		"page-busy-prob=NaN", "link-degrade-factor=Inf",
	}, Scenarios()...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := Parse(spec)
		if (err == nil) != Valid(spec) {
			t.Fatalf("Parse and Valid disagree on %q", spec)
		}
		if err != nil {
			return
		}
		if err := validate(cfg); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid config: %v", spec, err)
		}
		for _, v := range []float64{cfg.PageBusyProb, cfg.PageBusyDuty, cfg.PressureProb,
			cfg.SampleDropDuty, cfg.SampleDropFrac, cfg.LinkDegradeDuty, cfg.LinkDegradeFactor,
			cfg.CapacityTaxFrac, cfg.MemErrorProb, cfg.TierFailProb, cfg.TierFailDuty} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) accepted a non-finite value: %+v", spec, cfg)
			}
		}
		inj, err := NewScenario(spec, 1)
		if err != nil {
			t.Fatalf("NewScenario rejected parseable spec %q: %v", spec, err)
		}
		if inj != nil {
			inj.Attach(2, 4)
			inj.BeginInterval(0)
		}
	})
}
