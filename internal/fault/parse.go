package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Parse resolves a fault-scenario spec into a Config. The grammar is
//
//	spec     = "" | "none" | name | name "," overrides | overrides
//	overrides = key "=" value { "," key "=" value }
//
// where name is a named scenario (see Scenarios) used as the base config
// and each kebab-case key overrides one Config field, e.g.
//
//	dimm-death,mem-error-burst=8
//	tier-fail-prob=1,tier-fail-node=0
//
// "" and "none" parse to the zero Config (no injection). Probabilities,
// duties and fractions must lie in [0, 1]; link-degrade-factor must be 0
// or finite ≥ 1. Unknown names, unknown keys and malformed values are errors.
func Parse(spec string) (Config, error) {
	var cfg Config
	cfg.MemErrorNode = LastNode
	cfg.TierFailNode = LastNode
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return Config{}, nil
	}
	parts := strings.Split(spec, ",")
	rest := parts
	if !strings.Contains(parts[0], "=") {
		base, ok := scenarios[strings.TrimSpace(parts[0])]
		if !ok {
			return Config{}, fmt.Errorf("fault: unknown scenario %q (have %v)", parts[0], Scenarios())
		}
		cfg = base
		rest = parts[1:]
	}
	for _, kv := range rest {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: malformed override %q (want key=value)", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := setField(&cfg, key, val); err != nil {
			return Config{}, err
		}
	}
	if err := validate(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// setField applies one kebab-case key=value override to cfg.
func setField(cfg *Config, key, val string) error {
	f := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("fault: bad value %q for %s: %v", val, key, err)
		}
		*dst = v
		return nil
	}
	i := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("fault: bad value %q for %s: %v", val, key, err)
		}
		*dst = v
		return nil
	}
	switch key {
	case "page-busy-prob":
		return f(&cfg.PageBusyProb)
	case "page-busy-duty":
		return f(&cfg.PageBusyDuty)
	case "busy-penalty":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("fault: bad value %q for %s: %v", val, key, err)
		}
		cfg.BusyPenalty = d
		return nil
	case "pressure-prob":
		return f(&cfg.PressureProb)
	case "sample-drop-duty":
		return f(&cfg.SampleDropDuty)
	case "sample-drop-frac":
		return f(&cfg.SampleDropFrac)
	case "link-degrade-duty":
		return f(&cfg.LinkDegradeDuty)
	case "link-degrade-factor":
		return f(&cfg.LinkDegradeFactor)
	case "capacity-tax":
		return f(&cfg.CapacityTaxFrac)
	case "mem-error-prob":
		return f(&cfg.MemErrorProb)
	case "mem-error-burst":
		return i(&cfg.MemErrorBurst)
	case "mem-error-node":
		return i(&cfg.MemErrorNode)
	case "tier-fail-prob":
		return f(&cfg.TierFailProb)
	case "tier-fail-duty":
		return f(&cfg.TierFailDuty)
	case "tier-fail-node":
		return i(&cfg.TierFailNode)
	}
	return fmt.Errorf("fault: unknown override key %q", key)
}

// validate bounds-checks a parsed config in a fixed key order, so a spec
// with several bad values always names the same one. NaN fails every bound.
func validate(cfg Config) error {
	for _, p := range []struct {
		key string
		v   float64
	}{
		{"page-busy-prob", cfg.PageBusyProb}, {"page-busy-duty", cfg.PageBusyDuty},
		{"pressure-prob", cfg.PressureProb},
		{"sample-drop-duty", cfg.SampleDropDuty}, {"sample-drop-frac", cfg.SampleDropFrac},
		{"link-degrade-duty", cfg.LinkDegradeDuty},
		{"capacity-tax", cfg.CapacityTaxFrac},
		{"mem-error-prob", cfg.MemErrorProb},
		{"tier-fail-prob", cfg.TierFailProb}, {"tier-fail-duty", cfg.TierFailDuty},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("fault: %s %v outside [0, 1]", p.key, p.v)
		}
	}
	if f := cfg.LinkDegradeFactor; f != 0 && !(f >= 1 && f <= math.MaxFloat64) {
		return fmt.Errorf("fault: link-degrade-factor %v must be 0 or finite and >= 1", f)
	}
	if cfg.MemErrorBurst < 0 {
		return fmt.Errorf("fault: mem-error-burst %d negative", cfg.MemErrorBurst)
	}
	if cfg.BusyPenalty < 0 {
		return fmt.Errorf("fault: busy-penalty %v negative", cfg.BusyPenalty)
	}
	return nil
}
