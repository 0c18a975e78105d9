package mtm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mtm/internal/sim"
	"mtm/internal/span"
)

// TestTracingDoesNotPerturb: the span trace records a run without
// changing it. Every solution runs gups and pingpong at the golden base
// options (-scale 256 -ops 0.1, seed 7), plain and under a 90%-failing
// CXL tier with learned admission, lanes and the fidelity oracle — the
// set where aborts, breaker trips, deferrals and outcome lineage all
// emit spans. The traced run's Result JSON, with Spans cleared, must
// equal the untraced run's byte for byte. -short and -race run only mtm
// and nomad.
func TestTracingDoesNotPerturb(t *testing.T) {
	sets := []struct {
		name string
		tune func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"cxl-flaky+learn+lanes+fidelity", func(c *Config) {
			c.Faults = "cxl-flaky,tier-fail-prob=0.9"
			c.AdmissionLearn = true
			c.AdmissionLanes = "default"
			c.Fidelity = true
		}},
	}
	sols := SolutionNames()
	if testing.Short() || sim.RaceEnabled {
		sols = []string{"mtm", "nomad"}
	}
	for _, set := range sets {
		for _, wl := range []string{"gups", "pingpong"} {
			for _, sol := range sols {
				t.Run(set.name+"/"+wl+"/"+sol, func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig()
					cfg.Scale = 256
					cfg.OpsFactor = 0.1
					cfg.Seed = 7
					set.tune(&cfg)
					plain := resultJSON(t, cfg, wl, sol, false)
					cfg.Trace = &span.Config{}
					traced := resultJSON(t, cfg, wl, sol, true)
					if !bytes.Equal(traced, plain) {
						i := 0
						for i < len(traced) && i < len(plain) && traced[i] == plain[i] {
							i++
						}
						from := max(0, i-80)
						t.Errorf("tracing changed the Result at byte %d:\n  traced …%s\nuntraced …%s",
							i, traced[from:min(len(traced), i+80)], plain[from:min(len(plain), i+80)])
					}
				})
			}
		}
	}
}

// resultJSON runs cfg and returns its Result JSON with Spans cleared,
// followed by the run's error, if any. traced says whether the run must
// carry a span export.
func resultJSON(t *testing.T, cfg Config, wl, sol string, traced bool) []byte {
	t.Helper()
	res, err := Run(cfg, wl, sol)
	if res == nil {
		t.Fatalf("run: %v", err)
	}
	if (res.Spans != nil) != traced || traced && len(res.Spans.Spans) == 0 {
		t.Fatalf("span export %v with tracing %v", res.Spans != nil, traced)
	}
	res.Spans = nil
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Appendf(b, "\nerror: %v", err)
}
