package mtm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mtm/internal/sim"
	"mtm/internal/span"
)

// TestTracingDoesNotPerturb: the observability sinks record a run
// without changing it. Every solution runs every workload at the golden
// base options (-scale 256 -ops 0.1, seed 7), plain and under a
// 90%-failing CXL tier with learned admission, lanes and the fidelity
// oracle — the set where aborts, breaker trips, deferrals and outcome
// lineage all emit spans. The run is repeated with the span trace,
// metrics and the fidelity oracle all on; its Result JSON, with Spans,
// Metrics and Fidelity cleared in both, must equal the first run's byte
// for byte. Cassandra, VoltDB, BFS and SSSP take seconds a run under
// some solutions, so they run only under mtm (PEBS and scans), nomad
// (shadow frames) and hemem (PEBS alone). -short and -race run only gups
// and pingpong under mtm and nomad.
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
	all, few := SolutionNames(), []string{"mtm", "nomad", "hemem"}
	sols := map[string][]string{"gups": all, "pingpong": all, "spark": all,
		"cassandra": few, "voltdb": few, "bfs": few, "sssp": few}
	if testing.Short() || sim.RaceEnabled {
		sols = map[string][]string{"gups": {"mtm", "nomad"}, "pingpong": {"mtm", "nomad"}}
	}
	for _, set := range sets {
		for _, wl := range WorkloadNames() {
			for _, sol := range sols[wl] {
				t.Run(set.name+"/"+wl+"/"+sol, func(t *testing.T) {
					t.Parallel()
					cfg := DefaultConfig()
					cfg.Scale = 256
					cfg.OpsFactor = 0.1
					cfg.Seed = 7
					set.tune(&cfg)
					plain := resultJSON(t, cfg, wl, sol, false)
					cfg.Trace = &span.Config{}
					cfg.Metrics = true
					cfg.Fidelity = true
					traced := resultJSON(t, cfg, wl, sol, true)
					if !bytes.Equal(traced, plain) {
						i := 0
						for i < len(traced) && i < len(plain) && traced[i] == plain[i] {
							i++
						}
						from := max(0, i-80)
						t.Errorf("the sinks changed the Result at byte %d:\n  traced …%s\nuntraced …%s",
							i, traced[from:min(len(traced), i+80)], plain[from:min(len(plain), i+80)])
					}
				})
			}
		}
	}
}

// resultJSON runs cfg and returns its Result JSON with Spans, Metrics and
// Fidelity cleared, followed by the run's error, if any. traced says
// whether the run must carry a span export.
func resultJSON(t *testing.T, cfg Config, wl, sol string, traced bool) []byte {
	t.Helper()
	res, err := Run(cfg, wl, sol)
	if res == nil {
		t.Fatalf("run: %v", err)
	}
	if (res.Spans != nil) != traced || traced && len(res.Spans.Spans) == 0 {
		t.Fatalf("span export %v with tracing %v", res.Spans != nil, traced)
	}
	res.Spans, res.Metrics, res.Fidelity = nil, nil, nil
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Appendf(b, "\nerror: %v", err)
}
