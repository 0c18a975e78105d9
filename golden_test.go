package mtm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"mtm/internal/sim"
	"mtm/internal/span"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from this run's Result digests")

// goldenFile maps "<variant>/<workload>/<solution>" to the SHA-256 of the
// run's Result JSON (metrics and spans ride inside it when enabled).
const goldenFile = "testdata/golden.json"

// goldenVariants are the feature sets the golden digests cover, each
// applied to a base config of -scale 256 -ops 0.1, seed 7.
var goldenVariants = []struct {
	name string
	tune func(*Config)
}{
	{"plain", func(*Config) {}},
	{"metrics+spans", func(c *Config) {
		c.Metrics = true
		c.Trace = &span.Config{}
	}},
	{"fidelity", func(c *Config) { c.Fidelity = true }},
	{"learn+lanes", func(c *Config) {
		c.AdmissionLearn = true
		c.AdmissionLanes = "default"
	}},
	{"dimm-death", func(c *Config) {
		c.Faults = "dimm-death"
		c.Audit = true
	}},
	// Poison recovery runs inside the access path and stamps its spans
	// with the interval's app time so far, so this variant pins the
	// app-time accounting as the access path's hooks see it, not only
	// its end-of-interval totals. No run here reaches emergency reclaim;
	// internal/sim's TestEmergencyDemotionRescuesFragmentation covers it.
	{"dimm-death+spans", func(c *Config) {
		c.Faults = "dimm-death"
		c.Audit = true
		c.Metrics = true
		c.Trace = &span.Config{}
	}},
	// Retries, aborts, breaker trips and admission deferrals all fire
	// here, so the metrics export pins the counters the other variants
	// leave at zero. Plain cxl-flaky trips no breaker and defers nothing
	// in runs this short; a 90% inbound copy-failure rate does both.
	{"cxl-flaky+lanes+metrics", func(c *Config) {
		c.Faults = "cxl-flaky,tier-fail-prob=0.9"
		c.AdmissionLearn = true
		c.AdmissionLanes = "default"
		c.Metrics = true
		c.Audit = true
	}},
	// Under plain dimm-death copies fail only into the dying node, and
	// the drain moves pages off it, so the drain never retries. Busy
	// copies on every pair make the drain's retry loop and its admission
	// lane fire.
	{"dimm-death+ebusy+lanes", func(c *Config) {
		c.Faults = "dimm-death,page-busy-prob=0.3,page-busy-duty=1"
		c.AdmissionLanes = "default"
		c.Audit = true
	}},
	// Static admission: the other admission variants turn on lanes, which
	// rescale every bucket to observed demand. Here the buckets keep their
	// rated refill and the floor stays at MinROI, so this variant pins the
	// static ROI gate, waste shedding without lanes, and a breaker trip
	// zeroing its pair's budget.
	{"cxl-flaky+admission+metrics", func(c *Config) {
		c.Faults = "cxl-flaky,tier-fail-prob=0.9"
		c.Admission = true
		c.Metrics = true
		c.Audit = true
	}},
	// Faults with both event sinks on: aborts, breaker trips, poison,
	// poison recovery and health transitions reach the span trace, and
	// admission defers and rejects, thrash suppression and fault
	// activations reach the event ring. This pins the name, ring type,
	// attributes and dedup of every event kind these runs emit.
	{"cxl-flaky+lanes+metrics+spans", func(c *Config) {
		c.Faults = "cxl-flaky,tier-fail-prob=0.9"
		c.AdmissionLearn = true
		c.AdmissionLanes = "default"
		c.Metrics = true
		c.Trace = &span.Config{}
		c.Audit = true
	}},
}

// TestGoldenDigests pins every solution's output on gups and pingpong
// across the golden variants, on Cassandra, VoltDB and Spark in the plain
// and dimm-death+spans variants, and on BFS and SSSP in the metrics+spans
// variant, to the
// digests in testdata/golden.json, so a change that must not alter
// results can be checked against the last commit's outputs without
// rebuilding it. A
// change that alters results on purpose regenerates the file with
//
//	go test -run TestGoldenDigests -update-golden .
//
// and its diff shows which runs moved. Digests are recorded on
// linux/amd64 only: other platforms may round floating point
// differently.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on linux/amd64 only")
	}
	if testing.Short() || sim.RaceEnabled {
		t.Skip("448 runs; skipped in -short and -race")
	}
	want := map[string]string{}
	if b, err := os.ReadFile(goldenFile); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenFile, err)
		}
	} else if !*updateGolden {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("runs", func(t *testing.T) {
		for _, v := range goldenVariants {
			wls := []string{"gups", "pingpong"}
			switch v.name {
			case "plain":
				// Cassandra is the one workload that draws zipfian keys;
				// one variant is enough to pin its sampler. VoltDB and
				// Spark pin their constructors' table sizes and mixes.
				wls = append(wls, "cassandra", "voltdb", "spark")
			case "metrics+spans":
				// BFS and SSSP share the CSR graph walk; with spans on,
				// their Results also pin a graph workload's span export.
				wls = append(wls, "bfs", "sssp")
			case "dimm-death+spans":
				// Cassandra, VoltDB and Spark touch several VMAs per
				// operation, so poison recovery here runs inside a batch
				// whose refs span VMAs.
				wls = append(wls, "cassandra", "voltdb", "spark")
			}
			for _, wl := range wls {
				for _, sol := range SolutionNames() {
					key := v.name + "/" + wl + "/" + sol
					cfg := DefaultConfig()
					cfg.Scale = 256
					cfg.OpsFactor = 0.1
					cfg.Seed = 7
					v.tune(&cfg)
					t.Run(key, func(t *testing.T) {
						t.Parallel()
						d := resultDigest(t, cfg, wl, sol)
						mu.Lock()
						got[key] = d
						mu.Unlock()
						if *updateGolden {
							return
						}
						if w, ok := want[key]; !ok {
							t.Errorf("no golden digest (regenerate with -update-golden)")
						} else if d != w {
							t.Errorf("Result digest %.12s, golden %.12s", d, w)
						}
					})
				}
			}
		}
	})
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var stale []string
	for k := range want {
		if _, ok := got[k]; !ok {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("golden entries no run produced (regenerate with -update-golden): %v", stale)
	}
}

// resultDigest runs one configuration and returns the SHA-256 of its
// Result JSON, with the run error appended when there is one: a fault
// scenario may legitimately end a run early.
func resultDigest(t *testing.T, cfg Config, wl, sol string) string {
	t.Helper()
	res, err := Run(cfg, wl, sol)
	if res == nil {
		t.Fatalf("run: %v", err)
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	if err != nil {
		b = append(b, "\nerror: "+err.Error()...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
