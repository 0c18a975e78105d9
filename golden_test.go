package mtm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
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
// applied to a base config of -scale 256 -ops 0.1, seed 7 and run on
// gups, pingpong and the variant's more workloads under every solution.
var goldenVariants = []struct {
	name string
	more []string
	tune func(*Config)
}{
	// Cassandra is the one workload that draws zipfian keys; one variant
	// is enough to pin its sampler. VoltDB and Spark pin their
	// constructors' table sizes and mixes.
	{"plain", []string{"cassandra", "voltdb", "spark"}, func(*Config) {}},
	// BFS and SSSP share the CSR graph walk; with spans on, their Results
	// also pin a graph workload's span export.
	{"metrics+spans", []string{"bfs", "sssp"}, func(c *Config) {
		c.Metrics = true
		c.Trace = &span.Config{}
	}},
	{"fidelity", nil, func(c *Config) { c.Fidelity = true }},
	{"learn+lanes", nil, func(c *Config) {
		c.AdmissionLearn = true
		c.AdmissionLanes = "default"
	}},
	{"dimm-death", nil, func(c *Config) {
		c.Faults = "dimm-death"
		c.Audit = true
	}},
	// Poison recovery runs inside the access path and stamps its spans
	// with the interval's app time so far, so this variant pins the
	// app-time accounting as the access path's hooks see it, not only
	// its end-of-interval totals. No run here reaches emergency reclaim;
	// internal/sim's TestEmergencyDemotionRescuesFragmentation covers it.
	// Cassandra, VoltDB and Spark touch several VMAs per operation, so
	// their poison recovery runs inside a batch whose refs span VMAs.
	{"dimm-death+spans", []string{"cassandra", "voltdb", "spark"}, func(c *Config) {
		c.Faults = "dimm-death"
		c.Audit = true
		c.Metrics = true
		c.Trace = &span.Config{}
	}},
	// Retries, aborts, breaker trips and admission deferrals all fire
	// here, so the metrics export pins the counters the other variants
	// leave at zero. Plain cxl-flaky trips no breaker and defers nothing
	// in runs this short; a 90% inbound copy-failure rate does both.
	{"cxl-flaky+lanes+metrics", nil, func(c *Config) {
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
	{"dimm-death+ebusy+lanes", nil, func(c *Config) {
		c.Faults = "dimm-death,page-busy-prob=0.3,page-busy-duty=1"
		c.AdmissionLanes = "default"
		c.Audit = true
	}},
	// Static admission: the other admission variants turn on lanes, which
	// rescale every bucket to observed demand. Here the buckets keep their
	// rated refill and the floor stays at MinROI, so this variant pins the
	// static ROI gate, waste shedding without lanes, and a breaker trip
	// zeroing its pair's budget.
	{"cxl-flaky+admission+metrics", nil, func(c *Config) {
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
	{"cxl-flaky+lanes+metrics+spans", nil, func(c *Config) {
		c.Faults = "cxl-flaky,tier-fail-prob=0.9"
		c.AdmissionLearn = true
		c.AdmissionLanes = "default"
		c.Metrics = true
		c.Trace = &span.Config{}
		c.Audit = true
	}},
	// Plain cxl-flaky at its rated failure rate: copies into the flaky
	// tier abort and retry, and the audit reconciles residency (and
	// Nomad's shadows) after them.
	{"cxl-flaky", nil, func(c *Config) {
		c.Faults = "cxl-flaky"
		c.Audit = true
	}},
	// Static admission with the oracle and spans: admit, defer and reject
	// decision spans, the oracle's accuracy and lag tallies, and the
	// outcome lineage of every admitted move.
	{"admission+fidelity+spans", nil, func(c *Config) {
		c.Admission = true
		c.Fidelity = true
		c.Trace = &span.Config{}
	}},
	// The same with a flaky tier feeding the waste ledger and aborting
	// moves mid-lineage.
	{"cxl-flaky+admission+fidelity+spans", nil, func(c *Config) {
		c.Faults = "cxl-flaky"
		c.Admission = true
		c.Fidelity = true
		c.Trace = &span.Config{}
		c.Audit = true
	}},
	// EBUSY storms: retry and backoff annotations in the transfer spans,
	// abort and fault-activation events in the ring.
	{"ebusy-storm+metrics+spans", nil, func(c *Config) {
		c.Faults = "ebusy-storm"
		c.Metrics = true
		c.Trace = &span.Config{}
	}},
}

// goldenRuns counts the runs TestGoldenDigests makes over goldenVariants.
func goldenRuns() int {
	n := 0
	for _, v := range goldenVariants {
		n += (2 + len(v.more)) * len(SolutionNames())
	}
	return n
}

// goldenRecorded reports whether this platform records golden digests.
var goldenRecorded = runtime.GOOS == "linux" && runtime.GOARCH == "amd64"

// goldenSubset reports whether this test binary runs only each variant's
// gups/mtm and pingpong/mtm, and plain/cassandra/mtm.
func goldenSubset() bool {
	return (testing.Short() || sim.RaceEnabled) && !*updateGolden
}

// goldenKeys lists the "<variant>/<workload>/<solution>" keys of the
// runs TestGoldenDigests makes, in table order.
func goldenKeys(subset bool) []string {
	var keys []string
	for _, v := range goldenVariants {
		wls, sols := append([]string{"gups", "pingpong"}, v.more...), SolutionNames()
		if subset {
			// Cassandra draws its chunks ahead on a second goroutine (see
			// sim.Lookahead), so the race detector sees the producer.
			wls, sols = wls[:2], []string{"mtm"}
			if v.name == "plain" {
				wls = append(wls, "cassandra")
			}
		}
		for _, wl := range wls {
			for _, sol := range sols {
				keys = append(keys, v.name+"/"+wl+"/"+sol)
			}
		}
	}
	return keys
}

// goldenWant holds the digests of testdata/golden.json.
var goldenWant = sync.OnceValues(func() (map[string]string, error) {
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("%s: %v", goldenFile, err)
	}
	return want, nil
})

// goldenRun is the run of one golden key. Each key runs once per test
// binary, and every test that checks the key shares the run.
type goldenRun struct {
	once   sync.Once
	digest string
	again  string // a second run's digest, off linux/amd64 only
	err    error
}

var goldenMemo sync.Map // key → *goldenRun

// runGolden returns the run of key, making it on first use.
func runGolden(key string) *goldenRun {
	r, _ := goldenMemo.LoadOrStore(key, &goldenRun{})
	run := r.(*goldenRun)
	run.once.Do(func() {
		parts := strings.SplitN(key, "/", 3)
		if len(parts) != 3 {
			run.err = fmt.Errorf("golden key %q is not <variant>/<workload>/<solution>", key)
			return
		}
		cfg := DefaultConfig()
		cfg.Scale = 256
		cfg.OpsFactor = 0.1
		cfg.Seed = 7
		found := false
		for _, v := range goldenVariants {
			if v.name == parts[0] {
				v.tune(&cfg)
				found = true
			}
		}
		if !found {
			run.err = fmt.Errorf("no golden variant %q", parts[0])
			return
		}
		run.digest, run.err = resultDigest(cfg, parts[1], parts[2])
		if run.err == nil && !goldenRecorded {
			run.again, run.err = resultDigest(cfg, parts[1], parts[2])
		}
	})
	return run
}

// checkGolden fails t unless the run of key reproduces its golden
// digest, or, off linux/amd64, unless two runs of it agree.
func checkGolden(t *testing.T, key string) {
	t.Helper()
	r := runGolden(key)
	if r.err != nil {
		t.Fatalf("%s: %v", key, r.err)
	}
	if !goldenRecorded {
		if r.again != r.digest {
			t.Errorf("%s: Result digest %.12s, then %.12s on a second run", key, r.digest, r.again)
		}
		return
	}
	if *updateGolden {
		return
	}
	want, err := goldenWant()
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if w, ok := want[key]; !ok {
		t.Errorf("%s: no golden digest (regenerate with -update-golden)", key)
	} else if r.digest != w {
		t.Errorf("%s: Result digest %.12s, golden %.12s", key, r.digest, w)
	}
}

// TestGoldenDigests is the determinism check: every run of
// goldenVariants must reproduce the digest testdata/golden.json holds for
// it. A change that must not alter results is thus checked against the
// last commit's outputs without rebuilding it, which also catches drift
// between commits that two runs in one process would not see. The runs
// go side by side, so state that simulations share shows up too. A
// change that alters results on purpose regenerates the file with
//
//	go test -run TestGoldenDigests -update-golden .
//
// and its diff shows which runs moved. -short and -race run only each
// variant's gups/mtm and pingpong/mtm, and plain/cassandra/mtm. Digests
// are recorded on linux/amd64 only, because other platforms may round
// floating point differently; there every run goes twice and the two
// digests must match.
func TestGoldenDigests(t *testing.T) {
	if *updateGolden && !goldenRecorded {
		t.Fatal("golden digests are recorded on linux/amd64 only")
	}
	subset := goldenSubset()
	keys := goldenKeys(subset)
	if subset {
		t.Logf("%d of %d runs in -short and -race", len(keys), goldenRuns())
	}
	t.Run("runs", func(t *testing.T) {
		for _, key := range keys {
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, key)
			})
		}
	})
	if *updateGolden {
		if t.Failed() {
			t.Fatal("not rewriting the golden digests: a run failed")
		}
		got := map[string]string{}
		for _, key := range keys {
			got[key] = runGolden(key).digest
		}
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
	if subset || !goldenRecorded {
		return
	}
	want, err := goldenWant()
	if err != nil {
		return // each run has reported it
	}
	ran := map[string]bool{}
	for _, key := range keys {
		ran[key] = true
	}
	var stale []string
	for k := range want {
		if !ran[k] {
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
func resultDigest(cfg Config, wl, sol string) (string, error) {
	res, err := Run(cfg, wl, sol)
	if res == nil {
		return "", fmt.Errorf("run: %v", err)
	}
	b, jerr := json.Marshal(res)
	if jerr != nil {
		return "", jerr
	}
	if err != nil {
		b = append(b, "\nerror: "+err.Error()...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// The tests below keep the names of the run-twice tests the golden
// digests replaced. Each of their subtests checks the golden keys that
// now pin the configuration it used to run twice, so a failure still
// names the feature it covers. They share TestGoldenDigests' runs and
// add none; -short and -race keep the subtests whose keys they run.

// goldenCover is one subtest of a run-twice test and the golden keys
// that pin its configuration.
type goldenCover struct {
	name string
	keys []string
}

func cover(name string, keys ...string) goldenCover { return goldenCover{name, keys} }

// checkCovers runs each cover as a parallel subtest of t.
func checkCovers(t *testing.T, covers []goldenCover) {
	run := map[string]bool{}
	for _, key := range goldenKeys(goldenSubset()) {
		run[key] = true
	}
next:
	for _, c := range covers {
		for _, key := range c.keys {
			if !run[key] {
				continue next
			}
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, key := range c.keys {
				checkGolden(t, key)
			}
		})
	}
}

// TestParallelDeterminismMatrix: every workload under every solution,
// gups under dimm-death and cxl-flaky, and pingpong with admission and
// with the oracle, each also under cxl-flaky.
func TestParallelDeterminismMatrix(t *testing.T) {
	var covers []goldenCover
	for _, wl := range WorkloadNames() {
		v := "plain"
		if wl == "bfs" || wl == "sssp" {
			v = "metrics+spans"
		}
		for _, sol := range SolutionNames() {
			covers = append(covers, cover(wl+"/"+sol, v+"/"+wl+"/"+sol))
		}
	}
	for _, h := range []string{"dimm-death", "cxl-flaky"} {
		for _, sol := range SolutionNames() {
			covers = append(covers, cover("gups/"+sol+"/"+h, h+"/gups/"+sol))
		}
	}
	for _, sol := range SolutionNames() {
		flaky := "cxl-flaky+admission+fidelity+spans/pingpong/" + sol
		covers = append(covers,
			cover("pingpong/"+sol+"/admission", "admission+fidelity+spans/pingpong/"+sol),
			cover("pingpong/"+sol+"/admission/cxl-flaky", flaky),
			cover("pingpong/"+sol+"/fidelity", "fidelity/pingpong/"+sol, "admission+fidelity+spans/pingpong/"+sol),
			cover("pingpong/"+sol+"/fidelity/cxl-flaky", flaky))
	}
	checkCovers(t, covers)
}

// TestParallelDeterminismMetrics: the metrics export, also under EBUSY
// storms.
func TestParallelDeterminismMetrics(t *testing.T) {
	checkCovers(t, []goldenCover{
		cover("gups/mtm", "metrics+spans/gups/mtm"),
		cover("gups/tiered-autonuma", "metrics+spans/gups/tiered-autonuma"),
		cover("gups/mtm/ebusy-storm", "ebusy-storm+metrics+spans/gups/mtm"),
	})
}

// TestParallelDeterminismSpans: the span export of every workload under
// every solution.
func TestParallelDeterminismSpans(t *testing.T) {
	var covers []goldenCover
	for _, wl := range WorkloadNames() {
		v := "metrics+spans"
		if wl == "cassandra" || wl == "voltdb" || wl == "spark" {
			v = "dimm-death+spans"
		}
		for _, sol := range SolutionNames() {
			covers = append(covers, cover(wl+"/"+sol, v+"/"+wl+"/"+sol))
		}
	}
	checkCovers(t, covers)
}

// TestParallelDeterminismSpansFaults: retry, backoff and abort
// annotations in the transfer spans.
func TestParallelDeterminismSpansFaults(t *testing.T) {
	checkGolden(t, "ebusy-storm+metrics+spans/gups/mtm")
}

// TestParallelDeterminismFaults: the injector's own random stream under
// EBUSY storms.
func TestParallelDeterminismFaults(t *testing.T) {
	checkGolden(t, "ebusy-storm+metrics+spans/gups/mtm")
}

// TestParallelDeterminismNomad: Nomad's shadow retention, write
// invalidation, background sync and flip demotion, audited, also under
// cxl-flaky.
func TestParallelDeterminismNomad(t *testing.T) {
	checkCovers(t, []goldenCover{
		cover("pingpong/nomad", "plain/pingpong/nomad", "dimm-death/pingpong/nomad"),
		cover("pingpong/nomad/cxl-flaky", "cxl-flaky/pingpong/nomad"),
	})
}

// TestParallelDeterminismNomadSpans: Nomad's shadow sync and
// flip-demotion spans, also under cxl-flaky.
func TestParallelDeterminismNomadSpans(t *testing.T) {
	checkCovers(t, []goldenCover{
		cover("pingpong/nomad", "metrics+spans/pingpong/nomad"),
		cover("pingpong/nomad/cxl-flaky", "cxl-flaky+admission+fidelity+spans/pingpong/nomad"),
	})
}

// TestParallelDeterminismAdmissionSpans: admission decision spans while a
// flaky tier feeds the waste ledger.
func TestParallelDeterminismAdmissionSpans(t *testing.T) {
	checkGolden(t, "cxl-flaky+admission+fidelity+spans/pingpong/mtm")
}

// TestParallelDeterminismHealthSpans: poison, transition, breaker-trip
// and drain spans of a run that kills a DIMM.
func TestParallelDeterminismHealthSpans(t *testing.T) {
	checkGolden(t, "dimm-death+spans/gups/mtm")
}

// TestParallelDeterminismFidelity: the oracle's Fidelity block and its
// outcome spans, also under cxl-flaky.
func TestParallelDeterminismFidelity(t *testing.T) {
	plain, flaky := "admission+fidelity+spans/pingpong/mtm", "cxl-flaky+admission+fidelity+spans/pingpong/mtm"
	checkCovers(t, []goldenCover{
		cover("pingpong/mtm/plain", plain),
		cover("pingpong/mtm/plain/spans", plain),
		cover("pingpong/mtm/cxl-flaky", flaky),
		cover("pingpong/mtm/cxl-flaky/spans", flaky),
	})
}

// TestParallelDeterminismLearn: learned admission floors and lanes, with
// their span attributes, also under a flaky tier.
func TestParallelDeterminismLearn(t *testing.T) {
	flaky := "cxl-flaky+lanes+metrics+spans/pingpong/mtm"
	checkCovers(t, []goldenCover{
		cover("pingpong/mtm/plain", "learn+lanes/pingpong/mtm"),
		cover("pingpong/mtm/plain/spans", "learn+lanes/pingpong/mtm", flaky),
		cover("pingpong/mtm/cxl-flaky", flaky),
		cover("pingpong/mtm/cxl-flaky/spans", flaky),
	})
}

// TestRunDeterminism: gups under mtm in every variant.
func TestRunDeterminism(t *testing.T) {
	for _, v := range goldenVariants {
		checkGolden(t, v.name+"/gups/mtm")
	}
}
