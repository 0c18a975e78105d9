package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mtm"
)

// quick shrinks a workload so the whole suite stays within a few seconds.
func quick(sp spec) spec {
	sp.Scale = 1024
	sp.Ops = 0.05
	return sp
}

// The benchmark builds each simulation from public APIs the way mtm.Run does,
// so for the configurations mtm.Run can express (2 MB pages) the two must
// produce byte-identical Results.
func TestBenchmarkMatchesRun(t *testing.T) {
	for _, sp := range specs {
		if !sp.HugePages {
			continue
		}
		sp := quick(sp)
		t.Run(sp.Name, func(t *testing.T) {
			got := simulate(sp, 3, false, false)
			if got.Error != "" {
				t.Fatal(got.Error)
			}
			res, err := mtm.Run(sp.config(3), sp.Workload, sp.Solution)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := encode(res)
			if err != nil {
				t.Fatal(err)
			}
			if got.Digest != want {
				t.Fatalf("benchmark digest %s, mtm.Run digest %s", got.Digest, want)
			}
		})
	}
}

// The timing decorators must not change what the simulator computes, and
// the layers' self times must account for the traced wall time.
func TestTracedRun(t *testing.T) {
	for _, sp := range specs {
		sp := quick(sp)
		t.Run(sp.Name, func(t *testing.T) {
			plain := simulate(sp, 2, false, false)
			traced := simulate(sp, 2, true, false)
			if plain.Error != "" || traced.Error != "" {
				t.Fatalf("errors: untraced %q, traced %q", plain.Error, traced.Error)
			}
			if plain.Digest != traced.Digest {
				t.Fatalf("traced digest %s differs from untraced %s", traced.Digest, plain.Digest)
			}

			l := traced.Layers
			sum := l["setup.ns_per_page"] * l["vm.pages"] / 1e9
			for _, layer := range []string{"access", "policy", "profiler", "migrate", "engine", "audit", "export"} {
				sum += l[layer+".s"]
			}
			if d := math.Abs(sum-traced.WallS) / traced.WallS; d > 0.02 {
				t.Errorf("layer self times sum to %.6fs, traced wall %.6fs (%.2f%% apart)", sum, traced.WallS, 100*d)
			}
			if l["access.calls"] == 0 || l["sim.intervals"] == 0 {
				t.Errorf("no access calls or intervals counted: %v", l)
			}

			for _, s := range traced.spans {
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.Parent >= 0 {
					p := traced.spans[s.Parent]
					if s.Start < p.Start || s.End > p.End {
						t.Fatalf("span %+v lies outside its parent %+v", s, p)
					}
				}
			}
		})
	}
}

// The last line of a run carries exactly the metrics BENCHMARK.json
// declares, with the declared units, and the tables name each of them.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", names, specNames())
	}

	saved := specs
	defer func() { specs = saved }()
	// Renamed, so that the full-size golden digest does not apply.
	specs = []spec{quick(saved[0])}
	specs[0].Name = "quick"
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": decl.EndToEnd, "1": decl.PerLayer} {
		var out bytes.Buffer
		code := run([]string{"--workload", specs[0].Name, "--seconds", "0", "--trace", trace, "--out", t.TempDir()}, &out, io.Discard)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", trace, err)
		}
		if !line.Correct || line.Attempted < 1 {
			t.Errorf("trace %s: result %+v", trace, line)
		}
		var got, declared []string
		for name, m := range line.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			declared = append(declared, m.Name+" "+m.Unit)
			if !strings.Contains(out.String(), m.Name) {
				t.Errorf("trace %s: table does not name %s", trace, m.Name)
			}
		}
		sort.Strings(got)
		sort.Strings(declared)
		if strings.Join(got, ",") != strings.Join(declared, ",") {
			t.Errorf("trace %s: printed metrics\n%v\nBENCHMARK.json declares\n%v", trace, got, declared)
		}
	}
}

// A simulation that runs out of memory counts as failed; it does not stop
// the benchmark.
func TestOutOfMemoryCountsAsFailed(t *testing.T) {
	sp := quick(specs[0])
	sp.Faults = "capacity-crunch"
	r := measure(sp, options{seed: 1, trace: 0}, map[string]string{})
	if r.Attempted < 1 || r.Failed != r.Attempted {
		t.Fatalf("attempted %d, failed %d, want every simulation failed", r.Attempted, r.Failed)
	}
	if !strings.Contains(strings.Join(r.Failures, "\n"), "out of memory") {
		t.Fatalf("failures %q do not name the out-of-memory error", r.Failures)
	}
}

// A Result that differs from the golden digest is a failure.
func TestGoldenMismatchFails(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("golden digests are checked on linux/amd64 only")
	}
	sp := quick(specs[0])
	key := goldenKey(sp.Name, 1)
	r := measure(sp, options{seed: 1, trace: 0}, map[string]string{key: strings.Repeat("0", 64)})
	if r.Failed != r.Attempted {
		t.Fatalf("attempted %d, failed %d, golden %q", r.Attempted, r.Failed, r.Golden)
	}
}
