package profiler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"testing"

	"mtm/internal/span"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pin.json from this run's profiler digests")

// pinFile maps each profiler's name (or, for an MTM ablation,
// "mtm-profiler/<switch>=false") to the SHA-256 of its region tables
// and profiling charges over pinIntervals intervals of the hot/cold
// fixture, and "<name>/metrics" and "<name>/spans" to the SHA-256 of the
// JSON of that run's metrics and span exports.
const pinFile = "testdata/pin.json"

const pinIntervals = 20

// pinned is one profiler run of the pin on a hot/cold fixture of pages
// huge pages, the first hot of them hot. An empty name keys the run by
// the profiler's Name.
type pinned struct {
	name       string
	p          Profiler
	pages, hot int
}

// TestProfilerPin pins every profiler's output byte for byte. No Result
// digest covers DAMON, and the others reach the root golden file only
// through a policy; this test hashes the profilers directly. After each
// interval it hashes every region's Start, End, Quota and the bits of HI
// and WHI, then the cumulative profiling time charged. The runs have
// metrics and spans on, and the exports are pinned too: they carry each
// profiler's instruments (merges, splits, PEBS samples) and spans (such
// as DAMON's per-pass merges and splits). A change that
// alters profiling on purpose regenerates the file with
//
//	go test -run TestProfilerPin -update-pin ./internal/profiler
//
// Digests are recorded on linux/amd64 only: other platforms may round
// floating point differently.
func TestProfilerPin(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("profiler digests are recorded on linux/amd64 only")
	}
	want := map[string]string{}
	if b, err := os.ReadFile(pinFile); err == nil {
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", pinFile, err)
		}
	} else if !*updatePin {
		t.Fatalf("%v (regenerate with -update-pin)", err)
	}
	got := map[string]string{}
	var keys []string // got's keys in the order they were hashed
	// mtmWithout is MTM with one §9.3 ablation switch off. These runs
	// use a fixture larger than MTM's 555-sample budget, so quota is
	// trimmed and granted rather than covering every page.
	mtmWithout := func(feature string, off func(*MTMConfig)) pinned {
		cfg := DefaultMTMConfig()
		off(&cfg)
		return pinned{"mtm-profiler/" + feature + "=false", NewMTM(cfg), 2048, 400}
	}
	for _, c := range []pinned{
		{"", NewMTM(DefaultMTMConfig()), 512, 100},
		{"", NewDAMON(), 512, 100},
		{"", NewThermostat(), 512, 100},
		{"", NewRandomChunk(), 512, 100},
		{"", NewSequentialScan(true), 512, 100},
		{"", NewSequentialScan(false), 512, 100},
		mtmWithout("AdaptiveRegions", func(c *MTMConfig) { c.AdaptiveRegions = false }),
		mtmWithout("UsePEBS", func(c *MTMConfig) { c.UsePEBS = false }),
		mtmWithout("AdaptiveSampling", func(c *MTMConfig) { c.AdaptiveSampling = false }),
		mtmWithout("OverheadControl", func(c *MTMConfig) { c.OverheadControl = false }),
	} {
		p, name := c.p, c.name
		if name == "" {
			name = p.Name()
		}
		e, w := hotColdEngine(t, c.pages, c.hot, 2, p)
		e.EnableMetrics()
		e.EnableSpans(span.Config{})
		h := sha256.New()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for i := 0; i < pinIntervals; i++ {
			interval(e, w)
			for _, r := range p.Regions() {
				put(uint64(r.Start))
				put(uint64(r.End))
				put(uint64(r.Quota))
				put(math.Float64bits(r.HI))
				put(math.Float64bits(r.WHI))
			}
			put(uint64(e.TotalProf))
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
		keys = append(keys, name)
		for _, x := range []struct {
			key    string
			export any
		}{
			{name + "/metrics", e.MetricsExport()},
			{name + "/spans", e.SpansExport()},
		} {
			b, err := json.Marshal(x.export)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[x.key] = hex.EncodeToString(sum[:])
			keys = append(keys, x.key)
		}
	}
	if !*updatePin {
		for _, k := range keys {
			if w, ok := want[k]; !ok {
				t.Errorf("%s: no pinned digest (regenerate with -update-pin)", k)
			} else if got[k] != w {
				t.Errorf("%s: digest %.12s, pinned %.12s", k, got[k], w)
			}
		}
	}
	if *updatePin {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, this run produced %d (regenerate with -update-pin)", pinFile, len(want), len(got))
	}
}
