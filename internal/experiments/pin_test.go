package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pin.json from this run's experiment digests")

// pinFile maps each pinned experiment's id to the SHA-256 of the text it
// returns at pinOptions.
const pinFile = "testdata/pin.json"

var pinOptions = Options{Scale: 256, OpsFactor: 0.1, Seed: 1}

// pinned are the experiments whose text is pinned: the standalone
// profilers (fig1, fig6), the migration mechanisms on a first-touch
// engine (fig3, fig11) and the MTM policy's region table (tab7). They
// take about two seconds together, so the test runs them at full size
// under -short and -race too.
var pinned = []string{"fig1", "fig3", "fig6", "fig11", "tab7"}

// TestExperimentsPin pins the report text of the pinned experiments byte
// for byte. The root golden digests cover only mtm.Run; these drivers
// also build engines and solutions by hand, and no other test reads
// their output. A change that alters a report on purpose regenerates the
// file with
//
//	go test -run TestExperimentsPin -update-pin ./internal/experiments
//
// Digests are recorded on linux/amd64 only: other platforms may round
// floating point differently.
func TestExperimentsPin(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("experiment digests are recorded on linux/amd64 only")
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
	for _, id := range pinned {
		ex, ok := Find(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		sum := sha256.Sum256([]byte(ex.Run(pinOptions)))
		d := hex.EncodeToString(sum[:])
		got[id] = d
		if *updatePin {
			continue
		}
		if w, ok := want[id]; !ok {
			t.Errorf("%s: no pinned digest (regenerate with -update-pin)", id)
		} else if d != w {
			t.Errorf("%s: digest %.12s, pinned %.12s", id, d, w)
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
