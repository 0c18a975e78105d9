package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"mtm/internal/sim"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pin.json from this run's experiment digests")

// pinFile maps each pinned experiment's id to the SHA-256 of the text it
// returns at pinOptions.
const pinFile = "testdata/pin.json"

// pinCase is one pinned experiment, the options its digest is taken at,
// and whether it is slow enough (over about half a second at those
// options on a 2-vCPU VM) to skip under -short and -race.
type pinCase struct {
	id   string
	o    Options
	slow bool
}

var (
	// handBuilt pins the drivers that build engines and solutions by
	// hand: the standalone profilers (fig1, fig6), the migration
	// mechanisms on a first-touch engine (fig3, fig11) and the MTM
	// policy's region table (tab7).
	handBuilt = Options{Scale: 256, OpsFactor: 0.1, Seed: 1}
	// whole pins the drivers that run whole workloads under named or
	// tuned solutions, at a length that keeps all twelve to about ten
	// seconds together.
	whole = Options{Scale: 512, OpsFactor: 0.02, Seed: 1}
)

// pinned lists every experiment in report order.
var pinned = []pinCase{
	{"fig1", handBuilt, false},
	{"fig3", handBuilt, false},
	{"fig4", whole, true},
	{"fig5", whole, true},
	{"fig6", handBuilt, false},
	{"fig7", whole, false},
	{"fig8", whole, false},
	{"fig9", whole, false},
	{"fig10", whole, true},
	{"fig11", handBuilt, false},
	{"fig12", whole, false},
	{"tab3", whole, true},
	{"tab4", whole, false},
	{"tab5", whole, false},
	{"tab6", whole, false},
	{"tab7", handBuilt, false},
	{"cxl", whole, false},
}

// TestExperimentsPin pins the report text of every experiment byte for
// byte. The root golden digests cover only mtm.Run at the configurations
// their variants set; the drivers also set α, the overhead target,
// τm/τs, the two-tier machine and initial placement, and build engines
// and solutions by hand, and no other test reads their output. Under
// -short and -race the slow drivers are skipped. A change that alters a
// report on purpose regenerates the file with
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
	if len(pinned) != len(All) {
		t.Fatalf("pinned lists %d experiments, All has %d", len(pinned), len(All))
	}
	trim := (testing.Short() || sim.RaceEnabled) && !*updatePin
	got := map[string]string{}
	for i, pc := range pinned {
		id := pc.id
		if id != All[i].ID {
			t.Fatalf("pinned[%d] is %q, All[%d] is %q", i, id, i, All[i].ID)
		}
		if trim && pc.slow {
			continue
		}
		sum := sha256.Sum256([]byte(All[i].Run(pc.o)))
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
	if len(want) != len(pinned) {
		t.Errorf("%s has %d digests, want %d (regenerate with -update-pin)", pinFile, len(want), len(pinned))
	}
}
