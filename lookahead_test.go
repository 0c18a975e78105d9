package mtm

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"mtm/internal/sim"
)

// TestRunAheadGivesTheInlineRun: a run where Cassandra, VoltDB and BFS
// draw their next chunk on a second goroutine (GOMAXPROCS 2) equals the
// inline run (GOMAXPROCS 1) in its Result JSON, its error and the engine's
// next Rng draw after Run. The last catches a chunk drawn ahead but never
// issued, which no Result shows. The three workloads run under every
// solution, hmc among them, whose Intercept keeps the loop inline;
// Cassandra also under dimm-death, whose poisoned pages pause running
// ahead until each has taken its recovery fault, and VoltDB into an
// out-of-memory failure in its third interval. The test is not parallel,
// because GOMAXPROCS is process-wide. -short and -race run only bfs/mtm,
// the dimm-death run and the out-of-memory run; there TestGoldenDigests'
// plain/cassandra/mtm, whose digest was recorded inline, covers Cassandra
// without faults.
func TestRunAheadGivesTheInlineRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := DefaultConfig()
	base.Scale = 512
	base.OpsFactor = 0.1
	base.Seed = 7
	type run struct {
		name, wl, sol string
		cfg           Config
		fails         bool // the run ends out of memory
	}
	wls, sols := []string{"cassandra", "voltdb", "bfs"}, SolutionNames()
	short := testing.Short() || sim.RaceEnabled
	if short {
		wls, sols = []string{"bfs"}, []string{"mtm"}
	}
	var runs []run
	for _, wl := range wls {
		for _, sol := range sols {
			runs = append(runs, run{wl + "/" + sol, wl, sol, base, false})
		}
	}
	// The fault runs are sized at scale 256, where the capacity tax
	// leaves VoltDB room to start and run out of memory in its third
	// interval.
	faulted := base
	faulted.Scale = 256
	dimm := faulted
	dimm.Faults = "dimm-death"
	dimm.Audit = true
	oom := faulted
	oom.Faults = "dimm-death,capacity-tax=0.72,mem-error-burst=64"
	runs = append(runs, run{"dimm-death/cassandra/mtm", "cassandra", "mtm", dimm, false},
		run{"oom/voltdb/mtm", "voltdb", "mtm", oom, true})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			inline, err := runOnce(t, r.cfg, r.wl, r.sol)
			if (err != nil) != r.fails {
				t.Fatalf("run error %v", err)
			}
			runtime.GOMAXPROCS(2)
			if ahead, _ := runOnce(t, r.cfg, r.wl, r.sol); ahead != inline {
				t.Errorf("run ahead:\n%s\ninline:\n%s", ahead, inline)
			}
		})
	}
}

// runOnce runs one configuration and returns its Result JSON, its error
// and the engine's next Rng draw as text, and its error.
func runOnce(t *testing.T, c Config, wl, sol string) (string, error) {
	t.Helper()
	c = c.withDefaults()
	w, err := NewWorkload(wl, c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolution(sol, c)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c)
	res, err := run(c, e, w, s)
	b, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Sprintf("%s\nerror: %v\nnext draw: %d", b, err, e.Rng.Uint64()), err
}
