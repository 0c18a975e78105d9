package migrate

import (
	"testing"
	"time"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

// stubFaults is a deterministic sim.FaultPlane for tests: busyLeft maps a
// page index to how many consecutive copy attempts fail (-1 = always).
type stubFaults struct {
	busyLeft map[int]int
	penalty  time.Duration
	bwFactor float64
	pressure map[tier.NodeID]bool
}

func (s *stubFaults) Attach(sockets, nodes int) {}
func (s *stubFaults) BeginInterval(int)         {}
func (s *stubFaults) PageBusy(v *vm.VMA, idx int, dst tier.NodeID) (bool, time.Duration) {
	n := s.busyLeft[idx]
	if n == 0 {
		return false, 0
	}
	if n > 0 {
		s.busyLeft[idx] = n - 1
	}
	return true, s.penalty
}
func (s *stubFaults) DestPressure(n tier.NodeID) bool { return s.pressure[n] }
func (s *stubFaults) SampleDropFrac() float64         { return 0 }
func (s *stubFaults) LinkBWFactor(socket int, n tier.NodeID) float64 {
	if s.bwFactor > 1 {
		return s.bwFactor
	}
	return 1
}

func TestAbortRollsBackAccounting(t *testing.T) {
	e, v := setup(t, 4, 2)
	e.SetFaultPlane(&stubFaults{
		busyLeft: map[int]int{0: -1, 1: -1, 2: -1, 3: -1},
		penalty:  time.Microsecond,
	})
	usedSrc, usedDst := e.Sys.Used(2), e.Sys.Used(0)
	rep := MovePages{}.Migrate(e, v, 0, 4, 0, 0)
	if rep.MovedPages != 0 || e.MigrationAborts != 4 {
		t.Fatalf("moved=%d aborts=%d, want 0/4", rep.MovedPages, e.MigrationAborts)
	}
	if e.Sys.Used(2) != usedSrc || e.Sys.Used(0) != usedDst {
		t.Fatal("aborted transactions leaked capacity")
	}
	for i := 0; i < 4; i++ {
		if v.Node(i) != 2 {
			t.Fatalf("page %d rebound despite abort", i)
		}
	}
	// Five busy attempts per page: 4 retries each, one wasted page copy each.
	if e.MigrationRetries != 16 || e.WastedBytes != 4*vm.HugePageSize {
		t.Fatalf("retries=%d wasted bytes=%d", e.MigrationRetries, e.WastedBytes)
	}
	// Each page wastes five busy penalties, 5+10+20+40 µs of backoff and
	// the aborted copy, all on the critical path.
	perPage := 5*time.Microsecond + 75*time.Microsecond + copyTime(vm.HugePageSize, pairBW(e, 2, 0))
	if rep.Critical != 4*perPage {
		t.Fatalf("critical = %v, want the wasted work %v", rep.Critical, 4*perPage)
	}
}

func TestRetrySucceedsWithBackoffCharged(t *testing.T) {
	e, v := setup(t, 2, 2)
	e.SetFaultPlane(&stubFaults{busyLeft: map[int]int{0: 2}, penalty: time.Microsecond})
	rep := MovePages{}.Migrate(e, v, 0, 2, 0, 0)
	if rep.MovedPages != 2 || e.MigrationAborts != 0 || e.MigrationRetries != 2 {
		t.Fatalf("moved=%d aborts=%d retries=%d", rep.MovedPages, e.MigrationAborts, e.MigrationRetries)
	}
	// Two busy attempts on page 0: 2x penalty plus backoffs 5 µs and 10 µs,
	// riding on the critical path.
	want := 2*time.Microsecond + 15*time.Microsecond
	e2, v2 := setup(t, 2, 2)
	clean := MovePages{}.Migrate(e2, v2, 0, 2, 0, 0)
	if rep.Critical != clean.Critical+want {
		t.Fatalf("critical %v, want clean %v + penalty %v", rep.Critical, clean.Critical, want)
	}
}

func TestMaxPagesCapCountsAbortedAttempts(t *testing.T) {
	// The cap is a work budget: pages that abort still consume it, like
	// the kernel's nr_pages under repeated EBUSY.
	e, v := setup(t, 8, 2)
	e.SetFaultPlane(&stubFaults{busyLeft: map[int]int{0: -1, 1: -1}})
	rep := MovePages{}.Migrate(e, v, 0, 8, 0, 3)
	if e.MigrationAborts != 2 || rep.MovedPages != 1 {
		t.Fatalf("aborts=%d moved=%d, want 2/1", e.MigrationAborts, rep.MovedPages)
	}
	if v.Node(2) != 0 || v.Node(3) != 2 {
		t.Fatal("wrong pages moved under capped retry budget")
	}
}

func TestMixedSourceWeightedCopyTime(t *testing.T) {
	// Two pages on node 2 and two on node 1 migrating to node 0 must
	// charge each source's bytes at its own pair bandwidth, not the first
	// page's link for everything.
	e, v := setup(t, 4, 2)
	if !e.MovePage(v, 2, 1) || !e.MovePage(v, 3, 1) {
		t.Fatal("setup moves failed")
	}
	rep := MovePages{}.Migrate(e, v, 0, 4, 0, 0)
	if rep.MovedPages != 4 {
		t.Fatalf("moved %d, want 4", rep.MovedPages)
	}
	bytesPerSrc := int64(2) * vm.HugePageSize
	expect := time.Duration(rep.Bytes/vm.BasePageSize) * CopyPerPTE
	for _, src := range []tier.NodeID{1, 2} {
		bw := pairBW(e, src, 0)
		if SingleThreadCopyBW < bw {
			bw = SingleThreadCopyBW
		}
		expect += copyTime(bytesPerSrc, bw)
	}
	if rep.CriticalSteps.Copy != expect {
		t.Fatalf("copy = %v, want weighted %v", rep.CriticalSteps.Copy, expect)
	}
}

func TestDstFullPartialMoveExactAccounting(t *testing.T) {
	e, v := setup(t, 8, 2)
	free := e.Sys.Free(0)
	if free < 2*vm.HugePageSize {
		t.Skipf("node 0 too small: %d", free)
	}
	e.Sys.Reserve(0, free-2*vm.HugePageSize)
	srcUsed := e.Sys.Used(2)
	rep := MovePages{}.Migrate(e, v, 0, 8, 0, 0)
	if rep.MovedPages != 2 {
		t.Fatalf("moved %d, want 2", rep.MovedPages)
	}
	if e.Sys.Free(0) != 0 {
		t.Fatalf("destination free = %d, want 0", e.Sys.Free(0))
	}
	if got := srcUsed - e.Sys.Used(2); got != 2*vm.HugePageSize {
		t.Fatalf("source released %d, want exactly two huge pages", got)
	}
	for i := 0; i < 8; i++ {
		want := tier.NodeID(2)
		if i < 2 {
			want = 0
		}
		if v.Node(i) != want {
			t.Fatalf("page %d on %d, want %d", i, v.Node(i), want)
		}
	}
}

func TestLinkDegradeSlowsCopy(t *testing.T) {
	e, v := setup(t, 8, 2)
	clean := MovePages{}.Migrate(e, v, 0, 8, 0, 0)
	e2, v2 := setup(t, 8, 2)
	e2.SetFaultPlane(&stubFaults{bwFactor: 64})
	slow := MovePages{}.Migrate(e2, v2, 0, 8, 0, 0)
	if slow.CriticalSteps.Copy <= clean.CriticalSteps.Copy {
		t.Fatalf("degraded copy %v not slower than clean %v", slow.CriticalSteps.Copy, clean.CriticalSteps.Copy)
	}
}

func TestNoFaultPlaneReportsCleanRobustness(t *testing.T) {
	e, v := setup(t, 4, 2)
	rep := NewAdaptive().Migrate(e, v, 0, 4, 0, 0)
	if rep.MovedPages != 4 || e.MigrationRetries != 0 || e.MigrationAborts != 0 || e.WastedBytes != 0 {
		t.Fatalf("clean run reported robustness events: moved=%d retries=%d aborts=%d wasted=%d",
			rep.MovedPages, e.MigrationRetries, e.MigrationAborts, e.WastedBytes)
	}
}
