package sim

import (
	"errors"
	"testing"
	"time"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

func TestOutOfMemoryGraceful(t *testing.T) {
	// 4 MB DRAM + 4 MB PM holds four huge pages; touching eight must fail
	// with a typed error instead of panicking.
	e := NewEngine(tier.TwoTierTopology(4*tier.MB, 4*tier.MB), 1)
	e.Interval = time.Second
	e.SetSolution(&fixedSolution{node: 0})
	e.beginInterval()
	v := e.AS.Alloc("big", 16*tier.MB)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	err := e.Err()
	if err == nil {
		t.Fatal("no error after exhausting both tiers")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	var oe *OOMError
	if !errors.As(err, &oe) || oe.Need != vm.HugePageSize {
		t.Fatalf("err = %#v, want *OOMError needing one huge page", err)
	}
	if !e.IntervalExhausted() {
		t.Fatal("failed engine must report the interval exhausted")
	}
	// Later accesses are no-ops: the engine carries the sticky error.
	before := e.TotalAccesses
	e.Access(v, 0, 5, 0, 0)
	if e.TotalAccesses != before {
		t.Fatal("access after failure still charged")
	}
	mustAudit(t, e)
}

// hogWorkload touches every page of a VMA twice the machine's capacity.
type hogWorkload struct {
	v    *vm.VMA
	done bool
}

func (w *hogWorkload) Name() string { return "hog" }
func (w *hogWorkload) Init(e *Engine) {
	w.v = e.AS.Alloc("hog", 8*tier.MB)
}
func (w *hogWorkload) RunInterval(e *Engine) {
	for i := 0; i < w.v.NPages && !e.IntervalExhausted(); i++ {
		e.Access(w.v, i, 1, 0, 0)
	}
	w.done = true
}
func (w *hogWorkload) Done() bool { return w.done }

func TestRunReturnsOOMWithPartialResult(t *testing.T) {
	// Two huge pages of capacity against an 8 MB working set: Run must
	// surface the failure alongside the partial summary.
	e := NewEngine(tier.TwoTierTopology(2*tier.MB, 2*tier.MB), 1)
	e.Interval = time.Second
	res, err := Run(e, &hogWorkload{}, &fixedSolution{node: 0}, 10)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if res == nil || res.Completed || res.Truncated {
		t.Fatalf("partial result wrong: %+v", res)
	}
	mustAudit(t, e)
}

func TestEmergencyDemotionRescuesFragmentation(t *testing.T) {
	// 7 MB of cold 4 KB pages on each 8 MB node: no node has room for a
	// 2 MB huge page, but demoting 1 MB of cold DRAM pages to PM
	// consolidates enough. The fault must survive via emergency demotion.
	// With priority lanes on, every demoted page is also recorded on the
	// emergency lane, and the lane must neither refuse a page nor change
	// what the demotion costs.
	for _, lanes := range []bool{false, true} {
		name := "plain"
		if lanes {
			name = "lanes"
		}
		t.Run(name, func(t *testing.T) {
			e := NewEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB), 1)
			e.Interval = time.Second
			if lanes {
				e.EnableAdmission(false, true)
			}
			enableEventSinks(e)
			e.beginInterval()
			e.AS.THP = false
			e.SetSolution(&fixedSolution{node: 0})
			fill0 := e.AS.Alloc("fill0", 7*tier.MB)
			for i := 0; i < fill0.NPages; i++ {
				e.Access(fill0, i, 1, 0, 0)
			}
			e.SetSolution(&fixedSolution{node: 1})
			fill1 := e.AS.Alloc("fill1", 7*tier.MB)
			for i := 0; i < fill1.NPages; i++ {
				e.Access(fill1, i, 1, 0, 0)
			}
			e.AS.THP = true
			e.SetSolution(&fixedSolution{node: 0})
			huge := e.AS.Alloc("huge", vm.HugePageSize)
			appBefore := e.intApp
			e.Access(huge, 0, 1, 0, 0)
			if err := e.Err(); err != nil {
				t.Fatalf("huge fault failed despite reclaimable space: %v", err)
			}
			if e.EmergencyDemotions != 1 {
				t.Fatalf("EmergencyDemotions = %d, want 1", e.EmergencyDemotions)
			}
			if huge.Node(0) != 0 {
				t.Fatalf("huge page on node %d, want 0 (DRAM)", huge.Node(0))
			}
			// Exact capacity accounting: 14 MB of filler plus the huge
			// page, no node over capacity, demoted filler pages present on
			// PM.
			if used := e.Sys.Used(0) + e.Sys.Used(1); used != 14*tier.MB+vm.HugePageSize {
				t.Fatalf("total used = %d", used)
			}
			if e.Sys.Used(0) > 8*tier.MB || e.Sys.Used(1) > 8*tier.MB {
				t.Fatal("node over capacity after emergency demotion")
			}
			const pages = int(tier.MB / vm.BasePageSize)
			demoted := 0
			for i := 0; i < fill0.NPages; i++ {
				if fill0.Node(i) == 1 {
					demoted++
				}
			}
			if demoted != pages {
				t.Fatalf("demoted %d filler pages, want %d", demoted, pages)
			}
			if e.intDemoted != tier.MB {
				t.Fatalf("demoted bytes = %d, want %d", e.intDemoted, tier.MB)
			}
			// Demotion runs inside the fault, so each page's copy and
			// fixed kernel work land on app time, on top of the huge
			// page's own fault and access.
			perPage := e.Sys.CopyTime(HomeSocket, 0, 1, vm.BasePageSize) + emergencyDemotePageCost
			fault := FaultCost + e.Sys.CopyTime(0, 0, 0, vm.HugePageSize)
			want := time.Duration(pages)*perPage + fault + e.latNow[0][0] + PerAccessCPU
			if got := e.intApp - appBefore; got != want {
				t.Fatalf("app-time charge of the rescued fault = %v, want %v", got, want)
			}
			ls := e.AdmissionLaneStats()
			if !lanes {
				if ls != nil {
					t.Fatalf("lane stats without lanes: %+v", ls)
				}
			} else {
				em := ls.Emergency
				if em.Requests != int64(pages) || em.Admits != int64(pages) || em.Defers != 0 || em.Bytes != tier.MB {
					t.Fatalf("emergency lane = %+v, want %d requests and admits, %d bytes", em, pages, tier.MB)
				}
			}
			wantLines(t, "ring", ringRows(e), []string{
				`0 0 emergency-demotion "DRAM" 2097152`,
			})
			wantLines(t, "spans", spanInstants(e), []string{
				`0 861088 emergency/emergency-demotion node="DRAM" need_bytes=2097152`,
			})
			mustAudit(t, e)
		})
	}
}

func TestEmergencyDemotionCannotFixTrueExhaustion(t *testing.T) {
	// With the lower tier also full, demotion has nowhere to go: the
	// fault must fail with ErrOutOfMemory, not loop or panic.
	e := NewEngine(tier.TwoTierTopology(2*tier.MB, 2*tier.MB), 1)
	e.Interval = time.Second
	enableEventSinks(e)
	e.beginInterval()
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("fill", 4*tier.MB)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	if e.Err() != nil {
		t.Fatalf("filling to capacity failed early: %v", e.Err())
	}
	extra := e.AS.Alloc("extra", vm.HugePageSize)
	e.Access(extra, 0, 1, 0, 0)
	if !errors.Is(e.Err(), ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", e.Err())
	}
	if e.EmergencyDemotions != 0 {
		t.Fatalf("EmergencyDemotions = %d, want 0 (nothing reclaimable)", e.EmergencyDemotions)
	}
	wantLines(t, "ring", ringRows(e), []string{
		`0 0 oom "VMA{extra 0x48400000+2MB page=2048KB}" 0`,
	})
	wantLines(t, "spans", spanInstants(e), []string{
		`0 9969 emergency/oom vma="VMA{extra 0x48400000+2MB page=2048KB}" page=0 need_bytes=2097152`,
	})
	mustAudit(t, e)
}

// busyPlane is a FaultPlane whose next left copy attempts are busy (all
// of them when left < 0), each wasting penalty.
type busyPlane struct {
	left    int
	penalty time.Duration
}

func (p *busyPlane) Attach(sockets, nodes int)  {}
func (p *busyPlane) BeginInterval(interval int) {}
func (p *busyPlane) PageBusy(v *vm.VMA, idx int, dst tier.NodeID) (bool, time.Duration) {
	if p.left == 0 {
		return false, 0
	}
	if p.left > 0 {
		p.left--
	}
	return true, p.penalty
}
func (p *busyPlane) DestPressure(n tier.NodeID) bool           { return false }
func (p *busyPlane) SampleDropFrac() float64                   { return 0 }
func (p *busyPlane) LinkBWFactor(s int, n tier.NodeID) float64 { return 1 }

// TestCopyPageRetryBackoff pins the one retry policy: busy copies back
// off 5, 10, 20 and 40 µs of virtual time, and the fifth busy attempt
// aborts the move with its reservation rolled back.
func TestCopyPageRetryBackoff(t *testing.T) {
	const penalty = time.Microsecond
	us := time.Microsecond
	for _, tc := range []struct {
		busy      int
		committed bool
		retries   int64
		backoff   time.Duration
	}{
		{0, true, 0, 0},
		{1, true, 1, 5 * us},
		{2, true, 2, 15 * us},
		{3, true, 3, 35 * us},
		{4, true, 4, 75 * us},
		{5, false, 4, 75 * us},
	} {
		e := NewEngine(tier.TwoTierTopology(8*tier.MB, 8*tier.MB), 1)
		e.Interval = time.Second
		e.SetSolution(&fixedSolution{node: 1})
		e.beginInterval()
		v := e.AS.Alloc("v", vm.HugePageSize)
		e.Access(v, 0, 1, 0, 0)
		e.SetFaultPlane(&busyPlane{left: tc.busy, penalty: penalty})
		used0, used1 := e.Sys.Used(0), e.Sys.Used(1)

		mv, ok := e.CopyPage(v, 0, 0)
		if !ok {
			t.Fatalf("busy=%d: CopyPage found no room", tc.busy)
		}
		busyAttempts := time.Duration(tc.retries)
		if !tc.committed {
			busyAttempts++
		}
		want := PageMove{Src: 1, Committed: tc.committed, Retries: tc.retries,
			Backoff: tc.backoff, Waste: busyAttempts*penalty + tc.backoff}
		if mv != want {
			t.Fatalf("busy=%d: CopyPage = %+v, want %+v", tc.busy, mv, want)
		}
		if e.MigrationRetries != tc.retries {
			t.Fatalf("busy=%d: MigrationRetries = %d, want %d", tc.busy, e.MigrationRetries, tc.retries)
		}
		wantNode, wantUsed0, wantUsed1 := tier.NodeID(0), used0+v.PageSize, used1-v.PageSize
		var aborts int64
		if !tc.committed {
			wantNode, wantUsed0, wantUsed1, aborts = 1, used0, used1, 1
		}
		if v.Node(0) != wantNode || e.Sys.Used(0) != wantUsed0 || e.Sys.Used(1) != wantUsed1 {
			t.Fatalf("busy=%d: page on %d, used %d/%d; want %d, %d/%d",
				tc.busy, v.Node(0), e.Sys.Used(0), e.Sys.Used(1), wantNode, wantUsed0, wantUsed1)
		}
		if e.MigrationAborts != aborts || e.WastedBytes != aborts*v.PageSize {
			t.Fatalf("busy=%d: aborts=%d wasted=%d", tc.busy, e.MigrationAborts, e.WastedBytes)
		}
		if tc.committed {
			e.NotePromotion(v.PageSize) // committed moves must be attributed
		}
		mustAudit(t, e)
	}
}
