package sim

import (
	"testing"
	"time"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

// fixedSolution places everything on one node and does nothing else.
type fixedSolution struct {
	node tier.NodeID
	prof time.Duration
	mig  time.Duration
}

func (f *fixedSolution) Name() string { return "fixed" }
func (f *fixedSolution) Place(e *Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	return f.node
}
func (f *fixedSolution) IntervalStart(*Engine) {}
func (f *fixedSolution) IntervalEnd(e *Engine) {
	e.ChargeProfiling(f.prof)
	e.ChargeMigration(f.mig)
}

// fixedWorkload issues a set number of accesses per interval to one page.
type fixedWorkload struct {
	v         *vm.VMA
	perInt    uint32
	intervals int
	run       int
}

func (w *fixedWorkload) Name() string { return "fixed" }
func (w *fixedWorkload) Init(e *Engine) {
	w.v = e.AS.Alloc("w", 4*tier.MB)
}
func (w *fixedWorkload) RunInterval(e *Engine) {
	e.Access(w.v, 0, w.perInt, 0, HomeSocket)
	w.run++
}
func (w *fixedWorkload) Done() bool { return w.run >= w.intervals }

func newTestEngine() *Engine {
	e := NewEngine(tier.OptaneTopology(256), 1)
	e.Interval = 10 * time.Millisecond
	return e
}

func TestAccessChargesTierLatency(t *testing.T) {
	e := newTestEngine()
	sol := &fixedSolution{node: 0}
	e.SetSolution(sol)
	v := e.AS.Alloc("v", 4*tier.MB)
	e.beginInterval()
	e.Access(v, 0, 1000, 0, 0)
	// 1000 accesses at 90ns + PerAccessCPU, across 8 threads.
	want := time.Duration(1000) * (90*time.Nanosecond + PerAccessCPU) / 8
	got := e.AppTimeThisInterval()
	// The first access also faults (fault cost + zeroing), so allow
	// the fault overhead on top.
	if got < want || got > want+FaultCost+time.Millisecond {
		t.Fatalf("app time = %v, want >= %v", got, want)
	}
	if e.NodeAccesses[0] != 1000 {
		t.Fatalf("cumulative accesses = %d, want 1000 (counted immediately)", e.NodeAccesses[0])
	}
	if e.intAccesses[0] != 1000 {
		t.Fatalf("interval accesses = %d", e.intAccesses[0])
	}
	mustAudit(t, e)
}

func TestFaultPlacesViaSolution(t *testing.T) {
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 2})
	v := e.AS.Alloc("v", 4*tier.MB)
	e.beginInterval()
	e.Access(v, 1, 1, 0, 0)
	if v.Node(1) != 2 {
		t.Fatalf("page placed on %d, want 2", v.Node(1))
	}
	if e.Sys.Used(2) != v.PageSize {
		t.Fatal("tier accounting not updated by fault")
	}
	if e.TotalFaults != 1 {
		t.Fatalf("faults = %d", e.TotalFaults)
	}
	mustAudit(t, e)
}

func TestFaultFallsBackWhenFull(t *testing.T) {
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("v", 256*tier.GB/256)
	e.beginInterval()
	// Node 0 holds 96GB/256 = 384MB = 192 huge pages; the 1 GB VMA must
	// spill to other nodes without panicking.
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	if e.Sys.Free(0) >= v.PageSize {
		t.Fatal("node 0 not filled")
	}
	spilled := 0
	for i := 0; i < v.NPages; i++ {
		if v.Node(i) != 0 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no pages spilled to other nodes")
	}
	mustAudit(t, e)
}

func TestMovePage(t *testing.T) {
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 2})
	v := e.AS.Alloc("v", 4*tier.MB)
	e.beginInterval()
	e.Access(v, 0, 1, 0, 0)
	if !e.MovePage(v, 0, 0) {
		t.Fatal("MovePage failed")
	}
	e.NotePromotion(v.PageSize) // node 2 -> 0 is a promotion; keep the ledger honest
	if v.Node(0) != 0 || e.Sys.Used(2) != 0 || e.Sys.Used(0) != v.PageSize {
		t.Fatal("MovePage accounting wrong")
	}
	// Move to same node is a no-op success.
	if !e.MovePage(v, 0, 0) {
		t.Fatal("self-move failed")
	}
	mustAudit(t, e)
}

func TestIntervalLoopAccounting(t *testing.T) {
	e := newTestEngine()
	sol := &fixedSolution{node: 0, prof: time.Millisecond, mig: 2 * time.Millisecond}
	w := &fixedWorkload{perInt: 100, intervals: 3}
	res, err := Run(e, w, sol, 10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Completed || res.Intervals != 3 {
		t.Fatalf("intervals = %d completed=%v", res.Intervals, res.Completed)
	}
	if res.Profiling != 3*time.Millisecond {
		t.Fatalf("profiling = %v", res.Profiling)
	}
	if res.Migration != 6*time.Millisecond {
		t.Fatalf("migration = %v", res.Migration)
	}
	if res.ExecTime != res.App+res.Profiling+res.Migration {
		t.Fatalf("exec %v != app %v + prof + mig", res.ExecTime, res.App)
	}
	if res.TotalAccesses != 300 {
		t.Fatalf("accesses = %d", res.TotalAccesses)
	}
	mustAudit(t, e)
}

func TestMaxIntervalsStopsRun(t *testing.T) {
	e := newTestEngine()
	w := &fixedWorkload{perInt: 1, intervals: 1 << 30}
	res, err := Run(e, w, &fixedSolution{node: 0}, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Truncated {
		t.Fatal("run stopped by maxIntervals must be flagged Truncated")
	}
	if res.Completed || res.Intervals != 5 {
		t.Fatalf("intervals=%d completed=%v", res.Intervals, res.Completed)
	}
}

func TestInterceptOverridesLatency(t *testing.T) {
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("v", 4*tier.MB)
	e.beginInterval()
	e.Access(v, 0, 1, 0, 0) // fault in
	base := e.AppTimeThisInterval()
	e.Intercept = func(v *vm.VMA, idx int, n, nw uint32, node tier.NodeID) time.Duration {
		return time.Duration(n) * time.Microsecond
	}
	e.Access(v, 0, 8, 0, 0)
	want := base + (8*time.Microsecond+8*PerAccessCPU)/8
	if got := e.AppTimeThisInterval(); got != want {
		t.Fatalf("intercepted app time = %v, want %v", got, want)
	}
}

func TestGroundTruthResetBetweenIntervals(t *testing.T) {
	e := newTestEngine()
	sol := &fixedSolution{node: 0}
	w := &fixedWorkload{perInt: 50, intervals: 2}
	e.SetSolution(sol)
	w.Init(e)
	e.RunInterval(w)
	if w.v.Count(0) != 0 {
		t.Fatal("counts not reset at interval end")
	}
}

func TestIntervalExhausted(t *testing.T) {
	e := newTestEngine()
	e.Interval = time.Microsecond
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("v", 4*tier.MB)
	e.beginInterval()
	if e.IntervalExhausted() {
		t.Fatal("exhausted before any work")
	}
	e.Access(v, 0, 1000, 0, 0)
	if !e.IntervalExhausted() {
		t.Fatal("not exhausted after heavy work")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		e := NewEngine(tier.OptaneTopology(256), 99)
		e.Interval = 10 * time.Millisecond
		res, err := Run(e, &fixedWorkload{perInt: 500, intervals: 4}, &fixedSolution{node: 2, prof: time.Millisecond}, 10)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.ExecTime != b.ExecTime || a.TotalAccesses != b.TotalAccesses {
		t.Fatalf("runs diverged: %v vs %v", a.ExecTime, b.ExecTime)
	}
}

func TestContentionInflatesLatency(t *testing.T) {
	e := newTestEngine()
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("v", 4*tier.MB)
	w := &fixedWorkload{perInt: 1, intervals: 4}
	w.v = v

	// Saturate node 0's bandwidth in interval 1; interval 2's accesses
	// must be charged more (one-interval lag).
	e.beginInterval()
	e.Access(v, 0, 1, 0, 0)
	e.endInterval()
	base := e.Contention(0)
	e.beginInterval()
	e.Sys.RecordTransfer(0, 400*tier.GB) // >> 95 GB/s * 10ms
	e.endInterval()
	if e.Contention(0) <= base {
		t.Fatalf("contention %v did not rise after saturation", e.Contention(0))
	}
	e.beginInterval()
	before := e.AppTimeThisInterval()
	e.Access(v, 0, 1000, 0, 0)
	inflated := e.AppTimeThisInterval() - before
	wantMin := time.Duration(1000) * (90*time.Nanosecond + PerAccessCPU) / 8
	if inflated <= wantMin {
		t.Fatalf("saturated access cost %v not above baseline %v", inflated, wantMin)
	}
}

func TestBackgroundTimeNotOnCriticalPath(t *testing.T) {
	e := newTestEngine()
	sol := &fixedSolution{node: 0}
	e.SetSolution(sol)
	w := &fixedWorkload{perInt: 10, intervals: 1}
	w.Init(e)
	e.beginInterval()
	w.RunInterval(e)
	e.ChargeBackground(time.Hour)
	e.endInterval()
	if e.clock >= time.Hour {
		t.Fatal("background work extended the virtual clock")
	}
	if e.TotalBg != time.Hour {
		t.Fatalf("background time lost: %v", e.TotalBg)
	}
}

// TestMetricsWritesLandInExport: a demand fault lands in the page-fault
// counter of the interval sample and of the export, and an emitted event
// lands in the event log.
func TestMetricsWritesLandInExport(t *testing.T) {
	e := newTestEngine()
	e.EnableMetrics()
	e.SetSolution(&fixedSolution{node: 0})
	v := e.AS.Alloc("v", 4*tier.MB)
	e.beginInterval()
	e.Access(v, 0, 1, 0, 0)
	e.Metrics().Emit(EventOOM, "test", 0)
	e.endInterval()
	e.beginInterval()
	e.Access(v, 1, 1, 0, 0)
	x := e.MetricsExport()
	if x == nil || len(x.Events) != 1 {
		t.Fatalf("export missing emitted event: %+v", x)
	}
	var faults float64 = -1
	for _, in := range x.Instruments {
		if in.Name == "mtm_sim_page_faults_total" {
			faults = in.Value
		}
	}
	if faults != 2 || e.TotalFaults != 2 {
		t.Fatalf("exported faults %v, engine %d; want 2", faults, e.TotalFaults)
	}
	col := -1
	for i, c := range x.Series.Columns {
		if c == "mtm_sim_page_faults_total" {
			col = i
		}
	}
	if len(x.Series.Samples) != 1 || col < 0 || x.Series.Samples[0].Values[col] != 1 {
		t.Fatalf("interval sample of page faults: columns %v samples %+v; want 1", x.Series.Columns, x.Series.Samples)
	}
}
