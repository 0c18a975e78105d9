package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"mtm/internal/pebs"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// loggingSolution places every page on one node and logs the engine's
// accounting each time the fault path consults it.
type loggingSolution struct {
	fixedSolution
	log *[]string
}

func (s *loggingSolution) Place(e *Engine, v *vm.VMA, idx, socket int) tier.NodeID {
	*s.log = append(*s.log, "place "+v.Name+" "+accountingState(e, idx, 0))
	return s.node
}

// accountingState renders what a hook can read of the engine's access
// accounting.
func accountingState(e *Engine, idx int, n uint32) string {
	return fmt.Sprintf("idx=%d n=%d app=%d span=%d total=%d node=%v faults=%d demand=%d/%d",
		idx, n, e.intApp, e.SpanClockNs(), e.TotalAccesses, e.intAccesses, e.TotalFaults,
		e.Sys.Demand(0), e.Sys.Demand(2))
}

// batchScript is the access sequence both engines run in one phase: a
// ref with n = 0, writes to a shadowed page, a non-present page, and a
// long tail heavy enough to take PEBS samples, fill the sampler's small
// buffer and leave a carry. Each phase's tail reaches pages no earlier
// phase touched, so every phase takes faults. Script pages map to vs as
// scriptRef says.
func batchScript(phase int, vs []*vm.VMA) []Ref {
	refs := []Ref{
		{Idx: 1, N: 5},
		{Idx: 3, N: 4, NW: 2},          // write to a valid shadow: invalidates it
		{Idx: 2, N: 0, NW: 0},          // does nothing
		{Idx: 40 + phase, N: 7, NW: 1}, // not present: faults, then is charged
		{Idx: 3, N: 1, NW: 1},          // the shadow is already stale
		{Idx: 63, N: 0},                // n = 0 on a non-present page: no fault
		{Idx: 40 + phase, N: 300},
	}
	x := uint64(7 + phase)
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n := uint32(x>>33) % 900
		refs = append(refs, Ref{Idx: int(x>>20) % (64 + 64*phase), N: n, NW: n / uint32(1+x%5)})
	}
	for i, r := range refs {
		refs[i] = scriptRef(vs, r.Idx, r.N, r.NW)
	}
	return refs
}

// scriptRef returns the ref to script page i: page i*stride of VMA
// vs[i mod len(vs)], where stride is that VMA's pages per script page
// (every VMA is 256 script pages long).
func scriptRef(vs []*vm.VMA, i int, n, nw uint32) Ref {
	v := vs[i%len(vs)]
	return Ref{V: v, Idx: i * (v.NPages / 256), N: n, NW: nw}
}

// batchVMA is one VMA of a batch shape, 256 script pages long: huge pages
// at one page per script page, or 4 KB pages at stride pages per script
// page.
type batchVMA struct {
	thp    bool
	stride int
}

// batchShapes are the VMAs the batch tests run on: huge pages, whose
// records stay cache-resident; 4 KB pages spread over a 2^17-page VMA,
// where the records miss cache; and both at once, Cassandra's shape, where
// refs alternate between the two VMAs, so faults, hooks and the failure
// land between refs of different VMAs.
var batchShapes = []struct {
	name string
	vmas []batchVMA
}{
	{"huge", []batchVMA{{true, 1}}},
	{"4k", []batchVMA{{false, 512}}},
	{"mixed", []batchVMA{{true, 1}, {false, 512}}},
}

// batchEngine builds an engine whose placement logs the accounting it
// sees, with the shape's VMAs, a PEBS sampler watching the node pages
// land on and a shadowed page.
func batchEngine(log *[]string, shape []batchVMA) (*Engine, []*vm.VMA) {
	e := NewEngine(tier.OptaneTopology(256), 1)
	e.Interval = 10 * time.Millisecond
	e.EnableShadow()
	e.SetSolution(&loggingSolution{fixedSolution: fixedSolution{node: 2}, log: log})
	var vs []*vm.VMA
	for i, b := range shape {
		e.AS.THP = b.thp
		pageSize := int64(vm.BasePageSize)
		if b.thp {
			pageSize = vm.HugePageSize
		}
		vs = append(vs, e.AS.Alloc(fmt.Sprintf("v%d", i), int64(256*b.stride)*pageSize))
	}
	e.beginInterval()
	for i := 0; i < 32; i++ {
		r := scriptRef(vs, i, 1, 0)
		e.Access(r.V, r.Idx, r.N, r.NW, 0)
	}
	sh := scriptRef(vs, 3, 0, 0)
	sh.V.MarkShadowed(sh.Idx, 1)
	e.PEBS = pebs.NewBuffer(len(e.Sys.Topo.Nodes), 8)
	e.PEBS.Arm(2)
	return e, vs
}

// leaveRoom reserves every node's free capacity except room bytes on the
// node batchEngine's solution places on, so later faults run out of
// memory.
func leaveRoom(e *Engine, room int64) {
	for i := range e.Sys.Topo.Nodes {
		n := tier.NodeID(i)
		free := e.Sys.Free(n)
		if n == 2 {
			free -= room
		}
		e.Sys.Reserve(n, free)
	}
}

// TestAccessBatchEqualsSequentialAccess runs a script as a batch on one
// engine and as one Access per ref on another, in four phases: with the
// fault path as the only hook, then with an Observer, then with an
// Intercept as well, and last with room for three more pages of the first
// VMA, so a fault mid-batch runs out of memory. It requires the same
// accounting, the same PEBS state and the same hook calls, each seeing the
// same engine state, and a failed engine's batch to do nothing. It runs on
// each batch shape.
func TestAccessBatchEqualsSequentialAccess(t *testing.T) {
	for _, shape := range batchShapes {
		t.Run(shape.name, func(t *testing.T) {
			var batchLog, seqLog []string
			be, bvs := batchEngine(&batchLog, shape.vmas)
			se, svs := batchEngine(&seqLog, shape.vmas)
			engines := []struct {
				e   *Engine
				log *[]string
			}{{be, &batchLog}, {se, &seqLog}}
			for phase := 0; phase < 4; phase++ {
				for _, x := range engines {
					e, log := x.e, x.log
					switch phase {
					case 1:
						e.Observer = func(v *vm.VMA, idx int, n, nw uint32, socket int) {
							*log = append(*log, "observe "+v.Name+" "+accountingState(e, idx, n))
						}
					case 2:
						e.Intercept = func(v *vm.VMA, idx int, n, nw uint32, node tier.NodeID) time.Duration {
							*log = append(*log, "intercept "+v.Name+" "+accountingState(e, idx, n))
							return time.Duration(n) * time.Duration(1+idx%3) * 100 * time.Nanosecond
						}
					case 3:
						leaveRoom(e, 3*bvs[0].PageSize)
					}
				}
				before := len(batchLog)
				be.AccessBatch(batchScript(phase, bvs), 0)
				for _, r := range batchScript(phase, svs) {
					se.Access(r.V, r.Idx, r.N, r.NW, 0)
				}
				if len(batchLog) == before {
					t.Fatalf("phase %d called no hook", phase)
				}
			}

			if be.failed == nil || se.failed == nil {
				t.Fatalf("no OOM: batch %v, sequential %v", be.failed, se.failed)
			}
			if be.failed.Error() != se.failed.Error() {
				t.Fatalf("failure: batch %v, sequential %v", be.failed, se.failed)
			}
			before, calls := accountingState(be, 0, 0), len(batchLog)
			be.AccessBatch(batchScript(3, bvs), 0)
			if after := accountingState(be, 0, 0); after != before || len(batchLog) != calls {
				t.Fatalf("a failed engine's batch made %d hook calls and changed accounting:\n%s\n%s",
					len(batchLog)-calls, before, after)
			}

			if len(batchLog) != len(seqLog) {
				t.Fatalf("batch made %d hook calls, sequential %d", len(batchLog), len(seqLog))
			}
			for i := range seqLog {
				if batchLog[i] != seqLog[i] {
					t.Fatalf("hook call %d:\nbatch      %s\nsequential %s", i, batchLog[i], seqLog[i])
				}
			}
			if got, want := accountingState(be, 0, 0), accountingState(se, 0, 0); got != want {
				t.Fatalf("accounting:\nbatch      %s\nsequential %s", got, want)
			}
			if be.ShadowInvalidations != 1 || se.ShadowInvalidations != 1 {
				t.Fatalf("shadow invalidations: batch %d, sequential %d, want 1", be.ShadowInvalidations, se.ShadowInvalidations)
			}
			if !reflect.DeepEqual(be.NodeAccesses, se.NodeAccesses) {
				t.Fatalf("node accesses: batch %v, sequential %v", be.NodeAccesses, se.NodeAccesses)
			}
			for k, bv := range bvs {
				sv := svs[k]
				for i := 0; i < bv.NPages; i++ {
					if bv.Count(i) != sv.Count(i) || bv.WriteCount(i) != sv.WriteCount(i) || bv.Node(i) != sv.Node(i) {
						t.Fatalf("page %d of %s differs", i, bv.Name)
					}
				}
			}
			bs, ss := be.PEBS.Samples(), se.PEBS.Samples()
			if len(bs) == 0 || be.PEBS.Interrupts() == 0 {
				t.Fatalf("script took %d samples, %d interrupts; it must exercise the sampler", len(bs), be.PEBS.Interrupts())
			}
			if len(bs) != len(ss) || be.PEBS.Interrupts() != se.PEBS.Interrupts() || be.PEBS.Dropped() != se.PEBS.Dropped() {
				t.Fatalf("PEBS: batch %d samples/%d interrupts, sequential %d/%d",
					len(bs), be.PEBS.Interrupts(), len(ss), se.PEBS.Interrupts())
			}
			for i := range bs {
				if bs[i].VMA.Name != ss[i].VMA.Name || bs[i].Page != ss[i].Page || bs[i].Node != ss[i].Node {
					t.Fatalf("sample %d: batch %+v, sequential %+v", i, bs[i], ss[i])
				}
			}
			if b, s := pebsCarry(be.PEBS), pebsCarry(se.PEBS); b != s {
				t.Fatalf("PEBS carry bits: batch %#x, sequential %#x", b, s)
			}
		})
	}
}

// pebsCarry reads the sampler's fractional carry, which has no accessor.
func pebsCarry(b *pebs.Buffer) uint64 {
	return math.Float64bits(reflect.ValueOf(b).Elem().FieldByName("carry").Float())
}

// TestAccessBatchStopsAtOOM fills the machine from one batch: the ref
// that cannot be placed fails the engine, the rest of the batch does
// nothing, and the totals equal one Access per ref.
func TestAccessBatchStopsAtOOM(t *testing.T) {
	build := func() (*Engine, *vm.VMA) {
		e := newTestEngine()
		e.SetSolution(&fixedSolution{node: 0})
		// 8 GB of huge pages against the 6.7 GB machine of scale 256.
		v := e.AS.Alloc("v", 8*tier.GB)
		e.beginInterval()
		return e, v
	}
	be, bv := build()
	se, sv := build()
	refs := make([]Ref, bv.NPages)
	for i := range refs {
		refs[i] = Ref{V: bv, Idx: i, N: 2, NW: uint32(i & 1)}
	}
	// Pages placed before the failure: a batch that kept going after it
	// would charge these.
	refs = append(refs, refs[:4]...)
	be.AccessBatch(refs, 0)
	for _, r := range refs {
		se.Access(sv, r.Idx, r.N, r.NW, 0)
	}
	if be.failed == nil || se.failed == nil {
		t.Fatalf("no OOM: batch %v, sequential %v", be.failed, se.failed)
	}
	if be.failed.Error() != se.failed.Error() {
		t.Fatalf("failure: batch %v, sequential %v", be.failed, se.failed)
	}
	if got, want := accountingState(be, 0, 0), accountingState(se, 0, 0); got != want {
		t.Fatalf("accounting:\nbatch      %s\nsequential %s", got, want)
	}
	if be.TotalAccesses >= int64(2*bv.NPages) {
		t.Fatalf("batch charged all %d pages past the failure", bv.NPages)
	}
	before := accountingState(be, 0, 0)
	be.AccessBatch(refs[:4], 0)
	if after := accountingState(be, 0, 0); after != before {
		t.Fatalf("a failed engine's batch changed accounting:\n%s\n%s", before, after)
	}
}
