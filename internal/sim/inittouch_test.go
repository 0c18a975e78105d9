package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mtm/internal/pebs"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// batchInitTouch is what InitTouch means: one write to every page of
// vmas, in order, issued 64 refs to an AccessBatch, then ResetCounts.
func batchInitTouch(e *Engine, socket int, vmas ...*vm.VMA) {
	var buf [64]Ref
	for _, v := range vmas {
		for pg := 0; pg < v.NPages; pg += len(buf) {
			refs := buf[:min(len(buf), v.NPages-pg)]
			for i := range refs {
				refs[i] = Ref{V: v, Idx: pg + i, N: 1, NW: 1}
			}
			e.AccessBatch(refs, socket)
		}
	}
	e.AS.ResetCounts()
}

// initVMA is one VMA of an initCase: pages huge or 4 KB pages.
type initVMA struct {
	thp   bool
	pages int
}

// pageAt names page idx of an initCase's VMA vma.
type pageAt struct{ vma, idx int }

// initCase is a machine and what happened on it before a set-up: an
// earlier set-up, pages already present, poisoned or holding a valid
// shadow, capacity reserved away, an armed sampler or hooks.
type initCase struct {
	runs     bool        // runSolution from first; else spreadSolution, not a RunPlacer
	first    tier.NodeID // taken mod the node count
	socket   int         // taken mod the socket count
	vmas     []initVMA
	order    []int // the VMAs the set-up touches; nil: every VMA, in order
	earlier  []int // VMAs an earlier set-up touched
	present  []pageAt
	poisoned []pageAt // with health on, their first touch recovers them
	shadowed []pageAt // not present, with a valid shadow
	// free holds the bytes node i keeps free after the pages above are
	// placed; nil or a negative entry leaves the node as it is.
	free                       []int64
	health, pebs, observe, icp bool
}

// engine builds c on topo. Hook calls append to log.
func (c initCase) engine(topo *tier.Topology, log *[]string) (*Engine, []*vm.VMA) {
	e := NewEngine(topo, 1)
	e.Interval = 10 * time.Millisecond
	if c.runs {
		e.SetSolution(&runSolution{first: c.first % tier.NodeID(len(topo.Nodes))})
	} else {
		e.SetSolution(&spreadSolution{})
	}
	if c.health {
		e.EnableHealth()
	}
	var vs []*vm.VMA
	for i, s := range c.vmas {
		e.AS.THP = s.thp
		pageSize := int64(vm.BasePageSize)
		if s.thp {
			pageSize = vm.HugePageSize
		}
		vs = append(vs, e.AS.Alloc(fmt.Sprintf("v%d", i), int64(s.pages)*pageSize))
	}
	e.beginInterval()
	batchInitTouch(e, 0, pick(vs, c.earlier)...)
	at := func(p pageAt) (*vm.VMA, int) {
		v := vs[p.vma%len(vs)]
		return v, p.idx % v.NPages
	}
	for _, p := range c.present {
		v, i := at(p)
		e.Access(v, i, 1, 0, 0)
	}
	for _, p := range c.poisoned {
		if v, i := at(p); !v.Present(i) {
			v.Poison(i)
		}
	}
	for _, p := range c.shadowed {
		if v, i := at(p); !v.Present(i) {
			v.MarkShadowed(i, 1)
		}
	}
	for i, b := range c.free {
		if n := tier.NodeID(i); i < len(topo.Nodes) && b >= 0 && e.Sys.Free(n) > b {
			e.Sys.Reserve(n, e.Sys.Free(n)-b)
		}
	}
	if c.pebs {
		// Every access is watched, so a few hundred take samples and
		// fill the small buffer.
		e.PEBS = pebs.NewBuffer(len(topo.Nodes), 1)
		e.PEBS.WindowFrac = 1
		var all []tier.NodeID
		for n := range topo.Nodes {
			all = append(all, tier.NodeID(n))
		}
		e.PEBS.Arm(all...)
	}
	if c.observe {
		e.Observer = func(v *vm.VMA, idx int, n, nw uint32, socket int) {
			*log = append(*log, "observe "+v.Name+" "+accountingState(e, idx, n))
		}
	}
	if c.icp {
		e.Intercept = func(v *vm.VMA, idx int, n, nw uint32, node tier.NodeID) time.Duration {
			*log = append(*log, "intercept "+v.Name+" "+accountingState(e, idx, n))
			return time.Duration(1+idx%3) * 100 * time.Nanosecond
		}
	}
	return e, vs
}

// pick returns vs[i] for each i of idx, nil for none.
func pick(vs []*vm.VMA, idx []int) []*vm.VMA {
	var out []*vm.VMA
	for _, i := range idx {
		out = append(out, vs[i%len(vs)])
	}
	return out
}

// touched returns the VMAs c's set-up touches.
func (c initCase) touched(vs []*vm.VMA) []*vm.VMA {
	if c.order == nil {
		return vs
	}
	return pick(vs, c.order)
}

// checkInitTouch builds c twice on topo, runs InitTouch on one engine and
// batchInitTouch on the other, and requires the same engines after, each
// VMA's absent count agreeing with its present plane. It returns the
// InitTouch engine and its VMAs.
func checkInitTouch(t *testing.T, c initCase, topo *tier.Topology) (*Engine, []*vm.VMA) {
	t.Helper()
	var alog, blog []string
	a, avs := c.engine(topo, &alog)
	b, bvs := c.engine(topo, &blog)
	socket := c.socket % topo.Sockets
	if rs, ok := a.sol.(*runSolution); ok {
		rs.runs = 0
	}
	a.InitTouch(socket, c.touched(avs)...)
	batchInitTouch(b, socket, c.touched(bvs)...)

	if (a.failed == nil) != (b.failed == nil) || a.failed != nil && a.failed.Error() != b.failed.Error() {
		t.Fatalf("failure: InitTouch %v, batches %v", a.failed, b.failed)
	}
	if got, want := accountingState(a, 0, 0), accountingState(b, 0, 0); got != want {
		t.Fatalf("accounting:\nInitTouch %s\nbatches   %s", got, want)
	}
	if !reflect.DeepEqual(a.NodeAccesses, b.NodeAccesses) {
		t.Fatalf("node accesses: InitTouch %v, batches %v", a.NodeAccesses, b.NodeAccesses)
	}
	for i := range topo.Nodes {
		n := tier.NodeID(i)
		if a.Sys.Used(n) != b.Sys.Used(n) || a.Sys.Free(n) != b.Sys.Free(n) {
			t.Fatalf("node %d: InitTouch used %d free %d, batches used %d free %d",
				n, a.Sys.Used(n), a.Sys.Free(n), b.Sys.Used(n), b.Sys.Free(n))
		}
	}
	if a.RobustnessCounters != b.RobustnessCounters || a.HealthCounters != b.HealthCounters ||
		a.ShadowCounters != b.ShadowCounters {
		t.Fatalf("run counters: InitTouch %+v %+v %+v, batches %+v %+v %+v",
			a.RobustnessCounters, a.HealthCounters, a.ShadowCounters,
			b.RobustnessCounters, b.HealthCounters, b.ShadowCounters)
	}
	for k, av := range avs {
		bv := bvs[k]
		for _, v := range []*vm.VMA{av, bv} {
			if want := v.NPages - v.PresentCount(0, v.NPages); v.Absent() != want {
				t.Fatalf("%s: Absent() = %d, want %d", v.Name, v.Absent(), want)
			}
		}
		for i := 0; i < av.NPages; i++ {
			if av.Node(i) != bv.Node(i) || av.PTE(i) != bv.PTE(i) || av.LastSocket(i) != bv.LastSocket(i) ||
				av.Count(i) != bv.Count(i) || av.WriteCount(i) != bv.WriteCount(i) ||
				av.Touched(i) != bv.Touched(i) || av.ShadowValid(i) != bv.ShadowValid(i) {
				t.Fatalf("page %d of %s: InitTouch node %d pte %#x socket %d count %d/%d touched %v shadow %v, "+
					"batches node %d pte %#x socket %d count %d/%d touched %v shadow %v", i, av.Name,
					av.Node(i), av.PTE(i), av.LastSocket(i), av.Count(i), av.WriteCount(i), av.Touched(i), av.ShadowValid(i),
					bv.Node(i), bv.PTE(i), bv.LastSocket(i), bv.Count(i), bv.WriteCount(i), bv.Touched(i), bv.ShadowValid(i))
			}
		}
	}
	if a.PEBS != nil {
		as, bs := a.PEBS.Samples(), b.PEBS.Samples()
		if !reflect.DeepEqual(samplePages(as), samplePages(bs)) || a.PEBS.Interrupts() != b.PEBS.Interrupts() ||
			a.PEBS.Dropped() != b.PEBS.Dropped() || pebsCarry(a.PEBS) != pebsCarry(b.PEBS) {
			t.Fatalf("PEBS: InitTouch %d samples/%d interrupts/carry %#x, batches %d/%d/%#x",
				len(as), a.PEBS.Interrupts(), pebsCarry(a.PEBS), len(bs), b.PEBS.Interrupts(), pebsCarry(b.PEBS))
		}
	}
	if len(alog) != len(blog) {
		t.Fatalf("InitTouch made %d hook calls, batches %d", len(alog), len(blog))
	}
	for i := range alog {
		if alog[i] != blog[i] {
			t.Fatalf("hook call %d:\nInitTouch %s\nbatches   %s", i, alog[i], blog[i])
		}
	}
	return a, avs
}

// samplePages renders samples as (VMA name, page, node) triples.
func samplePages(ss []pebs.Sample) []string {
	var out []string
	for _, s := range ss {
		out = append(out, fmt.Sprintf("%s/%d@%d", s.VMA.Name, s.Page, s.Node))
	}
	return out
}

// nodeRuns counts the runs of consecutive pages on one node in vs, each
// VMA's runs apart.
func nodeRuns(vs []*vm.VMA) int {
	runs := 0
	for _, v := range vs {
		for i := 0; i < v.NPages; i++ {
			if i == 0 || v.Node(i) != v.Node(i-1) {
				runs++
			}
		}
	}
	return runs
}

// TestInitTouchMatchesBatches holds InitTouch to 64-ref AccessBatch calls
// plus ResetCounts on each test topology, page by page and in every
// count, in the cases that take its bulk arm and in those that leave it.
// Where the bulk arm places every page, it must ask PlaceRun once per run
// of pages on one node.
func TestInitTouchMatchesBatches(t *testing.T) {
	const kb4, mb2 = vm.BasePageSize, vm.HugePageSize
	three := []initVMA{{false, 300}, {true, 6}, {false, 100}}
	cases := []struct {
		name string
		c    initCase
		bulk bool // the bulk arm places every page
		// reached reports whether the case took the path it is named
		// for; nil for none.
		reached func(e *Engine) bool
	}{
		{"run-placer", initCase{runs: true, vmas: three}, true, nil},
		{"run-placer-last-node", initCase{runs: true, first: 3, vmas: three}, true, nil},
		{"socket-1", initCase{runs: true, socket: 1, vmas: three}, true, nil},
		{"not-run-placer", initCase{vmas: three}, false, nil},
		// Node 0 fills 100 pages into the first VMA, and the run goes
		// on on node 1.
		{"node-fills", initCase{runs: true, vmas: three, free: []int64{100 * kb4}}, true, nil},
		// v0's pages land on node 0 beside v1's from an earlier set-up,
		// which have no counts. No node then has room for a huge page,
		// so v2's first page demotes node 0's coldest pages, v1's, and
		// a later one runs out of memory.
		{"runs-out", initCase{runs: true, vmas: []initVMA{{false, 200}, {false, 200}, {true, 2}},
			order: []int{0, 2}, earlier: []int{1},
			free: []int64{200*kb4 + mb2/2, 3 * mb2 / 4, 3 * mb2 / 4, 3 * mb2 / 4}}, false,
			func(e *Engine) bool { return e.EmergencyDemotions > 0 && e.failed != nil }},
		{"runs-out-4k", initCase{runs: true, vmas: three, free: []int64{100 * kb4, 20 * kb4, 0, 0}}, false,
			func(e *Engine) bool { return e.failed != nil }},
		{"poisoned", initCase{runs: true, vmas: three, health: true, poisoned: []pageAt{{0, 37}}}, false,
			func(e *Engine) bool { return e.PoisonRecoveries == 1 }},
		{"poisoned-health-off", initCase{runs: true, vmas: three, poisoned: []pageAt{{0, 37}}}, false, nil},
		{"pebs-armed", initCase{runs: true, vmas: three, pebs: true}, false,
			func(e *Engine) bool { return len(e.PEBS.Samples()) > 0 && e.PEBS.Interrupts() > 0 }},
		{"observer", initCase{runs: true, vmas: three, observe: true}, false, nil},
		{"present", initCase{runs: true, vmas: three, present: []pageAt{{0, 150}, {0, 151}, {2, 0}}}, false, nil},
		{"shadowed", initCase{runs: true, vmas: three, shadowed: []pageAt{{0, 64}}}, false,
			func(e *Engine) bool { return e.ShadowInvalidations == 1 }},
		{"named-twice", initCase{runs: true, vmas: three, order: []int{0, 1, 0, 2}}, false, nil},
	}
	for _, tt := range testTopologies() {
		for _, cs := range cases {
			t.Run(tt.name+"/"+cs.name, func(t *testing.T) {
				e, vs := checkInitTouch(t, cs.c, tt.topo)
				if cs.reached != nil && !cs.reached(e) {
					t.Fatalf("the case missed its path: failed %v, %+v %+v %+v",
						e.failed, e.RobustnessCounters, e.HealthCounters, e.ShadowCounters)
				}
				if !cs.bulk {
					return
				}
				calls, runs := e.sol.(*runSolution).runs, nodeRuns(cs.c.touched(vs))
				if calls != runs {
					t.Fatalf("PlaceRun calls %d for %d node runs", calls, runs)
				}
			})
		}
	}
}

// FuzzInitTouchMatchesBatches decodes its bytes into an initCase and
// makes TestInitTouchMatchesBatches' comparison. Bits 0–1 of byte 0 pick
// the topology (mod 3), and its other bits runSolution (4), health (8), a
// sampler on every node (16), an Observer (32), an Intercept (64)
// and socket 1 (128); byte 1 is the placement order's first node. Byte 2
// masks the nodes whose free bytes are limited, to 16 KB times bytes
// 3–6. Byte 7 is the VMA count less one (mod 3), and each VMA takes two
// bytes: huge pages (bit 0 of the first), and a size of 1 + byte mod 8
// huge pages or 1 + 4·byte 4 KB pages. Every 3 bytes after them name a
// page to make present, poison or give a valid shadow, or (mod 4) a VMA
// an earlier set-up touched.
func FuzzInitTouchMatchesBatches(f *testing.F) {
	f.Add([]byte{0x04, 0, 0b0001, 40, 0, 0, 0, 2, 0, 60, 1, 3, 0, 20, 0, 0, 7, 3, 2, 0})
	f.Add([]byte{0x8d, 1, 0b1111, 50, 3, 2, 1, 1, 0, 30, 1, 2, 1, 0, 9, 3, 0, 0, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		flags := data[0]
		c := initCase{
			runs: flags&4 != 0, first: tier.NodeID(data[1]), socket: int(flags >> 7),
			health: flags&8 != 0, pebs: flags&16 != 0, observe: flags&32 != 0, icp: flags&64 != 0,
		}
		if data[2]&0xf != 0 {
			for i := range 4 {
				c.free = append(c.free, -1)
				if data[2]>>i&1 != 0 {
					c.free[i] = int64(data[3+i]) * 16 * tier.KB
				}
			}
		}
		rest := data[8:]
		for range int(data[7]%3) + 1 {
			if len(rest) < 2 {
				return
			}
			s := initVMA{thp: rest[0]&1 != 0, pages: 1 + int(rest[1])*4}
			if s.thp {
				s.pages = 1 + int(rest[1]%8)
			}
			c.vmas = append(c.vmas, s)
			rest = rest[2:]
		}
		for ; len(rest) >= 3; rest = rest[3:] {
			p := pageAt{int(rest[1]), int(rest[2])}
			switch rest[0] % 4 {
			case 0:
				c.present = append(c.present, p)
			case 1:
				c.poisoned = append(c.poisoned, p)
			case 2:
				c.shadowed = append(c.shadowed, p)
			default:
				c.earlier = append(c.earlier, p.vma)
			}
		}
		checkInitTouch(t, c, testTopologies()[flags&3%3].topo)
	})
}
