package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mtm/internal/admission"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// The engine keeps shadows and cool-down stamps beside each page (the VMA
// planes, the page record and the lazily allocated side chunks) plus one
// retention FIFO per node. The two reference models below are the
// page-keyed tables that state replaced: tier.ShadowTable and
// admission.Controller's cool-down map with its expiry queue. The tests
// drive the engine and the models with the same operations and require
// identical reclaim order, node-drop order and cool-down verdicts.

// refShadowTable is tier.ShadowTable's semantics: entries keyed by page
// address, each holding a ledger reservation, with per-node FIFOs of
// (key, seq) records skipped lazily once stale.
type refShadowTable struct {
	sys     *tier.System
	entries map[uint64]refShadowEntry
	fifo    [][]refFIFOEntry
	heads   []int
	seq     uint64
}

type refShadowEntry struct {
	node  tier.NodeID
	bytes int64
	seq   uint64
}

type refFIFOEntry struct {
	key uint64
	seq uint64
}

func newRefShadowTable(sys *tier.System) *refShadowTable {
	return &refShadowTable{
		sys:     sys,
		entries: make(map[uint64]refShadowEntry),
		fifo:    make([][]refFIFOEntry, len(sys.Topo.Nodes)),
		heads:   make([]int, len(sys.Topo.Nodes)),
	}
}

// Put drops any shadow of key, then retains b bytes on n; false when the
// reservation does not fit.
func (t *refShadowTable) Put(key uint64, n tier.NodeID, b int64) bool {
	if _, ok := t.entries[key]; ok {
		t.Drop(key)
	}
	if !t.sys.ReserveShadow(n, b) {
		return false
	}
	t.seq++
	t.entries[key] = refShadowEntry{node: n, bytes: b, seq: t.seq}
	t.fifo[n] = append(t.fifo[n], refFIFOEntry{key: key, seq: t.seq})
	return true
}

func (t *refShadowTable) Get(key uint64) (tier.NodeID, int64, bool) {
	e, ok := t.entries[key]
	if !ok {
		return tier.Invalid, 0, false
	}
	return e.node, e.bytes, true
}

func (t *refShadowTable) Drop(key uint64) (tier.NodeID, int64, bool) {
	e, ok := t.entries[key]
	if !ok {
		return tier.Invalid, 0, false
	}
	delete(t.entries, key)
	t.sys.ReleaseShadow(e.node, e.bytes)
	return e.node, e.bytes, true
}

func (t *refShadowTable) live(r refFIFOEntry) bool {
	e, ok := t.entries[r.key]
	return ok && e.seq == r.seq
}

func (t *refShadowTable) OldestOn(n tier.NodeID) (uint64, bool) {
	for h := t.heads[n]; h < len(t.fifo[n]); h++ {
		if r := t.fifo[n][h]; t.live(r) {
			t.heads[n] = h
			return r.key, true
		}
	}
	t.fifo[n], t.heads[n] = t.fifo[n][:0], 0
	return 0, false
}

func (t *refShadowTable) KeysOn(n tier.NodeID) []uint64 {
	var keys []uint64
	for _, r := range t.fifo[n][t.heads[n]:] {
		if t.live(r) {
			keys = append(keys, r.key)
		}
	}
	return keys
}

// refCooldown is the map-based cool-down: one entry per page address,
// deleted lazily by PageAllowed and eagerly by Prune from a queue of
// stamps in commit order.
type refCooldown struct {
	window int64
	cool   map[uint64]refStamp
	q      []refQueued
	head   int
}

type refStamp struct {
	untilNs int64
	dir     admission.Direction
}

type refQueued struct {
	key     uint64
	untilNs int64
}

func newRefCooldown(window time.Duration) *refCooldown {
	return &refCooldown{window: int64(window), cool: make(map[uint64]refStamp)}
}

func (c *refCooldown) PageAllowed(key uint64, dir admission.Direction, nowNs int64) bool {
	s, ok := c.cool[key]
	if !ok {
		return true
	}
	if nowNs >= s.untilNs {
		delete(c.cool, key)
		return true
	}
	return s.dir == dir
}

func (c *refCooldown) NotePageMove(key uint64, dir admission.Direction, nowNs int64) {
	until := nowNs + c.window
	c.cool[key] = refStamp{untilNs: until, dir: dir}
	c.q = append(c.q, refQueued{key: key, untilNs: until})
}

// Prune deletes the stamps expired at nowNs; a page re-stamped since its
// queued record keeps its newer stamp.
func (c *refCooldown) Prune(nowNs int64) int {
	removed := 0
	for c.head < len(c.q) && c.q[c.head].untilNs <= nowNs {
		r := c.q[c.head]
		c.head++
		if s, ok := c.cool[r.key]; ok && s.untilNs == r.untilNs {
			delete(c.cool, r.key)
			removed++
		}
	}
	return removed
}

// sideStateEngine builds a three-tier engine (DRAM, CXL0, CXL1) with
// shadows and admission attached and cool-down window cool, which is two
// intervals. Every capacity exceeds twice the VMAs' pages, so only
// explicit reclaims drop shadows.
func sideStateEngine(cool time.Duration) *Engine {
	e := NewEngine(tier.CXLTopology(1<<14), 1)
	e.Interval = cool / 2
	e.AS.THP = false
	e.EnableShadow()
	e.EnableAdmission(false, false)
	e.SetSolution(&fixedSolution{node: 2})
	e.beginInterval()
	return e
}

// attributedMove moves page idx of v to dst and attributes it, as a
// policy does.
func attributedMove(t *testing.T, e *Engine, v *vm.VMA, idx int, dst tier.NodeID) {
	t.Helper()
	src := v.Node(idx)
	if !e.MovePage(v, idx, dst) {
		t.Fatalf("MovePage(%s/%d, %d) failed", v.Name, idx, dst)
	}
	if moveDir(e, src, dst) == admission.DirPromote {
		e.NotePromotion(v.PageSize)
	} else {
		e.NoteDemotion(v.PageSize)
	}
}

// moveDir is the admission direction of a src→dst move; a page with no
// frame yet has no pair, and its first placement counts as a demotion.
func moveDir(e *Engine, src, dst tier.NodeID) admission.Direction {
	if p := e.pair(src, dst); p != nil {
		return p.dir()
	}
	return admission.DirDemote
}

// liveShadowsOn lists node n's live retention records, oldest first.
func liveShadowsOn(e *Engine, n tier.NodeID) []string {
	var out []string
	e.shd.each(n, func(r shadowRec) { out = append(out, pageName(r.v, int(r.idx))) })
	return out
}

func pageName(v *vm.VMA, idx int) string { return fmt.Sprintf("%s/%d", v.Name, idx) }

// TestSideStateMatchesMapModel drives the engine and the two reference
// models with seeded random sequences of promotions and demotions,
// flips, writes, syncs, page drops, oldest-first reclaims, node-wide
// drops and cool-down checks, with virtual time advancing both inside
// and across cool-down windows, and compares reclaim order, node-drop
// order, every page's shadow, the ledgers and every verdict.
func TestSideStateMatchesMapModel(t *testing.T) {
	const cool = 20 * time.Millisecond
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			e := sideStateEngine(cool)
			// Two VMAs of three words each: the side state is per VMA and
			// the models key by address, so pages of both must stay apart.
			vmas := []*vm.VMA{e.AS.Alloc("a", 192*vm.BasePageSize), e.AS.Alloc("b", 192*vm.BasePageSize)}
			for _, v := range vmas {
				for i := 0; i < v.NPages; i++ {
					e.Access(v, i, 1, 0, 0)
				}
			}
			ref := newRefShadowTable(tier.NewSystem(tier.CXLTopology(1)))
			refCool := newRefCooldown(cool)
			page := func(key uint64) string {
				v, idx := e.AS.Lookup(key)
				return pageName(v, idx)
			}
			rng := rand.New(rand.NewSource(seed))
			var flips, suppressed, reclaims, nodeDrops int
			for step := 0; step < 4000; step++ {
				v := vmas[rng.Intn(len(vmas))]
				// Half the steps hit a hot set spanning a word boundary.
				idx := rng.Intn(v.NPages)
				if rng.Intn(2) == 0 {
					idx = 60 + rng.Intn(8)
				}
				key := v.Addr(idx)
				now := e.SpanClockNs()
				var op string
				switch k := rng.Intn(100); {
				case k < 30:
					src := v.Node(idx)
					dst := tier.NodeID(rng.Intn(3))
					if dst == src {
						continue
					}
					op = fmt.Sprintf("move %s %d->%d", pageName(v, idx), src, dst)
					attributedMove(t, e, v, idx, dst)
					ref.Drop(key)
					dir := moveDir(e, src, dst)
					if dir == admission.DirPromote {
						ref.Put(key, src, v.PageSize)
					}
					refCool.NotePageMove(key, dir, now)
				case k < 42:
					op = fmt.Sprintf("flip %s", pageName(v, idx))
					src := v.Node(idx)
					want, wantOK := tier.Invalid, false
					if v.Present(idx) && v.ShadowValid(idx) {
						n, _, ok := ref.Get(key)
						if !ok {
							t.Fatalf("step %d %s: valid shadow the model does not hold", step, op)
						}
						switch {
						case e.Sys.Topo.Rank(0, n) <= e.Sys.Topo.Rank(0, src):
							ref.Drop(key)
						case !refCool.PageAllowed(key, admission.DirDemote, now):
						default:
							ref.Drop(key)
							refCool.NotePageMove(key, admission.DirDemote, now)
							want, wantOK = n, true
						}
					}
					got, ok := e.FlipDemote(v, idx)
					if got != want || ok != wantOK {
						t.Fatalf("step %d %s: FlipDemote = (%d, %v), model (%d, %v)", step, op, got, ok, want, wantOK)
					}
					if ok {
						flips++
					}
				case k < 52:
					op = fmt.Sprintf("write %s", pageName(v, idx))
					if v.Present(idx) {
						e.Access(v, idx, 1, 1, 0)
					}
				case k < 56:
					op = "sync"
					if rng.Intn(2) == 0 {
						e.ShadowSync(int64(rng.Intn(8)) * v.PageSize)
					} else {
						e.ShadowSyncRange(v, idx, min(v.NPages, idx+70), int64(rng.Intn(8))*v.PageSize)
					}
				case k < 62:
					op = fmt.Sprintf("drop %s", pageName(v, idx))
					e.dropShadow(v, idx)
					ref.Drop(key)
				case k < 68:
					n := tier.NodeID(1 + rng.Intn(2))
					op = fmt.Sprintf("reclaim one on %d", n)
					r, ok := e.oldestShadowOn(n)
					rk, rok := ref.OldestOn(n)
					if ok != rok || (ok && pageName(r.v, int(r.idx)) != page(rk)) {
						t.Fatalf("step %d %s: oldest = %v/%v, model %v/%v", step, op, r.idx, ok, page(rk), rok)
					}
					if ok {
						e.dropShadow(r.v, int(r.idx))
						ref.Drop(rk)
						reclaims++
					}
				case k < 71:
					n := tier.NodeID(1 + rng.Intn(2))
					need := e.Sys.Free(n) + int64(1+rng.Intn(6))*v.PageSize
					op = fmt.Sprintf("make room for %d on %d", need, n)
					freed, wantOK := e.Sys.Free(n), true
					for freed < need {
						rk, ok := ref.OldestOn(n)
						if !ok {
							wantOK = false
							break
						}
						ref.Drop(rk)
						freed += v.PageSize
					}
					if ok := e.shadowMakeRoom(n, need); ok != wantOK {
						t.Fatalf("step %d %s: shadowMakeRoom = %v, model %v", step, op, ok, wantOK)
					}
				case k < 73:
					n := tier.NodeID(1 + rng.Intn(2))
					op = fmt.Sprintf("drop node %d", n)
					var want []string
					for _, rk := range ref.KeysOn(n) {
						want = append(want, page(rk))
						ref.Drop(rk)
					}
					if got := liveShadowsOn(e, n); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d %s: engine order %v, model KeysOn %v", step, op, got, want)
					}
					e.shadowDropNode(n)
					nodeDrops++
				case k < 88:
					dst := tier.NodeID(rng.Intn(3))
					src := v.Node(idx)
					op = fmt.Sprintf("check %s %d->%d at %d", pageName(v, idx), src, dst, now)
					if !v.Present(idx) || src == dst {
						continue
					}
					want := refCool.PageAllowed(key, moveDir(e, src, dst), now)
					if got := e.PageMoveAllowed(v, idx, dst); got != want {
						t.Fatalf("step %d %s: PageMoveAllowed = %v, model %v", step, op, got, want)
					}
					if !want {
						suppressed++
					}
				default:
					// Advance virtual time: mostly within a window, sometimes
					// across one. The model prunes at interval starts, as the
					// engine used to.
					d := time.Duration(rng.Int63n(int64(cool) / 4))
					if rng.Intn(4) == 0 {
						d = time.Duration(rng.Int63n(2 * int64(cool)))
					}
					op = fmt.Sprintf("advance %v", d)
					e.ChargeMigration(d)
					if rng.Intn(3) == 0 {
						refCool.Prune(e.SpanClockNs())
					}
				}

				for _, v := range vmas {
					for i := 0; i < v.NPages; i++ {
						n, _, ok := ref.Get(v.Addr(i))
						if v.Shadowed(i) != ok || v.ShadowNode(i) != n {
							t.Fatalf("step %d %s: page %s shadow (%v, %d), model (%v, %d)",
								step, op, pageName(v, i), v.Shadowed(i), v.ShadowNode(i), ok, n)
						}
					}
				}
				for n := tier.NodeID(0); n < 3; n++ {
					if got, want := e.Sys.ShadowBytes(n), ref.sys.ShadowBytes(n); got != want {
						t.Fatalf("step %d %s: node %d shadow bytes %d, model %d", step, op, n, got, want)
					}
				}
				if step%250 == 0 {
					mustAudit(t, e)
				}
			}
			mustAudit(t, e)
			if flips == 0 || suppressed == 0 || reclaims == 0 || nodeDrops == 0 || e.ShadowSyncBytes == 0 {
				t.Fatalf("sequence missed a path: flips=%d suppressed=%d reclaims=%d nodeDrops=%d synced=%d",
					flips, suppressed, reclaims, nodeDrops, e.ShadowSyncBytes)
			}
		})
	}
}

// TestShadowRetainGetDrop is tier.ShadowTable's Put/Get/Drop contract on
// the per-page index: retention reserves the ledger, a new retention of
// the same page replaces the old one (releasing its frame), and a
// dropped shadow cannot be dropped twice.
func TestShadowRetainGetDrop(t *testing.T) {
	e := sideStateEngine(time.Millisecond)
	v := e.AS.Alloc("v", 4*vm.BasePageSize)
	e.Access(v, 0, 1, 0, 0)
	attributedMove(t, e, v, 0, 1)
	if !v.Shadowed(0) || v.ShadowNode(0) != 2 {
		t.Fatalf("shadow = (%v, %d), want (true, 2)", v.Shadowed(0), v.ShadowNode(0))
	}
	if e.Sys.ShadowBytes(2) != v.PageSize {
		t.Fatalf("ledger = %d after retention", e.Sys.ShadowBytes(2))
	}
	// Promoting again retains the CXL0 frame and releases the CXL1 one.
	attributedMove(t, e, v, 0, 0)
	if e.Sys.ShadowBytes(2) != 0 || e.Sys.ShadowBytes(1) != v.PageSize {
		t.Fatalf("ledger after re-retention: n1=%d n2=%d", e.Sys.ShadowBytes(1), e.Sys.ShadowBytes(2))
	}
	if e.ShadowCount() != 1 || v.ShadowNode(0) != 1 {
		t.Fatalf("count = %d on node %d, want 1 on node 1", e.ShadowCount(), v.ShadowNode(0))
	}
	if got := liveShadowsOn(e, 2); len(got) != 0 {
		t.Fatalf("replaced retention still live on node 2: %v", got)
	}
	if !e.dropShadow(v, 0) {
		t.Fatal("drop failed")
	}
	if e.Sys.ShadowBytes(1) != 0 || e.ShadowCount() != 0 {
		t.Fatal("drop did not release the ledger/shadow")
	}
	if e.dropShadow(v, 0) {
		t.Fatal("double drop succeeded")
	}
	mustAudit(t, e)
}

// TestShadowRetentionFromOfflineNode: a promotion whose source can no
// longer hold frames retains nothing and leaves no residue (the old
// table's failed Put).
func TestShadowRetentionFromOfflineNode(t *testing.T) {
	e := sideStateEngine(time.Millisecond)
	v := e.AS.Alloc("v", 4*vm.BasePageSize)
	e.Access(v, 0, 1, 0, 0)
	src := v.Node(0)
	if !e.reserveMove(v, 0) {
		t.Fatal("reserveMove failed")
	}
	e.Sys.SetAllocatable(2, false)
	e.commitMove(v, 0, src, 0, false)
	e.NotePromotion(v.PageSize)
	if e.ShadowCount() != 0 || e.Sys.ShadowBytes(2) != 0 || v.ShadowSeq(0) != 0 {
		t.Fatalf("failed retention left residue: count=%d bytes=%d seq=%d",
			e.ShadowCount(), e.Sys.ShadowBytes(2), v.ShadowSeq(0))
	}
	mustAudit(t, e)
}

// TestShadowFIFOSkipsStaleRecords: dropped and re-retained pages must not
// resurface out of order or twice in the oldest-first reclaim order.
func TestShadowFIFOSkipsStaleRecords(t *testing.T) {
	e := sideStateEngine(time.Millisecond)
	v := e.AS.Alloc("v", 8*vm.BasePageSize)
	for i := 0; i < 4; i++ {
		e.Access(v, i, 1, 0, 0)
		attributedMove(t, e, v, i, 0)
	}
	oldest := func() int {
		r, ok := e.oldestShadowOn(2)
		if !ok {
			return -1
		}
		return int(r.idx)
	}
	if got := oldest(); got != 0 {
		t.Fatalf("oldest = %d, want 0", got)
	}
	e.dropShadow(v, 0)
	e.dropShadow(v, 2)
	if got := oldest(); got != 1 {
		t.Fatalf("oldest after drops = %d, want 1", got)
	}
	// Re-retaining page 1 (demote by copy, promote again) re-stamps it:
	// the queue's old record is stale and the page now ranks youngest.
	attributedMove(t, e, v, 1, 2)
	attributedMove(t, e, v, 1, 0)
	if got := oldest(); got != 3 {
		t.Fatalf("oldest after re-retention = %d, want 3", got)
	}
	e.dropShadow(v, 3)
	if got := oldest(); got != 1 {
		t.Fatalf("oldest after dropping 3 = %d, want 1", got)
	}
	e.dropShadow(v, 1)
	if got := oldest(); got != -1 {
		t.Fatalf("oldest on an empty node = %d", got)
	}
	if got := liveShadowsOn(e, 2); len(got) != 0 {
		t.Fatalf("live on drained node = %v", got)
	}
	mustAudit(t, e)
}

// TestShadowPerNodeBytes: the ledger per node follows the shadow node in
// each page record, and each node lists its shadows in retention order.
func TestShadowPerNodeBytes(t *testing.T) {
	e := sideStateEngine(time.Millisecond)
	v := e.AS.Alloc("v", 8*vm.BasePageSize)
	for i := 1; i <= 3; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	attributedMove(t, e, v, 1, 1) // shadow on 2
	attributedMove(t, e, v, 1, 0) // re-retained: shadow on 1
	attributedMove(t, e, v, 2, 0) // shadow on 2
	attributedMove(t, e, v, 3, 1) // shadow on 2
	if e.Sys.ShadowBytes(1) != v.PageSize || e.Sys.ShadowBytes(2) != 2*v.PageSize {
		t.Fatalf("per-node = %d/%d", e.Sys.ShadowBytes(1), e.Sys.ShadowBytes(2))
	}
	if got := fmt.Sprint(liveShadowsOn(e, 2)); got != "[v/2 v/3]" {
		t.Fatalf("shadows on 2 = %s", got)
	}
	mustAudit(t, e)
}

// TestCooldownRestampKeepsNewestWindow: a page whose cool-down was
// re-stamped by a later move in the same direction is judged by the
// newer window, never by the first stamp's expiry.
func TestCooldownRestampKeepsNewestWindow(t *testing.T) {
	e := sideStateEngine(time.Second)
	v := e.AS.Alloc("v", 4*vm.BasePageSize)
	e.SetSolution(&fixedSolution{node: 0})
	e.Access(v, 0, 1, 0, 0)
	start := e.SpanClockNs()
	attributedMove(t, e, v, 0, 1) // demote at start: window to start+1s
	e.ChargeMigration(500 * time.Millisecond)
	if !e.PageMoveAllowed(v, 0, 2) {
		t.Fatal("same-direction move blocked during cool-down")
	}
	attributedMove(t, e, v, 0, 2) // re-stamp at start+0.5s: window to start+1.5s
	e.ChargeMigration(700 * time.Millisecond)
	if e.SpanClockNs()-start != int64(1200*time.Millisecond) {
		t.Fatalf("clock advanced %d ns, want 1.2s", e.SpanClockNs()-start)
	}
	if e.PageMoveAllowed(v, 0, 0) {
		t.Fatal("re-stamped page lost its cool-down to the first stamp's expiry")
	}
	e.ChargeMigration(300 * time.Millisecond)
	if !e.PageMoveAllowed(v, 0, 0) {
		t.Fatal("page still blocked after the re-stamp expired")
	}
}

// TestSideStateBoundedByMovedWords: per-page side state costs one chunk
// per 64-page word that ever held a moved or shadowed page, however many
// moves those pages make and however long the run, and nothing in a VMA
// no page of which moved. Expired stamps allow every move without being
// swept.
func TestSideStateBoundedByMovedWords(t *testing.T) {
	const cool = time.Second
	e := sideStateEngine(cool)
	idle := e.AS.Alloc("idle", 1024*vm.BasePageSize)
	v := e.AS.Alloc("v", 1024*vm.BasePageSize)
	e.Access(idle, 0, 1, 0, 0)
	for i := 0; i < v.NPages; i++ {
		e.Access(v, i, 1, 0, 0)
	}
	// 200 rounds of 64 moves, a cool-down window every 10 rounds, all of
	// them inside words 3, 7 and 8.
	words := []int{3, 7, 8}
	for round := 0; round < 200; round++ {
		for i := 0; i < 64; i++ {
			idx := words[i%len(words)]*vm.WordPages + (round+i)%vm.WordPages
			dst := tier.NodeID(0)
			if v.Node(idx) == 0 {
				dst = 2
			}
			attributedMove(t, e, v, idx, dst)
		}
		e.ChargeMigration(cool / 10)
	}
	if got := v.SideChunks(); got != len(words) {
		t.Fatalf("side chunks = %d, want %d (one per moved word)", got, len(words))
	}
	if got := idle.SideChunks(); got != 0 {
		t.Fatalf("idle VMA holds %d side chunks", got)
	}
	e.ChargeMigration(cool)
	for i := 0; i < v.NPages; i++ {
		for dst := tier.NodeID(0); dst < 3; dst++ {
			if v.Node(i) != dst && !e.PageMoveAllowed(v, i, dst) {
				t.Fatalf("page %d blocked toward %d after every window expired", i, dst)
			}
		}
	}
	mustAudit(t, e)

	// Without shadows or admission no chunk is ever allocated.
	plain := NewEngine(tier.CXLTopology(1<<14), 1)
	plain.AS.THP = false
	plain.SetSolution(&fixedSolution{node: 2})
	plain.beginInterval()
	u := plain.AS.Alloc("u", 256*vm.BasePageSize)
	for i := 0; i < u.NPages; i++ {
		plain.Access(u, i, 1, 0, 0)
		attributedMove(t, plain, u, i, 0)
	}
	if got := u.SideChunks(); got != 0 {
		t.Fatalf("engine without shadows or admission allocated %d side chunks", got)
	}
}
