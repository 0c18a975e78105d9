package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"mtm/internal/tier"
)

// TestPageRecordSize pins the packed page record at 12 bytes: TouchN's
// one-line-per-access property and the VMA's bytes per page rest on it.
func TestPageRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got > 12 {
		t.Fatalf("page record is %d bytes, want at most 12", got)
	}
}

// TestPlaceNodeRange: the record stores the node as an int8, so Place
// must refuse a node it cannot hold rather than truncate it, and must
// round-trip both ends of the range and NoNode.
func TestPlaceNodeRange(t *testing.T) {
	v := NewAddressSpace().Alloc("v", 4*BasePageSize)
	for _, n := range []tier.NodeID{0, 3, 127, -128, NoNode} {
		v.Place(1, n)
		if got := v.Node(1); got != n {
			t.Fatalf("Place(1, %d) then Node = %d", n, got)
		}
	}
	for _, n := range []tier.NodeID{128, -129, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Place(0, %d) did not panic", n)
				}
			}()
			v.Place(0, n)
		}()
	}
	if v.Present(0) || v.Node(0) != NoNode {
		t.Fatal("a refused Place changed the page")
	}
}

// modelPage is the naive per-page reference state the packed VMA is
// checked against.
type modelPage struct {
	node                    tier.NodeID
	present, dirty, touched bool
	poisoned                bool
	shadowed, shadowValid   bool
	shadowNode              tier.NodeID
	shadowSeq               uint32
	stamp                   int64
	count, writes           uint32
	socket                  int
}

func (m modelPage) shadowNodeOrNone() tier.NodeID {
	if !m.shadowed {
		return NoNode
	}
	return m.shadowNode
}

func (m modelPage) pte() PTE {
	var p PTE
	for _, b := range []struct {
		on  bool
		bit PTE
	}{{m.present, Present}, {m.dirty, Dirty}, {m.poisoned, Poisoned}} {
		if b.on {
			p |= b.bit
		}
	}
	return p
}

// TestVMAMatchesPerPageModel applies a seeded random sequence of every
// mutator to a 4 KB VMA and to a per-page model, and compares every page's
// observable state after each step. It also checks the invariant the
// sparse ResetCounts relies on: a page with a non-zero count or write
// count is touched.
func TestVMAMatchesPerPageModel(t *testing.T) {
	const nPages = 300 // five words, the last one partial
	v := NewAddressSpace().Alloc("v", nPages*BasePageSize)
	if v.PageSize != BasePageSize || v.NPages != nPages {
		t.Fatalf("VMA has %d pages of %d bytes", v.NPages, v.PageSize)
	}
	model := make([]modelPage, nPages)
	for i := range model {
		model[i].node = NoNode
	}
	var hookCalls, wantHookCalls []int
	hook := func(idx int) { hookCalls = append(hookCalls, idx) }
	nodes := []tier.NodeID{0, 1, 2, 3, 127, -128}
	var step int
	var op string
	// touch applies TouchN to the VMA and the model and checks its result.
	touch := func(idx int, n, nw uint32, socket int) {
		m := &model[idx]
		node, fault := v.TouchN(idx, n, nw, socket)
		if fault != !m.present {
			t.Fatalf("step %d %s: fault = %v, model present = %v", step, op, fault, m.present)
		}
		if fault {
			if node != NoNode {
				t.Fatalf("step %d %s: faulting touch returned node %d", step, op, node)
			}
			return
		}
		if node != m.node {
			t.Fatalf("step %d %s: node = %d, want %d", step, op, node, m.node)
		}
		m.touched = true
		if nw > 0 {
			m.dirty = true
			if m.shadowValid {
				m.shadowValid = false
				wantHookCalls = append(wantHookCalls, idx)
			}
		}
		m.count += n
		m.writes += nw
		m.socket = socket
	}

	rng := rand.New(rand.NewSource(15))
	for step = 0; step < 20000; step++ {
		// Half the steps hit a small hot set so operations collide.
		idx := rng.Intn(nPages)
		if rng.Intn(2) == 0 {
			idx = 62 + rng.Intn(6)
		}
		m := &model[idx]
		switch k := rng.Intn(100); {
		case k < 12:
			n := nodes[rng.Intn(len(nodes))]
			op = fmt.Sprintf("Place(%d, %d)", idx, n)
			v.Place(idx, n)
			m.node, m.present = n, true
		case k < 18:
			op = fmt.Sprintf("Unmap(%d)", idx)
			v.Unmap(idx)
			m.node, m.present = NoNode, false
		case k < 20:
			// First-touch a whole word, as initialisation does, so the
			// touched plane holds full words for ResetCounts.
			w := idx / WordPages
			op = fmt.Sprintf("place and write pages of word %d", w)
			for i := w * WordPages; i < min(nPages, (w+1)*WordPages); i++ {
				if !model[i].present {
					v.Place(i, 0)
					model[i].node, model[i].present = 0, true
				}
				touch(i, 1, 1, 0)
			}
		case k < 70:
			n := uint32(rng.Intn(4))
			if rng.Intn(8) == 0 {
				n = 0
			}
			nw := uint32(rng.Intn(int(n) + 1))
			socket := rng.Intn(4)
			op = fmt.Sprintf("TouchN(%d, %d, %d, %d)", idx, n, nw, socket)
			touch(idx, n, nw, socket)
		case k < 74:
			op = fmt.Sprintf("Poison(%d)", idx)
			v.Poison(idx)
			seq := m.shadowSeq
			if m.shadowed {
				seq++
			}
			*m = modelPage{node: NoNode, poisoned: true, socket: m.socket, shadowSeq: seq, stamp: m.stamp}
		case k < 78:
			op = fmt.Sprintf("ClearPoison(%d)", idx)
			v.ClearPoison(idx)
			m.poisoned = false
		case k < 93:
			n := nodes[rng.Intn(len(nodes))]
			op = fmt.Sprintf("MarkShadowed(%d, %d)", idx, n)
			m.shadowSeq++
			if seq := v.MarkShadowed(idx, n, hook); seq != m.shadowSeq {
				t.Fatalf("step %d %s: returned seq %d, want %d", step, op, seq, m.shadowSeq)
			}
			m.shadowed, m.shadowValid, m.shadowNode = true, true, n
		case k < 95:
			op = fmt.Sprintf("ClearShadowed(%d)", idx)
			v.ClearShadowed(idx)
			if m.shadowed {
				m.shadowSeq++
			}
			m.shadowed, m.shadowValid = false, false
		case k < 96:
			s := rng.Int63() - rng.Int63()
			op = fmt.Sprintf("SetStamp(%d, %d)", idx, s)
			v.SetStamp(idx, s)
			m.stamp = s
		default:
			op = "ResetCounts()"
			v.ResetCounts()
			for i := range model {
				model[i].count, model[i].writes, model[i].touched = 0, 0, false
			}
		}

		for i := range model {
			m := model[i]
			if v.Count(i) != 0 || v.WriteCount(i) != 0 {
				if !v.Touched(i) {
					t.Fatalf("step %d %s: page %d has counts %d/%d but is not touched", step, op, i, v.Count(i), v.WriteCount(i))
				}
			}
			if v.Node(i) != m.node || v.Count(i) != m.count || v.WriteCount(i) != m.writes ||
				v.LastSocket(i) != m.socket || v.PTE(i) != m.pte() || v.IsPoisoned(i) != m.poisoned ||
				v.Touched(i) != m.touched || v.Present(i) != m.present ||
				v.Shadowed(i) != m.shadowed || v.ShadowValid(i) != m.shadowValid ||
				v.ShadowNode(i) != m.shadowNodeOrNone() || v.ShadowSeq(i) != m.shadowSeq || v.Stamp(i) != m.stamp {
				t.Fatalf("step %d %s: page %d\nvma   node=%d count=%d writes=%d socket=%d pte=%07b poisoned=%v touched=%v shadowed=%v/%v\nmodel %+v pte=%07b",
					step, op, i, v.Node(i), v.Count(i), v.WriteCount(i), v.LastSocket(i), v.PTE(i), v.IsPoisoned(i),
					v.Touched(i), v.Shadowed(i), v.ShadowValid(i), m, m.pte())
			}
		}
		if !reflect.DeepEqual(hookCalls, wantHookCalls) {
			t.Fatalf("step %d %s: shadow hook calls %v, want %v", step, op, hookCalls, wantHookCalls)
		}
	}
	if len(wantHookCalls) == 0 {
		t.Fatal("the sequence never invalidated a shadow")
	}
}

// TestTouchHitMatchesTouchN applies one seeded sequence of mutators to two
// VMAs. Every touch goes through TouchHit on the first, falling back to
// TouchN where TouchHit declines, and through TouchN alone on the second.
// TouchHit must decline exactly the touches of pages that are not present
// and the writes that meet a valid shadow, and the two VMAs must agree on
// every page's state and on the shadow-invalidation hook calls.
func TestTouchHitMatchesTouchN(t *testing.T) {
	const nPages = 300
	as := NewAddressSpace()
	a, b := as.Alloc("a", nPages*BasePageSize), as.Alloc("b", nPages*BasePageSize)
	var aCalls, bCalls []int
	aHook := func(idx int) { aCalls = append(aCalls, idx) }
	bHook := func(idx int) { bCalls = append(bCalls, idx) }
	nodes := []tier.NodeID{0, 1, 2, 3, 127, -128}
	rng := rand.New(rand.NewSource(23))
	hits, declined := 0, 0
	for step := 0; step < 20000; step++ {
		idx := rng.Intn(nPages)
		if rng.Intn(2) == 0 {
			idx = 62 + rng.Intn(6)
		}
		var op string
		switch k := rng.Intn(100); {
		case k < 12:
			n := nodes[rng.Intn(len(nodes))]
			op = fmt.Sprintf("Place(%d, %d)", idx, n)
			a.Place(idx, n)
			b.Place(idx, n)
		case k < 16:
			op = fmt.Sprintf("Unmap(%d)", idx)
			a.Unmap(idx)
			b.Unmap(idx)
		case k < 18:
			op = fmt.Sprintf("Poison(%d)", idx)
			a.Poison(idx)
			b.Poison(idx)
		case k < 27:
			n := nodes[rng.Intn(len(nodes))]
			op = fmt.Sprintf("MarkShadowed(%d, %d)", idx, n)
			a.MarkShadowed(idx, n, aHook)
			b.MarkShadowed(idx, n, bHook)
		case k < 29:
			op = fmt.Sprintf("ClearShadowed(%d)", idx)
			a.ClearShadowed(idx)
			b.ClearShadowed(idx)
		case k < 33:
			op = fmt.Sprintf("RevalidateShadow(%d)", idx)
			a.RevalidateShadow(idx)
			b.RevalidateShadow(idx)
		case k < 34:
			op = "ResetCounts()"
			a.ResetCounts()
			b.ResetCounts()
		default:
			n := uint32(rng.Intn(4))
			nw := uint32(rng.Intn(int(n) + 1))
			socket := rng.Intn(4)
			op = fmt.Sprintf("touch(%d, %d, %d, %d)", idx, n, nw, socket)
			miss := !a.Present(idx) || nw > 0 && a.ShadowValid(idx)
			want, wantFault := b.TouchN(idx, n, nw, socket)
			node := a.TouchHit(idx, n, nw, socket)
			if (node == NoNode) != miss {
				t.Fatalf("step %d %s: TouchHit returned %d, want a miss: %v", step, op, node, miss)
			}
			if miss {
				declined++
				var fault bool
				node, fault = a.TouchN(idx, n, nw, socket)
				if fault != wantFault {
					t.Fatalf("step %d %s: fault %v, want %v", step, op, fault, wantFault)
				}
			} else {
				hits++
			}
			if node != want {
				t.Fatalf("step %d %s: node %d, want %d", step, op, node, want)
			}
		}
		for i := 0; i < nPages; i++ {
			if a.Node(i) != b.Node(i) || a.Count(i) != b.Count(i) || a.WriteCount(i) != b.WriteCount(i) ||
				a.LastSocket(i) != b.LastSocket(i) || a.PTE(i) != b.PTE(i) || a.Touched(i) != b.Touched(i) ||
				a.Shadowed(i) != b.Shadowed(i) || a.ShadowValid(i) != b.ShadowValid(i) ||
				a.ShadowNode(i) != b.ShadowNode(i) || a.ShadowSeq(i) != b.ShadowSeq(i) {
				t.Fatalf("step %d %s: page %d differs: PTE %07b vs %07b, shadow %v/%v vs %v/%v",
					step, op, i, a.PTE(i), b.PTE(i), a.Shadowed(i), a.ShadowValid(i), b.Shadowed(i), b.ShadowValid(i))
			}
		}
		if !reflect.DeepEqual(aCalls, bCalls) {
			t.Fatalf("step %d %s: hook calls %v, want %v", step, op, aCalls, bCalls)
		}
	}
	if hits == 0 || declined == 0 || len(bCalls) == 0 {
		t.Fatalf("%d hits, %d declined, %d invalidations: the sequence must exercise all three", hits, declined, len(bCalls))
	}
}
