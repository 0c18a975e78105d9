package stats

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mtm/internal/region"
	"mtm/internal/vm"
)

func TestDetectionQualityPerfect(t *testing.T) {
	as := vm.NewAddressSpace()
	v := as.Alloc("v", 10*vm.HugePageSize)
	for i := 0; i < v.NPages; i++ {
		v.Place(i, 0)
	}
	set := region.NewSet(3)
	set.InitVMA(v, 2*vm.HugePageSize) // 5 regions of 2 pages
	regions := set.Regions()
	// Region 0 (pages 0-1) is hot; oracle agrees.
	regions[0].WHI = 3
	oracle := func(vv *vm.VMA, idx int) bool { return vv == v && idx < 2 }
	q := DetectionQuality(regions, oracle, 2*v.PageSize, 2*v.PageSize)
	if q.Recall != 1 || q.Accuracy != 1 {
		t.Fatalf("quality = %+v, want perfect", q)
	}
}

func TestDetectionQualityHalf(t *testing.T) {
	as := vm.NewAddressSpace()
	v := as.Alloc("v", 10*vm.HugePageSize)
	for i := 0; i < v.NPages; i++ {
		v.Place(i, 0)
	}
	set := region.NewSet(3)
	set.InitVMA(v, 2*vm.HugePageSize)
	regions := set.Regions()
	// Detected region covers pages 0-1 but only page 0 is truly hot;
	// the other hot page (9) is missed.
	regions[0].WHI = 3
	oracle := func(vv *vm.VMA, idx int) bool { return idx == 0 || idx == 9 }
	q := DetectionQuality(regions, oracle, 2*v.PageSize, 2*v.PageSize)
	if q.Recall != 0.5 || q.Accuracy != 0.5 {
		t.Fatalf("quality = %+v, want 0.5/0.5", q)
	}
}

// TestDirtyPlaneReconciliation is the dirty-plane oracle: the word-wide
// DirtyWord scan and the per-page TestAndClearDirty harvest must observe
// exactly the same set of pages — the set that ground truth says took a
// write this interval — and a harvest must consume each bit exactly once.
// (The word path feeds bulk scans, the per-page path feeds shadow sync;
// if they ever diverge, free demotions flip to stale frames.)
func TestDirtyPlaneReconciliation(t *testing.T) {
	as := vm.NewAddressSpace()
	// 130 pages: spans three plane words, with writes straddling both
	// word boundaries (63/64 and 127/128).
	v := as.Alloc("v", 130*vm.HugePageSize)
	written := make(map[int]bool)
	for i := 0; i < v.NPages; i++ {
		v.Place(i, 0)
		var nw uint32
		if i%3 == 0 || i == 63 || i == 64 || i == 127 || i == 128 {
			nw = 1 + uint32(i%2) // writes of varying weight
			written[i] = true
		}
		v.TouchN(i, 2, nw, 0) // every page is read; only some written
	}

	// Word-wide snapshot first: it must be a pure read (no clearing).
	snap := make([]uint64, v.Words())
	for w := 0; w < v.Words(); w++ {
		snap[w] = v.DirtyWord(w)
	}
	for w := 0; w < v.Words(); w++ {
		if v.DirtyWord(w) != snap[w] {
			t.Fatalf("DirtyWord(%d) changed across reads", w)
		}
	}

	// Both views must agree with ground truth, page by page.
	for i := 0; i < v.NPages; i++ {
		wordBit := snap[i/vm.WordPages]&(1<<uint(i%vm.WordPages)) != 0
		if wordBit != written[i] {
			t.Fatalf("DirtyWord bit for page %d = %v, ground truth %v", i, wordBit, written[i])
		}
		if got := v.TestAndClearDirty(i); got != written[i] {
			t.Fatalf("TestAndClearDirty(%d) = %v, ground truth %v", i, got, written[i])
		}
	}

	// The harvest consumed every bit: both views now read clean, and a
	// second harvest observes nothing.
	for w := 0; w < v.Words(); w++ {
		if v.DirtyWord(w) != 0 {
			t.Fatalf("DirtyWord(%d) = %#x after full harvest, want 0", w, v.DirtyWord(w))
		}
	}
	for i := 0; i < v.NPages; i++ {
		if v.TestAndClearDirty(i) {
			t.Fatalf("second harvest of page %d observed a dirty bit", i)
		}
	}

	// A fresh write re-arms exactly its own page.
	v.TouchN(65, 1, 1, 0)
	if !v.TestAndClearDirty(65) || v.DirtyWord(1) != 0 {
		t.Fatal("re-armed dirty bit not observed or not consumed")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.5)
	tb.Row("beta", time.Second)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") || !strings.Contains(out, "1.00s") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("lines = %d", len(lines))
	}
}

// TestTableRowLongerThanHeader: a row with more cells than the header
// panics in Row, naming both lengths, instead of with an index error
// inside String. A shorter row still renders.
func TestTableRowLongerThanHeader(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("short")
	if out := tb.String(); !strings.Contains(out, "short") {
		t.Fatalf("short row not rendered:\n%s", out)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "3 cells") || !strings.Contains(msg, "header has 2") {
			t.Fatalf("panic %q, want one naming 3 cells and a header of 2", msg)
		}
	}()
	tb.Row("alpha", 1, "extra")
}
