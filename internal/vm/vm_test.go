package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mtm/internal/tier"
)

func TestAllocTHP(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("big", 10*tier.MB)
	if v.PageSize != HugePageSize {
		t.Fatalf("page size = %d, want huge", v.PageSize)
	}
	if v.NPages != 5 {
		t.Fatalf("pages = %d, want 5", v.NPages)
	}
	if v.Base%uint64(HugePageSize) != 0 {
		t.Fatalf("base %#x not huge-aligned", v.Base)
	}
	small := as.Alloc("small", 12*1024)
	if small.PageSize != BasePageSize {
		t.Fatalf("small VMA page size = %d, want 4K", small.PageSize)
	}
	if small.NPages != 3 {
		t.Fatalf("small pages = %d, want 3", small.NPages)
	}
}

func TestAllocTHPDisabled(t *testing.T) {
	as := NewAddressSpace()
	as.THP = false
	v := as.Alloc("big", 10*tier.MB)
	if v.PageSize != BasePageSize {
		t.Fatalf("page size = %d, want base with THP off", v.PageSize)
	}
}

func TestAllocRounding(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("x", HugePageSize+1)
	if v.Bytes() != 2*HugePageSize {
		t.Fatalf("bytes = %d, want 2 huge pages", v.Bytes())
	}
}

func TestAllocPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	NewAddressSpace().Alloc("zero", 0)
}

func TestLookup(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc("a", 4*tier.MB)
	b := as.Alloc("b", 4*tier.MB)
	if v, idx := as.Lookup(a.Addr(1)); v != a || idx != 1 {
		t.Fatalf("Lookup in a = (%v, %d)", v, idx)
	}
	if v, idx := as.Lookup(b.Addr(0) + 5); v != b || idx != 0 {
		t.Fatalf("Lookup in b = (%v, %d)", v, idx)
	}
	if v, _ := as.Lookup(a.End() + 1); v != nil {
		t.Fatalf("Lookup in gap = %v, want nil", v)
	}
	if v, _ := as.Lookup(0); v != nil {
		t.Fatalf("Lookup(0) = %v, want nil", v)
	}
}

func TestTouchSetsBits(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 4*tier.MB)
	if _, fault := v.TouchN(0, 1, 0, 0); !fault {
		t.Fatal("touch of non-present page did not fault")
	}
	if v.Touched(0) {
		t.Fatal("faulting touch marked the page touched")
	}
	v.Place(0, 1)
	node, fault := v.TouchN(0, 1, 0, 0)
	if fault || node != 1 {
		t.Fatalf("touch = (%d, %v)", node, fault)
	}
	if !v.Touched(0) {
		t.Fatal("touched bit not set")
	}
	if v.PTE(0).Has(Dirty) {
		t.Fatal("dirty bit set by read")
	}
	v.TouchN(0, 1, 1, 1)
	if !v.PTE(0).Has(Dirty) {
		t.Fatal("dirty bit not set by write")
	}
	if v.Count(0) != 2 || v.WriteCount(0) != 1 {
		t.Fatalf("counts = %d/%d, want 2/1", v.Count(0), v.WriteCount(0))
	}
	if v.LastSocket(0) != 1 {
		t.Fatalf("last socket = %d, want 1", v.LastSocket(0))
	}
}

func TestTouchNMatchesTouch(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc("a", 2*tier.MB)
	b := as.Alloc("b", 2*tier.MB)
	a.Place(0, 0)
	b.Place(0, 0)
	for i := 0; i < 7; i++ {
		a.TouchN(0, 1, uint32(1-i%2), 0)
	}
	b.TouchN(0, 7, 4, 0)
	if a.Count(0) != b.Count(0) || a.WriteCount(0) != b.WriteCount(0) {
		t.Fatalf("TouchN mismatch: %d/%d vs %d/%d", a.Count(0), a.WriteCount(0), b.Count(0), b.WriteCount(0))
	}
	if a.PTE(0) != b.PTE(0) || a.Touched(0) != b.Touched(0) {
		t.Fatalf("PTE mismatch: %b/%v vs %b/%v", a.PTE(0), a.Touched(0), b.PTE(0), b.Touched(0))
	}
}

func TestDirtyTracking(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 2*tier.MB)
	v.Place(0, 0)
	v.TouchN(0, 1, 1, 0)
	if !v.TestAndClearDirty(0) {
		t.Fatal("dirty not observed")
	}
	if v.TestAndClearDirty(0) {
		t.Fatal("dirty bit not cleared")
	}
}

func TestUnmapPreservesTracking(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 2*tier.MB)
	v.Place(0, 2)
	v.TouchN(0, 1, 1, 0)
	v.Unmap(0)
	if v.Present(0) {
		t.Fatal("page present after unmap")
	}
	if v.Node(0) != NoNode {
		t.Fatal("node not cleared by unmap")
	}
	if !v.PTE(0).Has(Dirty) || !v.Touched(0) || v.Count(0) != 1 || v.WriteCount(0) != 1 {
		t.Fatal("unmap erased tracking state")
	}
}

func TestResetCounts(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 4*tier.MB)
	v.Place(0, 0)
	v.TouchN(0, 5, 3, 0)
	as.ResetCounts()
	if v.Count(0) != 0 || v.WriteCount(0) != 0 {
		t.Fatal("counts not reset")
	}
	if v.Touched(0) {
		t.Fatal("reset left the page touched")
	}
	if !v.PTE(0).Has(Present | Dirty) {
		t.Fatal("reset must not clear PTE bits")
	}
}

func TestObserveScansZeroForColdPage(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 2*tier.MB)
	v.Place(0, 0)
	rng := rand.New(rand.NewSource(1))
	if got := ObserveScans(v, 0, 3, 0.01, rng); got != 0 {
		t.Fatalf("ObserveScans on untouched page = %d", got)
	}
}

func TestObserveScansSaturatesForHotPage(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 2*tier.MB)
	v.Place(0, 0)
	v.TouchN(0, 100000, 0, 0)
	rng := rand.New(rand.NewSource(1))
	if got := ObserveScans(v, 0, 3, 0.01, rng); got != 3 {
		t.Fatalf("ObserveScans on very hot page = %d, want 3", got)
	}
}

func TestObserveScansDiscriminatesRates(t *testing.T) {
	as := NewAddressSpace()
	hot := as.Alloc("hot", 2*tier.MB)
	cold := as.Alloc("cold", 2*tier.MB)
	hot.Place(0, 0)
	cold.Place(0, 0)
	hot.TouchN(0, 2000, 0, 0)
	cold.TouchN(0, 50, 0, 0)
	rng := rand.New(rand.NewSource(42))
	var hotSum, coldSum int
	const trials = 200
	for i := 0; i < trials; i++ {
		hotSum += ObserveScans(hot, 0, 3, 0.003, rng)
		coldSum += ObserveScans(cold, 0, 3, 0.003, rng)
	}
	if hotSum <= coldSum {
		t.Fatalf("hot page not observed hotter: hot=%d cold=%d", hotSum, coldSum)
	}
	if float64(hotSum)/trials < 2.5 {
		t.Fatalf("hot page mean observation %f, want near 3", float64(hotSum)/trials)
	}
	if float64(coldSum)/trials > 1.5 {
		t.Fatalf("cold page mean observation %f, want well below hot", float64(coldSum)/trials)
	}
}

func TestObserveScansFullWindowIsBinary(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 2*tier.MB)
	v.Place(0, 0)
	v.TouchN(0, 1, 0, 0)
	rng := rand.New(rand.NewSource(1))
	// windowFrac 1 (AutoNUMA-style cleared-present-bit): any access at
	// all saturates the observation.
	if got := ObserveScans(v, 0, 2, 1.0, rng); got != 2 {
		t.Fatalf("full-window observation = %d, want 2", got)
	}
}

func TestObserveScansBounds(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 2*tier.MB)
	v.Place(0, 0)
	v.TouchN(0, 12345, 0, 0)
	rng := rand.New(rand.NewSource(7))
	f := func(numScans uint8, w float64) bool {
		n := int(numScans % 16)
		if w < 0 {
			w = -w
		}
		for w > 2 {
			w /= 10
		}
		got := ObserveScans(v, 0, n, w, rng)
		return got >= 0 && got <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPTEBits(t *testing.T) {
	var p PTE
	p = p.Set(Present | Poisoned)
	if !p.Has(Present) || !p.Has(Poisoned) || p.Has(Dirty) {
		t.Fatalf("bit ops wrong: %b", p)
	}
	p = p.Clear(Present)
	if p.Has(Present) || !p.Has(Poisoned) {
		t.Fatalf("clear wrong: %b", p)
	}
}

func TestVMAGeometry(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 8*tier.MB)
	if v.PageOf(v.Addr(3)) != 3 {
		t.Fatal("Addr/PageOf not inverse")
	}
	if v.End() != v.Base+uint64(v.Bytes()) {
		t.Fatal("End mismatch")
	}
	if as.TotalBytes() != v.Bytes() {
		t.Fatal("TotalBytes mismatch")
	}
	if as.PresentBytes() != 0 {
		t.Fatal("PresentBytes should be 0 before faults")
	}
	v.Place(2, 0)
	if as.PresentBytes() != v.PageSize {
		t.Fatal("PresentBytes after one fault wrong")
	}
}

func TestVMAsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace()
	var prevEnd uint64
	for i := 0; i < 20; i++ {
		v := as.Alloc("v", int64(i+1)*tier.MB)
		if v.Base < prevEnd {
			t.Fatalf("VMA %d overlaps previous", i)
		}
		prevEnd = v.End()
	}
}
