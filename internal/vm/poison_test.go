package vm

import (
	"testing"

	"mtm/internal/tier"
)

func TestPoisonTearsDownMapping(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 4*tier.MB)
	v.Touch(0, true, 1)
	v.Place(0, 2)
	v.Touch(0, true, 1)
	if v.Count(0) == 0 || v.WriteCount(0) == 0 {
		t.Fatal("setup: touched page has no counts")
	}

	v.Poison(0)
	if !v.IsPoisoned(0) {
		t.Fatal("page not marked Poisoned")
	}
	if v.Present(0) {
		t.Fatal("poisoned page still Present")
	}
	if v.Node(0) != NoNode {
		t.Fatalf("poisoned page still bound to node %d", v.Node(0))
	}
	if v.Count(0) != 0 || v.WriteCount(0) != 0 {
		t.Fatal("poisoned page kept access counts")
	}
	if pte := v.PTE(0); pte.Has(Accessed) || pte.Has(Dirty) {
		t.Fatalf("poisoned PTE kept tracking bits: %v", pte)
	}
}

func TestPoisonedPageFaultsOnTouch(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 4*tier.MB)
	v.Touch(0, false, 0)
	v.Place(0, 1)
	v.Poison(0)

	// An access to a poisoned page must fault (the SIGBUS analogue), and
	// ScanAndClear must treat it as non-resident.
	if _, fault := v.Touch(0, false, 0); !fault {
		t.Fatal("touching a poisoned page did not fault")
	}
	if v.ScanAndClear(0) {
		t.Fatal("ScanAndClear saw a poisoned page as resident")
	}
}

func TestClearPoisonAllowsRefault(t *testing.T) {
	as := NewAddressSpace()
	v := as.Alloc("v", 4*tier.MB)
	v.Touch(0, false, 0)
	v.Place(0, 1)
	v.Poison(0)

	v.ClearPoison(0)
	if v.IsPoisoned(0) {
		t.Fatal("ClearPoison left the Poisoned bit set")
	}
	// Refault onto a healthy node: the page becomes an ordinary mapping.
	if _, fault := v.Touch(0, false, 0); !fault {
		t.Fatal("cleared page did not demand-fault")
	}
	v.Place(0, 0)
	if node, fault := v.Touch(0, false, 0); fault || node != 0 {
		t.Fatalf("refaulted page: node=%d fault=%v", node, fault)
	}
}
