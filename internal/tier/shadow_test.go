package tier

import "testing"

func TestShadowLedgerCapacity(t *testing.T) {
	s := NewSystem(TwoTierTopology(8*MB, 8*MB))
	if !s.ReserveShadow(1, 2*MB) {
		t.Fatal("shadow reserve failed")
	}
	if s.ShadowBytes(1) != 2*MB {
		t.Fatalf("shadow bytes = %d, want 2MB", s.ShadowBytes(1))
	}
	// Shadow frames consume capacity: free shrinks and a reservation that
	// would overlap them must fail.
	if s.Free(1) != 6*MB {
		t.Fatalf("free = %d, want 6MB", s.Free(1))
	}
	if s.Reserve(1, 7*MB) {
		t.Fatal("reserve overlapping shadow frames succeeded")
	}
	if !s.Reserve(1, 6*MB) {
		t.Fatal("reserve within remaining capacity failed")
	}
	// And vice versa: a shadow reservation over capacity must fail.
	if s.ReserveShadow(1, MB) {
		t.Fatal("shadow reserve over capacity succeeded")
	}
	s.ReleaseShadow(1, 2*MB)
	if s.ShadowBytes(1) != 0 || s.Free(1) != 2*MB {
		t.Fatalf("after release: shadow=%d free=%d", s.ShadowBytes(1), s.Free(1))
	}
}

func TestShadowReserveOffline(t *testing.T) {
	s := NewSystem(TwoTierTopology(8*MB, 8*MB))
	s.SetAllocatable(1, false)
	if s.ReserveShadow(1, MB) {
		t.Fatal("shadow reserve on an offline node succeeded")
	}
}

func TestShadowReleasePanics(t *testing.T) {
	s := NewSystem(TwoTierTopology(8*MB, 8*MB))
	for _, b := range []int64{-1, MB} {
		b := b
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ReleaseShadow(%d) with shadow=0 did not panic", b)
				}
			}()
			s.ReleaseShadow(1, b)
		}()
	}
}
