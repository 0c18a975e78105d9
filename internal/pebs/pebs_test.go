package pebs

import (
	"math"
	"testing"

	"mtm/internal/tier"
	"mtm/internal/vm"
)

func testVMA() *vm.VMA {
	as := vm.NewAddressSpace()
	v := as.Alloc("t", 8*tier.MB)
	for i := 0; i < v.NPages; i++ {
		v.Place(i, 2)
	}
	return v
}

func TestArmDisarm(t *testing.T) {
	b := NewBuffer(4, 128)
	if b.Armed() {
		t.Fatal("buffer armed before Arm")
	}
	b.Arm(2, 3)
	if !b.Watches(2) || !b.Watches(3) || b.Watches(0) {
		t.Fatal("watch set wrong")
	}
	b.Disarm()
	if b.Watches(2) {
		t.Fatal("still watching after Disarm")
	}
}

func TestWatchesOutOfRange(t *testing.T) {
	b := NewBuffer(4, 128)
	b.Arm(0)
	if b.Watches(tier.NodeID(99)) || b.Watches(tier.Invalid) {
		t.Fatal("out-of-range node watched")
	}
}

func TestSamplingRate(t *testing.T) {
	b := NewBuffer(4, 1<<20)
	b.Arm(2)
	v := testVMA()
	const accesses = 4_000_000
	b.Record(v, 0, 2, accesses)
	// Expected samples = accesses * windowFrac / period = 4e6*0.1/200 = 2000.
	got := len(b.Samples())
	if got < 1800 || got > 2200 {
		t.Fatalf("samples = %d, want ~2000", got)
	}
}

func TestFractionalCarry(t *testing.T) {
	b := NewBuffer(4, 1<<20)
	b.Arm(2)
	v := testVMA()
	// Each call has expectation 0.05; 10k calls must accumulate ~500
	// samples rather than rounding every call to zero.
	for i := 0; i < 10000; i++ {
		b.Record(v, i%v.NPages, 2, 100)
	}
	got := len(b.Samples())
	if got < 350 || got > 650 {
		t.Fatalf("samples = %d, want ~500 via fractional carry", got)
	}
}

func TestUnwatchedNodeIgnored(t *testing.T) {
	b := NewBuffer(4, 128)
	b.Arm(2)
	v := testVMA()
	b.Record(v, 0, 0, 1_000_000)
	if len(b.Samples()) != 0 {
		t.Fatal("samples recorded for unwatched node")
	}
}

func TestBufferFullInterrupt(t *testing.T) {
	b := NewBuffer(4, 8)
	b.Arm(2)
	v := testVMA()
	b.Record(v, 0, 2, 100_000) // expectation 50 >> capacity 8
	if len(b.Samples()) != 8 {
		t.Fatalf("buffer holds %d, want capacity 8", len(b.Samples()))
	}
	if b.Interrupts() == 0 || b.Dropped() == 0 {
		t.Fatal("buffer-full interrupt not recorded")
	}
}

func TestRearmClears(t *testing.T) {
	b := NewBuffer(4, 128)
	b.Arm(2)
	v := testVMA()
	b.Record(v, 0, 2, 100_000)
	b.Arm(2)
	if len(b.Samples()) != 0 {
		t.Fatal("re-arm did not clear samples")
	}
}

func TestSampleIdentity(t *testing.T) {
	b := NewBuffer(4, 128)
	b.Arm(2)
	v := testVMA()
	b.Record(v, 3, 2, 50_000)
	for _, s := range b.Samples() {
		if s.VMA != v || s.Page != 3 || s.Node != 2 {
			t.Fatalf("bad sample %+v", s)
		}
	}
}

func TestDropStormReducesSamples(t *testing.T) {
	// A 75% drop storm must cut delivered samples to ~25% and account the
	// lost ones in Dropped, like a PEBS interrupt overflow.
	clean := NewBuffer(4, 1<<20)
	clean.Arm(2)
	storm := NewBuffer(4, 1<<20)
	storm.Arm(2)
	storm.DropFrac = 0.75
	v := testVMA()
	const accesses = 4_000_000
	clean.Record(v, 0, 2, accesses)
	storm.Record(v, 0, 2, accesses)
	base, got := len(clean.Samples()), len(storm.Samples())
	want := base / 4
	if got < want*8/10 || got > want*12/10 {
		t.Fatalf("storm delivered %d samples, want ~%d (clean %d)", got, want, base)
	}
	if storm.Dropped() < base/2 {
		t.Fatalf("Dropped = %d, want roughly 3/4 of %d", storm.Dropped(), base)
	}
}

func TestDropFracZeroIdentical(t *testing.T) {
	// DropFrac 0 must leave the sample stream bit-identical: the drop
	// branch may not perturb the float carry math.
	a := NewBuffer(4, 1<<20)
	a.Arm(2)
	b := NewBuffer(4, 1<<20)
	b.Arm(2)
	b.DropFrac = 0
	v := testVMA()
	for i := 0; i < 1000; i++ {
		a.Record(v, i%v.NPages, 2, 37)
		b.Record(v, i%v.NPages, 2, 37)
	}
	sa, sb := a.Samples(), b.Samples()
	if len(sa) != len(sb) {
		t.Fatalf("sample counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	if b.Dropped() != a.Dropped() {
		t.Fatal("Dropped differs with DropFrac 0")
	}
}

func TestRearmResetsDropCarry(t *testing.T) {
	b := NewBuffer(4, 1<<20)
	b.Arm(2)
	b.DropFrac = 0.5
	v := testVMA()
	b.Record(v, 0, 2, 300) // leaves a fractional drop carry behind
	b.Arm(2)
	if b.dropCarry != 0 {
		t.Fatalf("dropCarry = %v after re-arm, want 0", b.dropCarry)
	}
}

// TestSubOneFastPathIsExact replays random access counts through Record
// and through the sampler's arithmetic without the sub-one early return,
// and requires bit-identical carries and identical sample counts, with
// and without interrupt-storm drops.
func TestSubOneFastPathIsExact(t *testing.T) {
	for _, drop := range []float64{0, 0.3} {
		b := NewBuffer(4, 1<<20)
		b.Arm(2)
		b.DropFrac = drop
		v := testVMA()
		var carry, dropCarry float64
		var samples, dropped int
		x := uint64(1)
		for i := 0; i < 200_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			n := uint32(x>>40) % 4000
			if x&7 == 0 {
				n = uint32(x >> 50) // now and then a count that yields samples
			}
			b.Record(v, 0, 2, n)

			raw := float64(n) * b.WindowFrac / SamplePeriod
			if drop > 0 {
				lost := raw*drop + dropCarry
				k := int(lost)
				dropCarry = lost - float64(k)
				dropped += k
				raw -= raw * drop
			}
			exp := raw + carry
			k := int(exp)
			carry = exp - float64(k)
			samples += k

			if math.Float64bits(b.carry) != math.Float64bits(carry) {
				t.Fatalf("drop %v call %d (n=%d): carry %v, general path %v", drop, i, n, b.carry, carry)
			}
		}
		if len(b.Samples()) != samples || b.Dropped() != dropped {
			t.Fatalf("drop %v: %d samples/%d dropped, general path %d/%d", drop, len(b.Samples()), b.Dropped(), samples, dropped)
		}
	}
}

// TestHitStateMatchesRecord drives two buffers with one call sequence: one
// through Record, the other through HitState's sample-free path wherever
// it applies, on watched and unwatched nodes alike, and Record (after
// SetCarry) elsewhere. Samples, drops and carry bits must agree, and
// HitState must report the disarmed and lossy states.
func TestHitStateMatchesRecord(t *testing.T) {
	b := NewBuffer(4, 64)
	if w, _, _, ok := b.HitState(); w != nil || !ok {
		t.Fatalf("disarmed HitState = %v, %v; want nil, true", w, ok)
	}
	b.Arm(2)
	b.DropFrac = 0.5
	if _, _, _, ok := b.HitState(); ok {
		t.Fatal("HitState ok while dropping samples")
	}
	v := testVMA()
	ref, fast := NewBuffer(4, 64), NewBuffer(4, 64)
	ref.Arm(1, 2)
	fast.Arm(1, 2)
	x, fastCalls := uint64(3), 0
	for i := 0; i < 100_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n, node := uint32(x>>40)%4000, tier.NodeID(x>>20&3)
		ref.Record(v, i, node, n)
		on, frac, carry, ok := fast.HitState()
		if !ok {
			t.Fatal("armed lossless buffer reports ok == false")
		}
		if exp := float64(n)*frac/SamplePeriod*on[node] + carry; exp > -1 && exp < 1 {
			fast.SetCarry(exp)
			fastCalls++
			continue
		}
		fast.Record(v, i, node, n)
	}
	if fastCalls == 0 || len(ref.Samples()) == 0 || ref.Interrupts() == 0 {
		t.Fatalf("%d sample-free calls, %d samples, %d interrupts: the sequence must exercise all three",
			fastCalls, len(ref.Samples()), ref.Interrupts())
	}
	if len(fast.Samples()) != len(ref.Samples()) || fast.Dropped() != ref.Dropped() || fast.Interrupts() != ref.Interrupts() {
		t.Fatalf("HitState path: %d samples/%d dropped, Record %d/%d",
			len(fast.Samples()), fast.Dropped(), len(ref.Samples()), ref.Dropped())
	}
	for i, s := range ref.Samples() {
		if fast.Samples()[i] != s {
			t.Fatalf("sample %d: %+v, Record %+v", i, fast.Samples()[i], s)
		}
	}
	if math.Float64bits(fast.carry) != math.Float64bits(ref.carry) {
		t.Fatalf("carry %v, Record %v", fast.carry, ref.carry)
	}
}
