// Package pebs models processor event-based sampling (Intel PEBS) as MTM
// uses it (§5.5, §8): hardware events fire on memory loads served by
// selected memory nodes, one in SamplePeriod accesses is recorded into a
// preallocated buffer, and an interrupt fires when the buffer fills.
//
// MTM arms the counters only for an activation window covering a fraction
// of each profiling interval (10% by default) and only on the slowest
// tier, using the samples to decide which regions deserve PTE-scan
// profiling. HeMem, by contrast, relies on PEBS alone; the same engine
// serves both, so the comparison in §9.6 exercises identical sampling
// randomness.
package pebs

import (
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// SamplePeriod is the paper's production sampling period: one sample per
// 200 memory accesses.
const SamplePeriod = 200

// DefaultWindowFrac is the fraction of the profiling interval during which
// the counters are armed by MTM.
const DefaultWindowFrac = 0.10

// Sample is one recorded memory access.
type Sample struct {
	VMA  *vm.VMA
	Page int
	Node tier.NodeID
}

// Buffer is the preallocated sample buffer with interrupt-on-full
// semantics. It is armed with a set of watched nodes and an effective
// sampling probability; the simulation engine feeds every application
// access through Record.
type Buffer struct {
	WindowFrac float64 // fraction of the interval the counters are armed
	Capacity   int     // samples before an interrupt fires

	// DropFrac is the fraction of would-be samples lost to interrupt
	// storms this window (fault injection); 0 means lossless sampling.
	// The engine sets it per interval from the fault plane.
	DropFrac float64

	watched    []bool
	armed      bool
	samples    []Sample
	interrupts int
	dropped    int
	carry      float64 // fractional expected samples carried between calls
	dropCarry  float64 // fractional dropped samples carried between calls
}

// NewBuffer creates a buffer with the paper's defaults and the given
// capacity (number of samples before an "interrupt" drains it).
func NewBuffer(nodes int, capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{
		WindowFrac: DefaultWindowFrac,
		Capacity:   capacity,
		watched:    make([]bool, nodes),
		samples:    make([]Sample, 0, capacity),
	}
}

// Arm starts a sampling window watching the given nodes. Previously
// collected samples are cleared.
func (b *Buffer) Arm(nodes ...tier.NodeID) {
	for i := range b.watched {
		b.watched[i] = false
	}
	for _, n := range nodes {
		b.watched[n] = true
	}
	b.armed = true
	b.samples = b.samples[:0]
	b.carry = 0
	b.dropCarry = 0
}

// Disarm stops sampling.
func (b *Buffer) Disarm() { b.armed = false }

// Armed reports whether a window is active.
func (b *Buffer) Armed() bool { return b.armed }

// Watches reports whether accesses to node n are sampled.
func (b *Buffer) Watches(n tier.NodeID) bool {
	return b.armed && int(n) >= 0 && int(n) < len(b.watched) && b.watched[n]
}

// Record feeds n application accesses to (v, page) on node into the
// sampler. The expected number of recorded samples is
// n * WindowFrac / SamplePeriod; fractional expectations are carried
// across calls so low-rate pages are still sampled fairly.
func (b *Buffer) Record(v *vm.VMA, page int, node tier.NodeID, n uint32) {
	if !b.Watches(node) {
		return
	}
	raw := float64(n) * b.WindowFrac / SamplePeriod
	if b.DropFrac > 0 {
		// Interrupt storm: a fraction of samples never reaches the buffer.
		// The branch keeps the DropFrac == 0 arithmetic bit-identical to
		// the pre-fault-injection sampler.
		lost := raw*b.DropFrac + b.dropCarry
		k := int(lost)
		b.dropCarry = lost - float64(k)
		b.dropped += k
		raw -= raw * b.DropFrac
	}
	exp := raw + b.carry
	if exp > -1 && exp < 1 {
		// No sample: int(exp) is 0, so the general path below would
		// store exp - 0 == exp. Skipping its float-int round trip keeps
		// the carry chain to one add on almost every call.
		b.carry = exp
		return
	}
	k := int(exp)
	b.carry = exp - float64(k)
	for i := 0; i < k; i++ {
		if len(b.samples) >= b.Capacity {
			// Buffer full: the interrupt handler drains it in real
			// hardware; we model the drain as free (its cost is folded
			// into the profiling budget) but count the event, and drop
			// nothing since the handler copies samples out.
			b.interrupts++
			b.dropped++
			continue
		}
		b.samples = append(b.samples, Sample{VMA: v, Page: page, Node: node})
	}
}

// HitState returns what a caller needs to take the sample-free path of
// Record itself. ok is false while an interrupt storm drops samples
// (DropFrac > 0 on an armed buffer): then every access must go through
// Record. Otherwise watched is nil when the buffer is disarmed, so Record
// does nothing, or else the watched-node table. For n accesses to a
// watched node whose exp := float64(n)*frac/SamplePeriod + carry lies in
// (-1, 1), Record records nothing and only sets the carry to exp, so the
// caller may keep the carry in a local; it hands the carry back with
// SetCarry before anything else uses the buffer.
func (b *Buffer) HitState() (watched []bool, frac, carry float64, ok bool) {
	if !b.armed {
		return nil, 0, 0, true
	}
	if b.DropFrac > 0 {
		return nil, 0, 0, false
	}
	return b.watched, b.WindowFrac, b.carry, true
}

// SetCarry stores the fractional expected-sample carry a caller kept while
// it took Record's sample-free path itself (see HitState).
func (b *Buffer) SetCarry(c float64) { b.carry = c }

// Samples returns the samples collected in the current window.
func (b *Buffer) Samples() []Sample { return b.samples }

// Interrupts returns how many buffer-full interrupts have fired.
func (b *Buffer) Interrupts() int { return b.interrupts }

// Dropped returns how many samples were lost to buffer-full conditions or
// interrupt-storm drops (DropFrac).
func (b *Buffer) Dropped() int { return b.dropped }
