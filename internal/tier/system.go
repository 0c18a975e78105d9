package tier

import (
	"fmt"
	"time"
)

// System is the runtime state layered over a Topology: how much of each
// component is in use, and how many bytes have moved through each component
// during the current accounting window (used for bandwidth-contention
// modelling).
//
// System is not safe for concurrent use; the simulation engine serialises
// access to it.
type System struct {
	Topo *Topology

	used        []int64 // bytes allocated per node
	quarantined []int64 // bytes lost to poisoned (dead) frames per node
	shadow      []int64 // bytes held as retained shadow copies per node
	offline     []bool  // true when the node accepts no new allocations
	demand      []int64 // bytes transferred per node in the current window
	window      time.Duration

	// lines, when set by CountLines, is a per-node transfer count its
	// owner increments; linesAt holds it as of the window's start.
	lines     []int64
	linesAt   []int64
	lineBytes int64
}

// NewSystem creates a System over topo. It panics if topo is invalid, since
// a bad topology is a programming error, not a runtime condition.
func NewSystem(topo *Topology) *System {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	return &System{
		Topo:        topo,
		used:        make([]int64, len(topo.Nodes)),
		quarantined: make([]int64, len(topo.Nodes)),
		shadow:      make([]int64, len(topo.Nodes)),
		offline:     make([]bool, len(topo.Nodes)),
		demand:      make([]int64, len(topo.Nodes)),
	}
}

// Capacity returns the capacity of a node in bytes.
func (s *System) Capacity(n NodeID) int64 { return s.Topo.Nodes[n].Capacity }

// Used returns the bytes currently allocated on a node.
func (s *System) Used(n NodeID) int64 { return s.used[n] }

// Free returns the bytes still allocatable on a node: capacity minus live
// allocations minus quarantined (poisoned) frames minus retained shadow
// copies, or zero when the node has been taken offline for new
// allocations. Shadow frames count against capacity but are soft: their
// holder (the engine's shadow retention) can drop them under pressure to
// make room.
func (s *System) Free(n NodeID) int64 {
	if s.offline[n] {
		return 0
	}
	return s.Topo.Nodes[n].Capacity - s.used[n] - s.quarantined[n] - s.shadow[n]
}

// Quarantine retires b bytes of node n's live allocation: the frames are
// dead (uncorrectable memory error) and never return to the free pool, so
// the bytes move from the used ledger to the quarantined one and total
// capacity shrinks by that much. Quarantining more than is allocated
// panics, like Release.
func (s *System) Quarantine(n NodeID, b int64) {
	if b < 0 || s.used[n]-b < 0 {
		panic(fmt.Sprintf("tier: Quarantine(%d, %d) with used=%d", n, b, s.used[n]))
	}
	s.used[n] -= b
	s.quarantined[n] += b
}

// Quarantined returns the bytes lost to poisoned frames on node n.
func (s *System) Quarantined(n NodeID) int64 { return s.quarantined[n] }

// SetAllocatable marks node n as accepting (true) or rejecting (false)
// new allocations. A draining or offline tier rejects allocations while
// existing pages are still being evacuated; Free reports 0 and Reserve
// fails for such a node, so allocators route around it without a special
// case.
func (s *System) SetAllocatable(n NodeID, ok bool) { s.offline[n] = !ok }

// Allocatable reports whether node n accepts new allocations.
func (s *System) Allocatable(n NodeID) bool { return !s.offline[n] }

// Reserve allocates b bytes on node n. It reports whether the allocation
// fit; on false the system is unchanged.
func (s *System) Reserve(n NodeID, b int64) bool {
	if b < 0 {
		panic(fmt.Sprintf("tier: Reserve(%d, %d): negative size", n, b))
	}
	if s.offline[n] || s.used[n]+s.quarantined[n]+s.shadow[n]+b > s.Topo.Nodes[n].Capacity {
		return false
	}
	s.used[n] += b
	return true
}

// ReserveShadow holds b bytes on node n as a retained shadow copy. Shadow
// bytes occupy real frames — they count against capacity exactly like
// used bytes — but live on a separate ledger so the auditor can reconcile
// them and pressure-reclaim can sacrifice them first. It reports whether
// the bytes fit; on false the system is unchanged.
func (s *System) ReserveShadow(n NodeID, b int64) bool {
	if b < 0 {
		panic(fmt.Sprintf("tier: ReserveShadow(%d, %d): negative size", n, b))
	}
	if s.offline[n] || s.used[n]+s.quarantined[n]+s.shadow[n]+b > s.Topo.Nodes[n].Capacity {
		return false
	}
	s.shadow[n] += b
	return true
}

// ReleaseShadow returns b shadow bytes on node n to the free pool.
// Releasing more than is held panics, like Release.
func (s *System) ReleaseShadow(n NodeID, b int64) {
	if b < 0 || s.shadow[n]-b < 0 {
		panic(fmt.Sprintf("tier: ReleaseShadow(%d, %d) with shadow=%d", n, b, s.shadow[n]))
	}
	s.shadow[n] -= b
}

// ShadowBytes returns the bytes held as shadow copies on node n.
func (s *System) ShadowBytes(n NodeID) int64 { return s.shadow[n] }

// Release frees b bytes on node n. Releasing more than is allocated panics:
// it means the caller's page accounting has desynchronised.
func (s *System) Release(n NodeID, b int64) {
	if b < 0 || s.used[n]-b < 0 {
		panic(fmt.Sprintf("tier: Release(%d, %d) with used=%d", n, b, s.used[n]))
	}
	s.used[n] -= b
}

// FirstFit returns the first node in the given view order with at least b
// free bytes, or Invalid.
func (s *System) FirstFit(view []NodeID, b int64) NodeID {
	for _, n := range view {
		if s.Free(n) >= b {
			return n
		}
	}
	return Invalid
}

// ResetWindow begins a new bandwidth-accounting window of the given length.
func (s *System) ResetWindow(d time.Duration) {
	s.window = d
	clear(s.demand)
	copy(s.linesAt, s.lines)
}

// RecordTransfer notes that b bytes moved through node n during the window.
func (s *System) RecordTransfer(n NodeID, b int64) {
	s.demand[n] += b
}

// CountLines makes lines, a per-node count of lineBytes-sized transfers
// that the caller increments itself, part of each node's demand: a hot
// path then counts a transfer with one add instead of a RecordTransfer
// call. Demand adds lineBytes per count since the window began; the caller
// may zero lines only where it then resets the window.
func (s *System) CountLines(lines []int64, lineBytes int64) {
	s.lines, s.lineBytes = lines, lineBytes
	s.linesAt = append([]int64(nil), lines...)
}

// Demand returns the bytes recorded against node n this window.
func (s *System) Demand(n NodeID) int64 {
	if s.lines == nil {
		return s.demand[n]
	}
	return s.demand[n] + (s.lines[n]-s.linesAt[n])*s.lineBytes
}

// ContentionFactor estimates how much accesses to node n are slowed by
// bandwidth saturation in the current window: 1.0 when demand is within the
// node's bandwidth, rising linearly with oversubscription. The node's
// bandwidth is taken as the best link to it (local access); remote links
// are narrower and their extra cost is already in their latency/bandwidth.
func (s *System) ContentionFactor(n NodeID) float64 {
	if s.window <= 0 {
		return 1
	}
	var best int64
	for sck := 0; sck < s.Topo.Sockets; sck++ {
		if bw := s.Topo.Links[sck][n].Bandwidth; bw > best {
			best = bw
		}
	}
	sustainable := float64(best) * s.window.Seconds()
	if sustainable <= 0 {
		return 1
	}
	f := float64(s.Demand(n)) / sustainable
	if f < 1 {
		return 1
	}
	return f
}

// CopyTime returns the virtual time to move b bytes from node src to node
// dst, issued from the given socket: the transfer is limited by the
// narrower of the two links.
func (s *System) CopyTime(socket int, src, dst NodeID, b int64) time.Duration {
	ls, ld := s.Topo.Links[socket][src], s.Topo.Links[socket][dst]
	bw := ls.Bandwidth
	if ld.Bandwidth < bw {
		bw = ld.Bandwidth
	}
	sec := float64(b) / float64(bw)
	return time.Duration(sec * float64(time.Second))
}
