// Package tier models the physical memory components of a multi-tiered
// large-memory machine: their latencies, bandwidths, and capacities, and the
// per-socket "view" that orders components from fastest to slowest.
//
// The default topology reproduces Table 1 of the MTM paper (EuroSys '24): a
// two-socket Intel Optane system with one DRAM and one PM component per
// socket, yielding four tiers from the point of view of either socket:
//
//	tier 1: local DRAM   90 ns / 95 GB/s
//	tier 2: remote DRAM 145 ns / 35 GB/s
//	tier 3: local PM    275 ns / 35 GB/s
//	tier 4: remote PM   340 ns /  1 GB/s
//
// Because the same physical component is "fast" for one socket and "slow"
// for another, code that needs a tier ordering must go through a View; this
// is the multi-view of tiered memory described in §6.2 of the paper.
package tier

import (
	"fmt"
	"sync"
	"time"
)

// NodeID identifies a physical memory component (a NUMA node in Linux
// terms). Node numbering is topology-specific; use Topology helpers rather
// than assuming a layout.
type NodeID int

// Invalid is returned by lookups that find no suitable node.
const Invalid NodeID = -1

// MaxNodes is the most memory nodes a topology may have, so that code can
// keep a per-node array on the stack. The machines modelled have 2 to 4.
const MaxNodes = 16

// Kind distinguishes the broad class of a memory component.
type Kind uint8

const (
	// DRAM is CPU-attached fast memory.
	DRAM Kind = iota
	// PM is high-density persistent memory (e.g. Intel Optane DC PM),
	// appearing as a CPU-less memory node.
	PM
	// CXL is memory attached behind a CXL link. It behaves like PM for
	// placement purposes but typically with different latency.
	CXL
)

func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case PM:
		return "PM"
	case CXL:
		return "CXL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NodeSpec describes one physical memory component.
type NodeSpec struct {
	Name     string
	Kind     Kind
	Socket   int   // socket the component is attached to
	Capacity int64 // bytes
}

// Link gives the performance of accesses from a socket to a node.
type Link struct {
	Latency   time.Duration // load-to-use latency of one access
	Bandwidth int64         // sustainable bytes per second
}

// Topology is the static shape of the machine: its memory components and
// the per-socket access characteristics of each.
type Topology struct {
	Sockets int
	Nodes   []NodeSpec
	// Links[socket][node] is the performance of accesses issued on a
	// socket to a node. The links are fixed once an engine is built over
	// the topology (sim.NewEngine): the engine caches their latencies and
	// charges a page's zero-fill once per run of first touches. A fault
	// that degrades a link acts through sim.Engine.LinkBandwidth instead.
	Links [][]Link

	// views caches the per-socket fastest-to-slowest node orders. The
	// topology is static after construction, and View sits on the
	// per-fault placement path — rebuilding the order there was the
	// single largest allocation source of a simulated interval.
	viewsOnce sync.Once
	views     [][]NodeID
}

// Validate checks internal consistency of the topology.
func (t *Topology) Validate() error {
	if t.Sockets <= 0 {
		return fmt.Errorf("tier: topology has %d sockets", t.Sockets)
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("tier: topology has no memory nodes")
	}
	if len(t.Nodes) > MaxNodes {
		return fmt.Errorf("tier: topology has %d memory nodes, at most %d allowed", len(t.Nodes), MaxNodes)
	}
	if len(t.Links) != t.Sockets {
		return fmt.Errorf("tier: Links has %d rows, want %d", len(t.Links), t.Sockets)
	}
	for s, row := range t.Links {
		if len(row) != len(t.Nodes) {
			return fmt.Errorf("tier: Links[%d] has %d entries, want %d", s, len(row), len(t.Nodes))
		}
		for n, l := range row {
			if l.Latency <= 0 {
				return fmt.Errorf("tier: Links[%d][%d].Latency = %v", s, n, l.Latency)
			}
			if l.Bandwidth <= 0 {
				return fmt.Errorf("tier: Links[%d][%d].Bandwidth = %d", s, n, l.Bandwidth)
			}
		}
	}
	for i, n := range t.Nodes {
		if n.Capacity <= 0 {
			return fmt.Errorf("tier: node %d (%s) capacity = %d", i, n.Name, n.Capacity)
		}
		if n.Socket < 0 || n.Socket >= t.Sockets {
			return fmt.Errorf("tier: node %d (%s) on socket %d of %d", i, n.Name, n.Socket, t.Sockets)
		}
	}
	return nil
}

// View returns the node IDs ordered fastest-to-slowest from the given
// socket. Ties break by bandwidth (higher first), then node ID. The
// returned slice is a shared cache owned by the topology — callers must
// not modify it.
func (t *Topology) View(socket int) []NodeID {
	t.viewsOnce.Do(func() {
		t.views = make([][]NodeID, t.Sockets)
		for s := range t.views {
			t.views[s] = t.buildView(s)
		}
	})
	return t.views[socket]
}

func (t *Topology) buildView(socket int) []NodeID {
	order := make([]NodeID, len(t.Nodes))
	for i := range order {
		order[i] = NodeID(i)
	}
	links := t.Links[socket]
	// Insertion sort: the node count is tiny (2..8).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			la, lb := links[a], links[b]
			if la.Latency < lb.Latency ||
				(la.Latency == lb.Latency && la.Bandwidth > lb.Bandwidth) ||
				(la.Latency == lb.Latency && la.Bandwidth == lb.Bandwidth && a < b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	return order
}

// Rank returns the 0-based tier rank of node from the given socket's view
// (0 = fastest).
func (t *Topology) Rank(socket int, node NodeID) int {
	for r, n := range t.View(socket) {
		if n == node {
			return r
		}
	}
	return -1
}

const (
	// GB is 2^30 bytes.
	GB = int64(1) << 30
	// MB is 2^20 bytes.
	MB = int64(1) << 20
	// KB is 2^10 bytes.
	KB = int64(1) << 10
)

// OptaneTopology builds the four-component, two-socket topology of Table 1.
// scale divides every capacity so that large-memory experiments run at
// laptop scale while preserving all capacity ratios; scale=1 reproduces the
// paper's machine (2×96 GB DRAM, 2×756 GB Optane PM).
func OptaneTopology(scale int64) *Topology {
	if scale <= 0 {
		scale = 1
	}
	dram := 96 * GB / scale
	pm := 756 * GB / scale
	t := &Topology{
		Sockets: 2,
		Nodes: []NodeSpec{
			{Name: "DRAM0", Kind: DRAM, Socket: 0, Capacity: dram},
			{Name: "DRAM1", Kind: DRAM, Socket: 1, Capacity: dram},
			{Name: "PM0", Kind: PM, Socket: 0, Capacity: pm},
			{Name: "PM1", Kind: PM, Socket: 1, Capacity: pm},
		},
	}
	local := func(n NodeSpec, s int) bool { return n.Socket == s }
	t.Links = make([][]Link, t.Sockets)
	for s := range t.Links {
		t.Links[s] = make([]Link, len(t.Nodes))
		for i, n := range t.Nodes {
			var l Link
			switch {
			case n.Kind == DRAM && local(n, s):
				l = Link{Latency: 90 * time.Nanosecond, Bandwidth: 95 * GB}
			case n.Kind == DRAM:
				l = Link{Latency: 145 * time.Nanosecond, Bandwidth: 35 * GB}
			case local(n, s):
				l = Link{Latency: 275 * time.Nanosecond, Bandwidth: 35 * GB}
			default:
				l = Link{Latency: 340 * time.Nanosecond, Bandwidth: 1 * GB}
			}
			t.Links[s][i] = l
		}
	}
	return t
}

// CXLTopology builds a single-socket machine with local DRAM, a directly
// attached CXL memory expander, and a second, switched CXL device — the
// three-tier CPU-less-node configuration §8 argues MTM generalises to
// (any architecture with per-tier memory-access events works). Latencies
// follow published CXL measurements: ~2x DRAM for direct-attach, ~3.5x
// through a switch.
func CXLTopology(scale int64) *Topology {
	if scale <= 0 {
		scale = 1
	}
	return &Topology{
		Sockets: 1,
		Nodes: []NodeSpec{
			{Name: "DRAM", Kind: DRAM, Socket: 0, Capacity: 96 * GB / scale},
			{Name: "CXL0", Kind: CXL, Socket: 0, Capacity: 256 * GB / scale},
			{Name: "CXL1", Kind: CXL, Socket: 0, Capacity: 512 * GB / scale},
		},
		Links: [][]Link{{
			{Latency: 90 * time.Nanosecond, Bandwidth: 95 * GB},
			{Latency: 180 * time.Nanosecond, Bandwidth: 28 * GB},
			{Latency: 320 * time.Nanosecond, Bandwidth: 16 * GB},
		}},
	}
}

// TwoTierTopology builds a single-socket DRAM+PM machine, the configuration
// of the HeMem comparison in §9.6.
func TwoTierTopology(dramBytes, pmBytes int64) *Topology {
	return &Topology{
		Sockets: 1,
		Nodes: []NodeSpec{
			{Name: "DRAM", Kind: DRAM, Socket: 0, Capacity: dramBytes},
			{Name: "PM", Kind: PM, Socket: 0, Capacity: pmBytes},
		},
		Links: [][]Link{{
			{Latency: 90 * time.Nanosecond, Bandwidth: 95 * GB},
			{Latency: 275 * time.Nanosecond, Bandwidth: 35 * GB},
		}},
	}
}
