package tier

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestOptaneTopologyShape(t *testing.T) {
	topo := OptaneTopology(1)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Nodes); got != 4 {
		t.Fatalf("nodes = %d, want 4", got)
	}
	if topo.Sockets != 2 {
		t.Fatalf("sockets = %d, want 2", topo.Sockets)
	}
	var dram, pm int
	for _, n := range topo.Nodes {
		switch n.Kind {
		case DRAM:
			dram++
			if n.Capacity != 96*GB {
				t.Errorf("%s capacity = %d, want 96GB", n.Name, n.Capacity)
			}
		case PM:
			pm++
			if n.Capacity != 756*GB {
				t.Errorf("%s capacity = %d, want 756GB", n.Name, n.Capacity)
			}
		}
	}
	if dram != 2 || pm != 2 {
		t.Fatalf("dram=%d pm=%d, want 2/2", dram, pm)
	}
}

func TestOptaneTable1Latencies(t *testing.T) {
	topo := OptaneTopology(1)
	// From socket 0 the four tiers must expose Table 1's numbers.
	view := topo.View(0)
	want := []struct {
		lat time.Duration
		bw  int64
	}{
		{90 * time.Nanosecond, 95 * GB},
		{145 * time.Nanosecond, 35 * GB},
		{275 * time.Nanosecond, 35 * GB},
		{340 * time.Nanosecond, 1 * GB},
	}
	for i, n := range view {
		l := topo.Links[0][n]
		if l.Latency != want[i].lat || l.Bandwidth != want[i].bw {
			t.Errorf("tier %d: latency=%v bw=%d, want %v/%d", i+1, l.Latency, l.Bandwidth, want[i].lat, want[i].bw)
		}
	}
}

func TestMultiViewSymmetry(t *testing.T) {
	topo := OptaneTopology(1)
	v0 := topo.View(0)
	v1 := topo.View(1)
	// The multi-view of §6.2: socket 1's fastest node is socket 0's
	// second tier and vice versa.
	if topo.Nodes[v0[0]].Socket != 0 || topo.Nodes[v1[0]].Socket != 1 {
		t.Fatalf("fastest node not local: v0=%v v1=%v", v0, v1)
	}
	if v0[0] == v1[0] {
		t.Fatal("both sockets claim the same fastest node")
	}
	for s := 0; s < 2; s++ {
		view := topo.View(s)
		for i := 1; i < len(view); i++ {
			a := topo.Links[s][view[i-1]]
			b := topo.Links[s][view[i]]
			if a.Latency > b.Latency {
				t.Errorf("view(%d) not latency-ordered at %d", s, i)
			}
		}
	}
}

func TestRank(t *testing.T) {
	topo := OptaneTopology(1)
	for s := 0; s < topo.Sockets; s++ {
		for r, n := range topo.View(s) {
			if got := topo.Rank(s, n); got != r {
				t.Errorf("Rank(%d, %d) = %d, want %d", s, n, got, r)
			}
		}
	}
}

func TestScaledCapacityRatios(t *testing.T) {
	base := OptaneTopology(1)
	scaled := OptaneTopology(64)
	for i := range base.Nodes {
		if want := base.Nodes[i].Capacity / 64; scaled.Nodes[i].Capacity != want {
			t.Errorf("node %d scaled capacity = %d, want %d", i, scaled.Nodes[i].Capacity, want)
		}
	}
}

func TestTwoTierTopology(t *testing.T) {
	topo := TwoTierTopology(GB, 8*GB)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	view := topo.View(0)
	if len(view) != 2 || topo.Nodes[view[0]].Kind != DRAM || topo.Nodes[view[1]].Kind != PM {
		t.Fatalf("unexpected view %v", view)
	}
}

// wideTopology returns a valid one-socket topology with n nodes.
func wideTopology(n int) *Topology {
	topo := &Topology{Sockets: 1, Links: make([][]Link, 1)}
	for i := 0; i < n; i++ {
		topo.Nodes = append(topo.Nodes, NodeSpec{Name: fmt.Sprint("n", i), Capacity: 1})
		topo.Links[0] = append(topo.Links[0], Link{Latency: 1, Bandwidth: 1})
	}
	return topo
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	if err := wideTopology(MaxNodes).Validate(); err != nil {
		t.Fatalf("%d nodes: %v", MaxNodes, err)
	}
	cases := map[string]*Topology{
		"too many nodes": wideTopology(MaxNodes + 1),
		"no sockets":     {Sockets: 0, Nodes: []NodeSpec{{Capacity: 1}}},
		"no nodes":       {Sockets: 1},
		"bad links": {
			Sockets: 1,
			Nodes:   []NodeSpec{{Name: "a", Capacity: 1}},
			Links:   [][]Link{},
		},
		"zero capacity": {
			Sockets: 1,
			Nodes:   []NodeSpec{{Name: "a", Capacity: 0}},
			Links:   [][]Link{{{Latency: 1, Bandwidth: 1}}},
		},
		"bad socket": {
			Sockets: 1,
			Nodes:   []NodeSpec{{Name: "a", Capacity: 1, Socket: 3}},
			Links:   [][]Link{{{Latency: 1, Bandwidth: 1}}},
		},
	}
	for name, topo := range cases {
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
		}
	}
}

func TestReserveRelease(t *testing.T) {
	s := NewSystem(TwoTierTopology(GB, 2*GB))
	if !s.Reserve(0, GB) {
		t.Fatal("Reserve(1GB) on empty 1GB node failed")
	}
	if s.Reserve(0, 1) {
		t.Fatal("Reserve on full node succeeded")
	}
	if s.Free(0) != 0 || s.Used(0) != GB {
		t.Fatalf("free=%d used=%d", s.Free(0), s.Used(0))
	}
	s.Release(0, GB/2)
	if s.Free(0) != GB/2 {
		t.Fatalf("free after partial release = %d", s.Free(0))
	}
}

func TestReleasePanicsOnUnderflow(t *testing.T) {
	s := NewSystem(TwoTierTopology(GB, GB))
	defer func() {
		if recover() == nil {
			t.Fatal("Release underflow did not panic")
		}
	}()
	s.Release(0, 1)
}

func TestFirstFit(t *testing.T) {
	s := NewSystem(TwoTierTopology(GB, 2*GB))
	view := s.Topo.View(0)
	if got := s.FirstFit(view, GB/2); got != view[0] {
		t.Fatalf("FirstFit = %d, want fastest %d", got, view[0])
	}
	s.Reserve(view[0], GB)
	if got := s.FirstFit(view, GB/2); got != view[1] {
		t.Fatalf("FirstFit after fill = %d, want %d", got, view[1])
	}
	s.Reserve(view[1], 2*GB)
	if got := s.FirstFit(view, GB/2); got != Invalid {
		t.Fatalf("FirstFit on full system = %d, want Invalid", got)
	}
}

func TestContentionFactor(t *testing.T) {
	s := NewSystem(TwoTierTopology(GB, 2*GB))
	s.ResetWindow(time.Second)
	if f := s.ContentionFactor(0); f != 1 {
		t.Fatalf("idle contention = %v, want 1", f)
	}
	// DRAM sustains 95 GB/s; demand 190 GB in a 1s window = 2x factor.
	s.RecordTransfer(0, 190*GB)
	if f := s.ContentionFactor(0); f < 1.99 || f > 2.01 {
		t.Fatalf("oversubscribed contention = %v, want ~2", f)
	}
}

// TestCountLines: a counted line adds its bytes to the node's demand, and
// so to its contention, from the window it falls in on; ResetWindow drops
// the lines counted before it without touching the counter.
func TestCountLines(t *testing.T) {
	s := NewSystem(TwoTierTopology(GB, 2*GB))
	lines := []int64{7, 0}
	s.CountLines(lines, 64)
	if d := s.Demand(0); d != 0 {
		t.Fatalf("demand before any new line = %d, want 0", d)
	}
	lines[0] += 10
	s.RecordTransfer(0, 100)
	if d := s.Demand(0); d != 10*64+100 {
		t.Fatalf("demand = %d, want %d", d, 10*64+100)
	}
	s.ResetWindow(time.Second)
	if d := s.Demand(0); d != 0 || lines[0] != 17 {
		t.Fatalf("after ResetWindow: demand %d, lines %d; want 0, 17", d, lines[0])
	}
	// DRAM sustains 95 GB/s: 190 GB of lines in a 1 s window is a 2x factor.
	lines[0] += 190 * GB / 64
	if f := s.ContentionFactor(0); f < 1.99 || f > 2.01 {
		t.Fatalf("contention from lines = %v, want ~2", f)
	}
	if d := s.Demand(1); d != 0 {
		t.Fatalf("untouched node demand = %d", d)
	}
}

func TestCopyTime(t *testing.T) {
	s := NewSystem(OptaneTopology(1))
	view := s.Topo.View(0)
	// Copy limited by the narrower link: fastest (95 GB/s) to slowest
	// (1 GB/s) moves at 1 GB/s.
	d := s.CopyTime(0, view[0], view[3], GB)
	if d < 990*time.Millisecond || d > 1010*time.Millisecond {
		t.Fatalf("CopyTime = %v, want ~1s", d)
	}
}

func TestReserveNeverExceedsCapacity(t *testing.T) {
	s := NewSystem(TwoTierTopology(GB, GB))
	f := func(amounts []int64) bool {
		for _, a := range amounts {
			if a < 0 {
				a = -a
			}
			a %= GB / 2
			s.Reserve(0, a)
			if s.Used(0) > s.Capacity(0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCXLTopology(t *testing.T) {
	topo := CXLTopology(64)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	view := topo.View(0)
	if len(view) != 3 {
		t.Fatalf("tiers = %d, want 3", len(view))
	}
	if topo.Nodes[view[0]].Kind != DRAM || topo.Nodes[view[1]].Kind != CXL || topo.Nodes[view[2]].Kind != CXL {
		t.Fatalf("view kinds wrong: %v", view)
	}
	// Latency must be strictly increasing down the tiers.
	for i := 1; i < len(view); i++ {
		if topo.Links[0][view[i]].Latency <= topo.Links[0][view[i-1]].Latency {
			t.Fatal("CXL tiers not latency-ordered")
		}
	}
}
