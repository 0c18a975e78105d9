package policy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// refHMC is the tag store HMC kept before its one-word-per-slot layout: a
// 64-bit tag (sector+1) and a dirty flag per slot, found by dividing the
// sector by the page's sector count and by the slot count on every probe.
// FuzzHMCMatchesReference holds HMC.intercept against its intercept.
type refHMC struct {
	eng      *sim.Engine
	dramNode tier.NodeID
	tags     []uint64
	dirty    []bool
	probeSeq uint64

	hits, misses, writebacks int64

	dramLat, pmLat, fillCost, writebackCost time.Duration
}

func (h *refHMC) intercept(v *vm.VMA, idx int, n, nw uint32, node tier.NodeID) time.Duration {
	base := v.Addr(idx) >> 8
	sectorsPerPage := uint64(v.PageSize / hmcSectorBytes)
	if sectorsPerPage == 0 {
		sectorsPerPage = 1
	}
	distinct := uint64(n)
	if distinct > sectorsPerPage {
		distinct = sectorsPerPage
	}
	if distinct == 0 {
		distinct = 1
	}
	perLine := n / uint32(distinct)
	if perLine == 0 {
		perLine = 1
	}
	probes := distinct
	if probes > maxProbes {
		probes = maxProbes
	}
	weight := float64(distinct) / float64(probes)
	dirtyShare := nw > 0

	var cost time.Duration
	var pHits, pMisses, pWB int64
	for i := uint64(0); i < probes; i++ {
		h.probeSeq++
		sector := base + (h.probeSeq*0x9e3779b97f4a7c15)%sectorsPerPage
		slot := sector % uint64(len(h.tags))
		tag := sector + 1
		if h.tags[slot] == tag {
			pHits++
		} else {
			pMisses++
			if h.dirty[slot] {
				pWB++
			}
			h.tags[slot] = tag
			h.dirty[slot] = false
		}
		if dirtyShare {
			h.dirty[slot] = true
		}
	}
	hitLines := float64(pHits) * weight
	missLines := float64(pMisses) * weight
	wbLines := float64(pWB) * weight
	dramF := h.eng.Contention(h.dramNode)
	pmF := h.eng.Contention(node)
	cost += time.Duration(hitLines * float64(h.dramLat) * dramF)
	cost += time.Duration(missLines * (float64(h.pmLat+h.fillCost)*pmF + float64(missOverhead)))
	cost += time.Duration(wbLines * float64(h.writebackCost) * pmF)
	if perLine > 1 {
		cost += time.Duration(float64(perLine-1) * (hitLines + missLines) * float64(h.dramLat) * dramF)
	}
	h.hits += int64(hitLines) + int64(float64(perLine-1)*(hitLines+missLines))
	h.misses += int64(missLines)
	h.writebacks += int64(wbLines)
	h.eng.Sys.RecordTransfer(node, int64(missLines)*hmcSectorBytes+int64(wbLines)*hmcSectorBytes*writeAmp)
	h.eng.Sys.RecordTransfer(h.dramNode, int64(hitLines+missLines)*hmcSectorBytes)
	return cost
}

// hmcTestEngine returns a DRAM+PM machine whose DRAM holds exactly slots
// cache sectors, with a 2 MB-page VMA and a 4 KB-page VMA allocated.
func hmcTestEngine(slots uint32) (*sim.Engine, []*vm.VMA) {
	e := sim.NewEngine(tier.TwoTierTopology(int64(slots)*hmcSectorBytes, 64*tier.GB), 1)
	huge := e.AS.Alloc("huge", 8*vm.HugePageSize)
	e.AS.THP = false
	return e, []*vm.VMA{huge, e.AS.Alloc("base", 64*vm.BasePageSize)}
}

// hmcRefNs are the batch sizes a fuzzed ref picks from: one line, around
// maxProbes, around a 4 KB page's 16 sectors and a 2 MB page's 8192, and
// far past both.
var hmcRefNs = [...]uint32{0, 1, 15, 16, 17, 31, 32, 33, 8191, 8192, 8193, 1 << 20, 1<<32 - 1}

// hmcFuzzRefs caps the refs of one fuzz input. With one slot, a probe of
// a 2 MB page wraps up to 8191 times.
const hmcFuzzRefs = 64

// FuzzHMCMatchesReference applies a sequence of refs, three bytes each
// (VMA and page, batch size, writes), to HMC and to refHMC on twin
// machines with the given slot count. After every ref the cost, the
// hit/miss/writeback counts and every node's transfer demand must match.
func FuzzHMCMatchesReference(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for _, slots := range []uint32{1, 3, 16, 8191, 8192, 8193, 3 << 20} {
		for _, pages := range []byte{0x07, 0xff} { // two to four pages, or all of both VMAs
			for _, every := range []int{0, 8, 1} { // no writes, every 8th ref writes, every ref writes
				data := make([]byte, 3*hmcFuzzRefs)
				rnd.Read(data)
				for i := 0; i < len(data); i += 3 {
					data[i] &= pages
					if every == 0 || i/3%every != 0 {
						data[i+2] = 0
					} else {
						data[i+2] |= 1
					}
				}
				f.Add(slots, data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, slots uint32, data []byte) {
		slots = max(slots%(4<<20), 1)
		e, vmas := hmcTestEngine(slots)
		h := NewHMC()
		h.IntervalStart(e)
		eRef, refVMAs := hmcTestEngine(slots)
		ref := &refHMC{
			eng: eRef, dramNode: h.dramNode,
			tags: make([]uint64, slots), dirty: make([]bool, slots),
			dramLat: h.dramLat, pmLat: h.pmLat, fillCost: h.fillCost, writebackCost: h.writebackCost,
		}
		if len(h.tags) != int(slots) {
			t.Fatalf("%d slots, want %d", len(h.tags), slots)
		}
		pm := tier.NodeID(1)
		for i := 0; i+3 <= min(len(data), 3*hmcFuzzRefs); i += 3 {
			which := int(data[i] & 1)
			idx := int(data[i]>>1) % vmas[which].NPages
			n := hmcRefNs[int(data[i+1])%len(hmcRefNs)]
			nw := uint32(data[i+2])
			got := h.intercept(vmas[which], idx, n, nw, pm)
			want := ref.intercept(refVMAs[which], idx, n, nw, pm)
			hits, misses, wbs := h.Stats()
			if got != want || hits != ref.hits || misses != ref.misses || wbs != ref.writebacks {
				t.Fatalf("ref %d (vma %d page %d n %d nw %d): cost %v hits %d misses %d writebacks %d, want %v %d %d %d",
					i/3, which, idx, n, nw, got, hits, misses, wbs, want, ref.hits, ref.misses, ref.writebacks)
			}
			for node := range e.Sys.Topo.Nodes {
				if d, dRef := e.Sys.Demand(tier.NodeID(node)), eRef.Sys.Demand(tier.NodeID(node)); d != dRef {
					t.Fatalf("ref %d: node %d demand %d, want %d", i/3, node, d, dRef)
				}
			}
		}
	})
}

// TestHMCTagBound checks IntervalStart's bound on the tag word: the last
// VMA's highest sector divided by the slot count, plus one, must be below
// the dirty bit. Nine slots put that quotient at 2^31−2 or 2^31−1 with a
// 4.5 TB address space, which a 2 MB-page VMA and a trailing 4 KB-page VMA
// of 511 or 512 pages reach exactly.
func TestHMCTagBound(t *testing.T) {
	const slots = 9
	for _, tc := range []struct {
		lastPages int
		quotient  uint64
		panics    bool
	}{
		{511, 1<<31 - 2, false},
		{512, 1<<31 - 1, true},
	} {
		t.Run(fmt.Sprint(tc.quotient), func(t *testing.T) {
			e := sim.NewEngine(tier.TwoTierTopology(slots*hmcSectorBytes, tier.GB), 1)
			// The first VMA starts at 1 GB and is followed by a 128 MB gap.
			e.AS.Alloc("big", (9<<39-1<<30-1<<27-vm.HugePageSize)/vm.HugePageSize*vm.HugePageSize)
			e.AS.THP = false
			last := e.AS.Alloc("last", int64(tc.lastPages)*vm.BasePageSize)
			if q := (last.End() - 1) / hmcSectorBytes / slots; q != tc.quotient {
				t.Fatalf("setup: quotient %d, want %d", q, tc.quotient)
			}
			defer func() {
				r := recover()
				if (r != nil) != tc.panics {
					t.Fatalf("panic = %v, want a panic: %v", r, tc.panics)
				}
				if r != nil && !strings.Contains(fmt.Sprint(r), "2^31") {
					t.Fatalf("panic %q does not name the bound", r)
				}
			}()
			NewHMC().IntervalStart(e)
		})
	}
}
