package policy

import (
	"time"

	"mtm/internal/sim"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

// HMC is the hardware-managed memory caching baseline (Optane Memory
// Mode): all pages live on PM, and the DRAM acts as a direct-mapped,
// memory-side cache in front of it. The model tracks 4 KB cache sectors
// with tags and dirty bits: a hit costs DRAM latency, a miss costs PM
// latency plus the sector fill, and evicting a dirty sector writes it
// back to PM with the read-modify-write amplification of Optane's 256 B
// internal granularity — the duplication and write-amplification costs
// §2.1 and §9.1 attribute to HMC. The DRAM used as cache is reserved so
// the allocator cannot also hand it out (Memory Mode's capacity loss).
type HMC struct {
	eng        *sim.Engine
	dramNode   tier.NodeID
	pmNode     tier.NodeID
	sectorBits uint
	tags       []uint64 // tag per slot; 0 = empty (tags are sector+1)
	dirty      []bool
	probeSeq   uint64

	hits, misses, writebacks int64

	dramLat, pmLat time.Duration
	fillCost       time.Duration
	writebackCost  time.Duration
}

// hmcSectorBytes is the modelled cache-sector granularity: 256 B, the
// internal write granularity of Optane and close to Memory Mode's 64 B
// lines. Fine granularity is load-bearing for the baseline's behaviour: a
// page can be hot while each of its individual lines is touched rarely,
// so a line-granular cache cannot exploit page-level hotness the way a
// page-migrating policy can — the core of the §2.1/§9.1 HMC critique.
const hmcSectorBytes = 256

// writeAmp is the PM write amplification on dirty evictions: Optane
// performs internal read-modify-writes and sustains a fraction of its
// read bandwidth for writes, so a 256 B writeback costs several transfer
// times.
const writeAmp = 8

// missOverhead is the extra latency of a Memory Mode miss beyond the raw
// PM access: the in-DRAM tag lookup that failed, fill scheduling, and the
// metadata update (measured as 2-3x a direct PM access in [8]/[24]).
const missOverhead = 200 * time.Nanosecond

// NewHMC returns the baseline.
func NewHMC() *HMC { return &HMC{} }

func (*HMC) Name() string { return "HMC (Memory Mode)" }

func (h *HMC) Place(e *sim.Engine, v *vm.VMA, idx int, socket int) tier.NodeID {
	return place(e, v, socket, PlaceSlowOnly)
}

func (h *HMC) IntervalStart(e *sim.Engine) {
	if h.tags != nil {
		return
	}
	// Size the cache to the DRAM nodes and reserve them so the
	// allocator cannot also hand them out.
	var dramBytes int64
	for i, n := range e.Sys.Topo.Nodes {
		if n.Kind == tier.DRAM {
			dramBytes += n.Capacity
			carve := e.Sys.Free(tier.NodeID(i))
			e.Sys.Reserve(tier.NodeID(i), carve)
			e.NoteOpaqueReserve(tier.NodeID(i), carve)
		}
	}
	slots := dramBytes / hmcSectorBytes
	if slots < 1 {
		slots = 1
	}
	h.tags = make([]uint64, slots)
	h.dirty = make([]bool, slots)
	h.sectorBits = 8 // log2(hmcSectorBytes)

	h.dramNode, h.pmNode = tier.Invalid, tier.Invalid
	view := e.Sys.Topo.View(sim.HomeSocket)
	for _, n := range view {
		link := e.Sys.Topo.Links[sim.HomeSocket][n]
		if e.Sys.Topo.Nodes[n].Kind == tier.DRAM && h.dramLat == 0 {
			h.dramLat = link.Latency
			h.dramNode = n
		}
		if e.Sys.Topo.Nodes[n].Kind != tier.DRAM && h.pmLat == 0 {
			h.pmLat = link.Latency
			h.pmNode = n
			h.fillCost = time.Duration(float64(hmcSectorBytes) / float64(link.Bandwidth) * float64(time.Second))
			h.writebackCost = writeAmp * h.fillCost
		}
	}

	h.eng = e
	e.Intercept = h.intercept
}

func (h *HMC) IntervalEnd(*sim.Engine) {}

// maxProbes bounds the tag probes per batched access; larger batches are
// sampled and the measured hit/miss mix is extrapolated to the batch.
const maxProbes = 32

// intercept charges n accesses (nw writes) to a page through the cache.
// A batch of n accesses touches up to n distinct lines of the page
// (random batches touch distinct lines; scans revisit them); the model
// probes a sample of those lines against the direct-mapped tag store and
// extrapolates the observed hit/miss mix to the whole batch.
func (h *HMC) intercept(v *vm.VMA, idx int, n, nw uint32, node tier.NodeID) time.Duration {
	base := v.Addr(idx) >> h.sectorBits
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
	perLine := n / uint32(distinct) // accesses per touched line
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
		// Pseudo-random line within the page, advancing across batches
		// so repeated random access probes fresh lines.
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
	// Extrapolate the sampled mix to the full batch: each touched line
	// costs a miss or a hit for its first access and DRAM hits for the
	// perLine-1 re-touches.
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
	// Cache traffic consumes real bandwidth: fills and writebacks hit
	// PM, every serviced access moves a line through DRAM.
	h.eng.Sys.RecordTransfer(node, int64(missLines)*hmcSectorBytes+int64(wbLines)*hmcSectorBytes*writeAmp)
	h.eng.Sys.RecordTransfer(h.dramNode, int64(hitLines+missLines)*hmcSectorBytes)
	return cost
}

// Stats returns (hits, misses, writebacks) for tests and reports.
func (h *HMC) Stats() (hits, misses, writebacks int64) {
	return h.hits, h.misses, h.writebacks
}
