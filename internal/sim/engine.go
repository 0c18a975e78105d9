// Package sim is the virtual-time simulation engine that everything else
// plugs into. It owns the clock, the tier system, and the address space,
// charges every application access its tier latency (with bandwidth
// contention), services page faults through the active solution's
// placement policy, and drives the profiling-interval loop:
//
//	interval start -> application runs -> profiling -> migration -> repeat
//
// Time is virtual: results are deterministic nanosecond accounting, not
// wall-clock measurements, which makes experiments reproducible on any
// host while preserving the relative performance the paper reports.
package sim

import (
	"runtime"
	"time"

	"mtm/internal/admission"
	"mtm/internal/fidelity"
	"mtm/internal/health"
	"mtm/internal/metrics"
	"mtm/internal/pebs"
	"mtm/internal/rng"
	"mtm/internal/span"
	"mtm/internal/tier"
	"mtm/internal/vm"
)

const (
	// CachelineBytes is the bytes moved per application access for
	// bandwidth accounting.
	CachelineBytes = 64
	// HomeSocket is the socket the application's threads run on.
	HomeSocket = 0
	// PerAccessCPU is the fixed non-memory cost of one application
	// operation; it keeps perfectly-placed workloads from becoming
	// infinitely fast and models core-side work.
	PerAccessCPU = 15 * time.Nanosecond
	// FaultCost is the fixed kernel cost of one demand-zero page fault,
	// excluding the page-zeroing copy (charged from tier bandwidth).
	FaultCost = 1500 * time.Nanosecond
)

// Solution is a complete page-management system under test: an initial
// placement policy plus per-interval profiling and migration. The engine
// calls IntervalStart before the application runs in an interval and
// IntervalEnd after; implementations charge their costs through the
// engine's Charge* methods.
type Solution interface {
	Name() string
	// Place chooses the node for a faulting (first-touched) page.
	Place(e *Engine, v *vm.VMA, idx int, socket int) tier.NodeID
	// IntervalStart runs before application execution in an interval
	// (e.g. to arm PEBS counters).
	IntervalStart(e *Engine)
	// IntervalEnd runs profiling and migration for the interval.
	IntervalEnd(e *Engine)
}

// RunPlacer is a Solution whose placement reads neither the page index nor
// the access accounting, so the engine can fault a run of first touches
// with one call per node. PlaceRun returns the node Place would return for
// any page of v faulted from socket, and keeps returning it while the node
// has room for a page of v. InitTouch places a set-up's first touches
// through PlaceRun (see initRun); Place serves every other fault.
type RunPlacer interface {
	PlaceRun(e *Engine, v *vm.VMA, socket int) tier.NodeID
}

// Workload is a simulated application. RunInterval runs one interval of
// it; each workload of internal/workload does so with the one line
// e.RunChunks(w), so the engine owns the interval loop and the workload
// only produces chunks (see Chunked).
type Workload interface {
	Name() string
	// Init allocates the workload's VMAs and builds its data structures.
	Init(e *Engine)
	// RunInterval executes one profiling interval's worth of work.
	RunInterval(e *Engine)
	// Done reports whether all work has completed.
	Done() bool
}

// Chunked is a workload that produces its work as op chunks. NextChunk
// returns the refs of the next chunk and does the chunk's end
// bookkeeping. It draws only from r and reads no engine state, so what it
// returns does not depend on how or when the refs are issued. The slice
// is the workload's and valid until the next call; a Lookahead's stays
// valid one call longer.
type Chunked interface {
	NextChunk(r *rng.Rand) []Ref
	Done() bool
}

// RunChunks issues w's chunks, each as one AccessBatch from HomeSocket,
// until the interval is exhausted or w is done. Drawing a chunk before
// its accesses keeps the stream of draws, because no access draws from
// Rng. A Lookahead that runs ahead, given a second P, goes through
// runAhead, which draws a chunk on a second goroutine only where this
// loop would draw that same chunk next.
func (e *Engine) RunChunks(w Chunked) {
	if la, ok := w.(Lookahead); ok && la.RunsAhead() && runtime.GOMAXPROCS(0) > 1 {
		e.runAhead(la)
		return
	}
	for !e.IntervalExhausted() && !w.Done() {
		e.AccessBatch(w.NextChunk(e.Rng), HomeSocket)
	}
}

// RobustnessCounters count transactional migration and the emergency
// out-of-memory path (non-zero only under fault injection or capacity
// emergencies).
type RobustnessCounters struct {
	MigrationRetries   int64 // page-copy attempts retried after EBUSY
	MigrationAborts    int64 // page-move transactions rolled back
	WastedBytes        int64 // copy bytes thrown away by aborts
	DeferredPromotions int64 // promotions deferred by admission control
	EmergencyDemotions int64 // emergency-reclaim events in the fault path
}

// HealthCounters count tier-health events (non-zero only with
// EnableHealth; omitted from Result JSON while zero, so health-free
// Result JSON is unchanged).
type HealthCounters struct {
	PoisonedPages    int64 `json:",omitempty"` // pages lost to uncorrectable memory errors
	PoisonRecoveries int64 `json:",omitempty"` // recovery faults taken on poisoned pages
	DrainedBytes     int64 `json:",omitempty"` // bytes evacuated off draining tiers
	BreakerTrips     int64 `json:",omitempty"` // migration circuit-breaker trips
	DrainStalls      int64 `json:",omitempty"` // drain steps stalled with no destination
}

// AdmissionCounters count admission-control decisions (non-zero only with
// EnableAdmission; omitted from Result JSON while zero).
type AdmissionCounters struct {
	AdmissionAdmits  int64 `json:",omitempty"` // planned moves admitted (possibly clipped)
	AdmissionDefers  int64 `json:",omitempty"` // planned moves deferred (budget / shedding)
	AdmissionRejects int64 `json:",omitempty"` // planned moves rejected (ROI / victim heat)
	ThrashSuppressed int64 `json:",omitempty"` // page moves blocked by the ping-pong cool-down
}

// ShadowCounters count non-exclusive tiering (non-zero only when the
// active policy retained shadow frames; omitted from Result JSON while
// zero).
type ShadowCounters struct {
	ShadowHits          int64 `json:",omitempty"` // demotion lookups that found a valid shadow
	ShadowInvalidations int64 `json:",omitempty"` // shadows diverged by a write to the fast copy
	FreeDemotions       int64 `json:",omitempty"` // demotions completed as zero-copy flips
	FreeDemotionBytes   int64 `json:",omitempty"` // bytes demoted without copying
	ShadowSyncBytes     int64 `json:",omitempty"` // bytes re-copied to shadows in the background
}

// Engine is the simulation core. Not safe for concurrent use: a run
// executes on the goroutine that drives it, except that RunChunks may
// draw a Lookahead's next chunk from Rng on a goroutine of its own, which
// it joins before it returns and never while anything else uses Rng.
type Engine struct {
	Sys *tier.System
	AS  *vm.AddressSpace
	// Rng is the run's main random stream: math/rand's stream for Seed,
	// drawn without an interface call per draw (see internal/rng).
	Rng *rng.Rand
	// Seed is the value Rng was created from; the scan passes derive
	// their per-shard streams from it (see Scratch.Rand).
	Seed int64

	scratch Scratch // reusable scan-pass state (see scratch.go)

	Threads  int
	Interval time.Duration

	PEBS *pebs.Buffer // optional; solutions arm/disarm it

	// Intercept, when non-nil, replaces the default per-node latency
	// charge of Access with a solution-computed cost. The hardware-
	// managed-cache baseline (Optane Memory Mode) uses it to model
	// DRAM-as-cache hits, misses, and write amplification. It stays a
	// per-ref hook because run-ahead's budgetHolds bounds an access by
	// the slowest node's latency, and a miss with a dirty writeback
	// costs more than that.
	Intercept func(v *vm.VMA, idx int, n, nw uint32, node tier.NodeID) time.Duration

	// Observer, when non-nil, sees every application access after it is
	// charged. The host-cost benchmark (bench/trace.go) counts access
	// calls through it. It must not issue accesses itself.
	Observer func(v *vm.VMA, idx int, n, nw uint32, socket int)

	sol    Solution
	runs   RunPlacer // sol, when it is one; nil otherwise
	faults FaultPlane
	failed error                  // sticky first failure, an *OOMError
	met    *engineMetrics         // nil unless EnableMetrics was called
	sp     *span.Tracer           // nil unless EnableSpans was called
	hlt    *healthState           // nil unless EnableHealth was called
	adm    *admissionState        // nil unless EnableAdmission was called
	shd    *shadowState           // nil unless EnableShadow was called
	fid    *fidelityState         // nil unless EnableFidelity was called
	lin    *lineage               // nil unless the oracle or the admission learner is on
	evSeen map[[2]string]struct{} // per-interval event dedup (emitEventOnce)
	pairs  []pairInfo             // one per ordered node pair, src*n + dst (see pair)

	clock time.Duration

	// Interval accumulators.
	intApp      time.Duration
	intProf     time.Duration
	intMig      time.Duration
	intBg       time.Duration
	intPromoted int64
	intDemoted  int64
	intAccesses []int64   // app accesses per node; Sys counts them as demand
	contention  []float64 // per-node factor from previous interval
	appAccesses []int64   // intAccesses summed over finished intervals

	// Cumulative stats.
	TotalApp      time.Duration
	TotalProf     time.Duration
	TotalMig      time.Duration
	TotalBg       time.Duration
	NodeAccesses  []int64 // app accesses per node, cumulative
	TotalAccesses int64
	TotalFaults   int64
	PromotedBytes int64
	DemotedBytes  int64
	Intervals     int

	// Run counters; Run copies each block into the Result.
	RobustnessCounters
	HealthCounters
	AdmissionCounters
	ShadowCounters
	shadowRetains int64 // promotions that retained their source frame
	shadowDrops   int64 // shadows dropped (pressure/poison/drain/stale)
	transitions   int64 // tier health-state transitions

	// Committed-move ledger and residency bookkeeping for Audit.
	committedPages int64
	committedBytes int64
	poisonedBytes  int64
	taxBytes       []int64 // per-node co-tenant capacity tax (may be nil)
	opaqueBytes    []int64 // per-node solution carve-outs (may be nil)
	drainStallErr  error   // last ErrNoDestination, wrapped

	latCache [][]time.Duration // [socket][node] unloaded link latency
	latNow   [][]time.Duration // latCache scaled by contention; see refreshLatency
	warmSink tier.NodeID       // AccessBatch's warm-pass loads; never read
}

// NewEngine builds an engine over the topology with the paper's default
// settings: 8 threads on socket 0, 10 s profiling interval.
func NewEngine(topo *tier.Topology, seed int64) *Engine {
	sys := tier.NewSystem(topo)
	n := len(topo.Nodes)
	e := &Engine{
		Sys:          sys,
		AS:           vm.NewAddressSpace(),
		Rng:          rng.New(seed),
		Seed:         seed,
		Threads:      8,
		Interval:     10 * time.Second,
		intAccesses:  make([]int64, n),
		contention:   make([]float64, n),
		appAccesses:  make([]int64, n),
		NodeAccesses: make([]int64, n),
	}
	for i := range e.contention {
		e.contention[i] = 1
	}
	sys.CountLines(e.intAccesses, CachelineBytes)
	e.latCache = make([][]time.Duration, topo.Sockets)
	e.latNow = make([][]time.Duration, topo.Sockets)
	for s := range e.latCache {
		e.latCache[s] = make([]time.Duration, n)
		e.latNow[s] = make([]time.Duration, n)
		for i := range e.latCache[s] {
			e.latCache[s][i] = topo.Links[s][i].Latency
		}
	}
	e.refreshLatency()
	e.pairs = make([]pairInfo, n*n)
	for i := range e.pairs {
		src, dst := tier.NodeID(i/n), tier.NodeID(i%n)
		e.pairs[i] = pairInfo{src: src, dst: dst,
			promote: topo.Rank(HomeSocket, dst) < topo.Rank(HomeSocket, src)}
	}
	return e
}

// pairInfo is what the engine knows about one ordered pair of nodes: the
// way a move between them points, the pair's name, the counts of its
// moves and its circuit breaker.
type pairInfo struct {
	src, dst tier.NodeID
	promote  bool   // dst ranks ahead of src in HomeSocket's view
	name     string // "src->dst", set by EnableMetrics so events never format

	// Per-pair migration counts, kept whether metrics are on or not.
	moved, aborted, retried, backoffNs int64

	brk    health.Breaker // consulted only with health on
	minROI *metrics.Gauge // nil without metrics and learned admission
}

// pair returns the record of the move src→dst, or nil unless both are
// nodes of the machine and they differ: a page with no frame yet
// (vm.NoNode) or an unknown node is not a move between tiers. It is the
// engine's one pair test.
func (e *Engine) pair(src, dst tier.NodeID) *pairInfo {
	n := len(e.Sys.Topo.Nodes)
	if uint(src) >= uint(n) || uint(dst) >= uint(n) || src == dst {
		return nil
	}
	return &e.pairs[int(src)*n+int(dst)]
}

// dir classifies the pair for admission: toward a faster tier is a
// promotion, anything else a demotion.
func (p *pairInfo) dir() admission.Direction {
	if p.promote {
		return admission.DirPromote
	}
	return admission.DirDemote
}

// refreshLatency recomputes the per-access latency each node charges this
// interval. It runs wherever contention changes (NewEngine, endInterval),
// so the access path reads one table entry instead of multiplying.
func (e *Engine) refreshLatency() {
	for s, row := range e.latNow {
		for i := range row {
			row[i] = time.Duration(float64(e.latCache[s][i]) * e.contention[i])
		}
	}
}

// Contention returns the bandwidth-contention factor of node n carried
// over from the previous interval (>= 1).
func (e *Engine) Contention(n tier.NodeID) float64 { return e.contention[n] }

// SetSolution installs the solution; exposed for tests that drive the
// interval loop manually.
func (e *Engine) SetSolution(s Solution) {
	e.sol = s
	e.runs, _ = s.(RunPlacer)
}

// Ref is one entry of an access batch: N application accesses, NW of
// them writes, to page Idx of V. V is never nil, even when N == 0.
type Ref struct {
	V     *vm.VMA
	Idx   int
	N, NW uint32
}

// Access simulates n application accesses (nw of them writes) to page idx
// of v from the given socket. Non-present pages fault and are placed by
// the active solution. It is AccessBatch with one ref.
func (e *Engine) Access(v *vm.VMA, idx int, n, nw uint32, socket int) {
	e.AccessBatch([]Ref{{V: v, Idx: idx, N: n, NW: nw}}, socket)
}

// AccessBatch simulates refs, in order, as accesses from the given socket:
// the result equals one Access per ref. A batch may mix VMAs. Refs with
// N == 0 do nothing, and once the engine has failed the rest of the batch
// does nothing.
//
// While neither Intercept nor Observer is installed, accessRun takes each
// run of refs that hit present pages. The loop here takes the other refs
// one at a time, through the engine's fields: the fault path if the page
// is not present, TouchN, then Intercept, the sampler and Observer. So
// every hook sees the engine exactly as after the preceding refs' Access
// calls.
func (e *Engine) AccessBatch(refs []Ref, socket int) {
	if e.failed != nil {
		return
	}
	// One ref has no misses to overlap, and while every VMA's records fit
	// in L2 the pass only adds work.
	if len(refs) > 1 && e.AS.MaxPages() > cachedPages {
		e.warm(refs)
	}
	lat := e.latNow[socket]
	for ; len(refs) > 0; refs = refs[1:] {
		if e.Intercept == nil && e.Observer == nil && refs[0].V.Present(refs[0].Idx) {
			n, sample := e.accessRun(refs, socket)
			if refs = refs[n:]; len(refs) == 0 {
				return
			}
			if sample != vm.NoNode {
				e.PEBS.Record(refs[0].V, refs[0].Idx, sample, refs[0].N)
				continue
			}
		}
		r, v := refs[0], refs[0].V
		if r.N == 0 {
			continue
		}
		if !v.Present(r.Idx) && !e.handleFault(v, r.Idx, socket) {
			return // placement failed; the engine carries the error
		}
		if r.NW != 0 && v.ShadowValid(r.Idx) {
			// The write diverges the fast copy from its shadow, which
			// TouchN marks stale. The shadow and its frame stay; the
			// background sync may revalidate it later.
			e.ShadowInvalidations++
		}
		node, _ := v.TouchN(r.Idx, r.N, r.NW, socket)
		if e.Intercept != nil {
			e.intApp += e.Intercept(v, r.Idx, r.N, r.NW, node) + time.Duration(r.N)*PerAccessCPU
		} else {
			e.intApp += time.Duration(r.N) * (lat[node] + PerAccessCPU)
		}
		e.intAccesses[node] += int64(r.N)
		e.NodeAccesses[node] += int64(r.N)
		e.TotalAccesses += int64(r.N)
		if e.PEBS != nil {
			e.PEBS.Record(v, r.Idx, node, r.N)
		}
		if e.Observer != nil {
			e.Observer(v, r.Idx, r.N, r.NW, socket)
		}
		if e.failed != nil {
			return
		}
	}
}

// cachedPages is the most pages a VMA can have while its page records
// stay in the host's L2: 2^16 records of 12 bytes are 768 KB. AccessBatch
// warms a batch only in an address space with a larger VMA, a chunk that
// runs ahead included. The test is on the address space, not on the
// batch's VMAs, so a batch that leads with a small VMA (Cassandra's index,
// VoltDB's warehouse) keeps its warm pass on 4 KB pages, and it costs no
// pass over the refs.
const cachedPages = 1 << 16

// warm loads the page record of every ref. accessRun spends tens of
// instructions per ref, a read-modify-write of its page record among
// them, so the CPU's reorder window holds the cache misses of only a few
// refs at a time. This pass spends a few instructions per ref and stores
// one word, so the window holds many refs' misses at once, and accessRun
// then finds their records in cache. The word is the loaded nodes ORed
// into warmSink, which keeps the compiler from dropping the loads.
func (e *Engine) warm(refs []Ref) {
	var nodes tier.NodeID
	for _, r := range refs {
		nodes |= r.V.Node(r.Idx)
	}
	e.warmSink ^= nodes
}

// accessRun charges the leading refs that hit a present page, take no PEBS
// sample and write no page whose shadow is valid; AccessBatch calls it only
// while neither Intercept nor Observer is installed. It returns how many
// refs it charged. If it stopped at a ref that takes a PEBS sample, it
// charged all of that ref but the sample and returns the ref's node as
// sample for the caller to Record; otherwise sample is NoNode. It charges
// nothing while a sample-drop storm makes every access go through Record.
//
// The loop calls nothing, so its sums stay in registers or on the stack.
// Per ref it adds N to one local count per node; when the run ends it
// folds the counts into the node's intAccesses (also its bandwidth
// demand, Sys.CountLines), NodeAccesses, TotalAccesses and the app time,
// before the caller runs any hook. Every one of them is an integer sum,
// and ΣN·lat[node] over a node's refs is lat[node]·ΣN mod 2^64, so
// folding changes no bit. The PEBS carry stays in a local too: each
// watched ref adds Record's step to it, in Record's order, and every
// other ref adds +0.
func (e *Engine) accessRun(refs []Ref, socket int) (n int, sample tier.NodeID) {
	// on[node] is 1 for a node the sampler watches and 0 for the others,
	// all 0 with no buffer (see pebs.Buffer.HitState).
	var on [tier.MaxNodes]float64
	var frac, carry float64
	if e.PEBS != nil {
		table, f, c, ok := e.PEBS.HitState()
		if !ok {
			return 0, vm.NoNode
		}
		copy(on[:], table)
		frac, carry = f, c
	}
	lat := e.latNow[socket]
	// tier.Topology.Validate bounds the node count, so every node has a
	// slot and none shares one.
	var counts [tier.MaxNodes]int64
	cnt := counts[:len(lat)]
	sample = vm.NoNode
	for ; n < len(refs); n++ {
		r := refs[n]
		if r.N == 0 {
			continue
		}
		node := r.V.TouchHit(r.Idx, r.N, r.NW, socket)
		if node == vm.NoNode {
			break
		}
		cnt[node] += int64(r.N)
		// Record's sample-free path, on the carry in a register and with
		// no branch on the node: an unwatched node's step is +0, which
		// leaves the carry's bits as they are, because the carry is never
		// −0 (see HitState). A watched node's exp is Record's own.
		exp := float64(r.N)*frac/pebs.SamplePeriod*on[node] + carry
		if !(exp > -1 && exp < 1) {
			sample = node
			break
		}
		carry = exp
	}
	// Every per-node slice has one entry per node; saying so lets the
	// compiler drop their bounds checks.
	acc, na := e.intAccesses[:len(cnt)], e.NodeAccesses[:len(cnt)]
	var mem time.Duration // the refs' latency; PerAccessCPU is added once
	var total int64
	for i, c := range cnt {
		mem += time.Duration(c) * lat[i]
		acc[i] += c
		na[i] += c
		total += c
	}
	e.intApp += mem + time.Duration(total)*PerAccessCPU
	e.TotalAccesses += total
	if e.PEBS != nil {
		e.PEBS.SetCarry(carry)
	}
	return n, sample
}

// chargeFaults charges the demand-zero faults of k pages of v that were
// just placed, and reserved, on node from socket: per page the kernel's
// fixed cost plus zeroing the page at the node's best bandwidth. Every
// charge is an integer sum, and the zero-fill time depends only on the
// socket, the node and the page size, since a Topology's links are fixed,
// so k faults at once charge what k one at a time do.
func (e *Engine) chargeFaults(v *vm.VMA, node tier.NodeID, k int64, socket int) {
	e.TotalFaults += k
	zero := e.Sys.CopyTime(socket, node, node, v.PageSize)
	e.intApp += time.Duration(k) * (FaultCost + zero)
	e.Sys.RecordTransfer(node, k*v.PageSize)
}

// InitTouch first-touches every page of vmas, in order, with one write
// from socket, then zeroes the ground-truth counters: it equals one
// Access(v, idx, 1, 1, socket) per page followed by AS.ResetCounts(). It
// models a workload's set-up, the initialisation loop whose first touches
// make first-touch placement address-ordered, and leaves the first
// interval to see steady-state traffic only.
//
// While the engine has not failed, no Intercept or Observer is installed,
// the sampler is nil or disarmed and the solution is a RunPlacer,
// initRun places a VMA a node run at a time. Where it stops short, the
// rest of the VMA takes AccessBatch, 64 refs at a time, so fallback
// placement, shadow and emergency reclaim, OOM and every hook see the
// engine exactly as under one Access per page.
func (e *Engine) InitTouch(socket int, vmas ...*vm.VMA) {
	bulk := e.Intercept == nil && e.Observer == nil && e.runs != nil &&
		(e.PEBS == nil || !e.PEBS.Armed())
	uncounted := 0 // vmas[uncounted:i] were placed whole by initRun
	for i, v := range vmas {
		if e.failed != nil {
			break
		}
		pg := 0
		if bulk {
			if pg = e.initRun(v, socket); pg == v.NPages {
				continue
			}
		}
		// initRun leaves the counters untouched, which ResetCounts would
		// zero anyway; the fallback's emergency reclaim picks its victims
		// by count, so the pages placed so far get theirs first.
		for _, u := range vmas[uncounted:i] {
			countFirstWrites(u, u.NPages, socket)
		}
		countFirstWrites(v, pg, socket)
		uncounted = i + 1
		var buf [64]Ref
		for ; pg < v.NPages; pg += len(buf) {
			refs := buf[:min(len(buf), v.NPages-pg)]
			for j := range refs {
				refs[j] = Ref{V: v, Idx: pg + j, N: 1, NW: 1}
			}
			e.AccessBatch(refs, socket)
		}
	}
	e.AS.ResetCounts()
}

// initRun places the leading pages of v, which InitTouch first-touches,
// and returns how many it placed. Per node it asks PlaceRun once, places
// as many pages as the node has room for, charges their faults through
// chargeFaults and folds their accesses into the per-node and total
// counts and the app time, then asks again. It stops at a node that is
// tier.Invalid or has no room and where FirstWriteRange stops: a present
// page, a poisoned page or a valid shadow. It writes no counter, no write
// count and no touched bit (see countFirstWrites).
func (e *Engine) initRun(v *vm.VMA, socket int) int {
	lat := e.latNow[socket]
	pg := 0
	for pg < v.NPages {
		node := e.runs.PlaceRun(e, v, socket)
		if node == tier.Invalid {
			break
		}
		end := pg + int(min(e.Sys.Free(node)/v.PageSize, int64(v.NPages-pg)))
		next := v.FirstWriteRange(pg, end, node, socket)
		k := int64(next - pg)
		if k == 0 {
			break
		}
		e.Sys.Reserve(node, k*v.PageSize)
		e.chargeFaults(v, node, k, socket)
		e.intAccesses[node] += k
		e.NodeAccesses[node] += k
		e.TotalAccesses += k
		e.intApp += time.Duration(k) * (lat[node] + PerAccessCPU)
		if pg = next; next < end {
			break // a page the run cannot take
		}
	}
	return pg
}

// countFirstWrites gives pages [0, n) of v the counters one write from
// socket adds, which initRun left out.
func countFirstWrites(v *vm.VMA, n, socket int) {
	for i := range n {
		v.TouchHit(i, 1, 1, socket)
	}
}

// handleFault places a first-touched page via the solution, falling back
// to any node with space when the preferred node is full and to emergency
// demotion when every node is full. On true exhaustion it records a sticky
// *OOMError and reports false instead of panicking.
func (e *Engine) handleFault(v *vm.VMA, idx int, socket int) bool {
	if e.hlt != nil && v.IsPoisoned(idx) {
		// HWPOISON recovery: the app touched a quarantined page. The
		// machine-check + SIGBUS-handler round trip is charged to the
		// app, the dead frame is acknowledged, and the fault proceeds as
		// demand-zero onto a healthy tier.
		e.poisonRecovery(v, idx)
	}
	node := e.sol.Place(e, v, idx, socket)
	if node == tier.Invalid || !e.Sys.Reserve(node, v.PageSize) {
		node = e.Sys.FirstFit(e.Sys.Topo.View(socket), v.PageSize)
		if node == tier.Invalid {
			// Shadow frames are soft capacity: reclaim them (oldest
			// first) before resorting to emergency demotion.
			node = e.shadowReclaimFor(e.Sys.Topo.View(socket), v.PageSize)
		}
		if node == tier.Invalid {
			node = e.emergencyReclaim(socket, v.PageSize)
		}
		if node == tier.Invalid {
			e.fail(&OOMError{VMA: v.String(), Page: idx, Need: v.PageSize})
			return false
		}
		e.Sys.Reserve(node, v.PageSize)
	}
	v.Place(idx, node)
	e.chargeFaults(v, node, 1, socket)
	return true
}

// MovePage rebinds page idx of v from its current node to dst, updating
// capacity accounting. It does not charge time; the caller does. It
// reports whether the move happened (false when dst is full). It commits
// without a copy attempt, so the fault plane never fails it: emergency
// demotion, which runs inside the fault path, moves pages this way.
// Mechanisms and the health drain move pages with CopyPage.
func (e *Engine) MovePage(v *vm.VMA, idx int, dst tier.NodeID) bool {
	src := v.Node(idx)
	if src == dst {
		return true
	}
	if !e.reserveMove(v, dst) {
		return false
	}
	e.commitMove(v, idx, src, dst, false)
	return true
}

// ChargeProfiling adds d to the interval's profiling (critical-path) cost.
func (e *Engine) ChargeProfiling(d time.Duration) { e.intProf += d }

// ChargeMigration adds d to the interval's critical-path migration cost.
func (e *Engine) ChargeMigration(d time.Duration) { e.intMig += d }

// ChargeBackground adds d of off-critical-path work (async page copy);
// it occupies helper threads and bandwidth but does not extend execution.
func (e *Engine) ChargeBackground(d time.Duration) { e.intBg += d }

// NotePromotion/NoteDemotion record migrated volume for the statistics
// tables.
func (e *Engine) NotePromotion(bytes int64) { e.intPromoted += bytes }
func (e *Engine) NoteDemotion(bytes int64)  { e.intDemoted += bytes }

// NoteOpaqueReserve records bytes a solution reserved on a node outside
// the page tables (e.g. HMC carving out all of DRAM as a memory-side
// cache). The auditor credits them against the node's used ledger, which
// would otherwise read as unexplained residency.
func (e *Engine) NoteOpaqueReserve(n tier.NodeID, bytes int64) {
	if e.opaqueBytes == nil {
		e.opaqueBytes = make([]int64, len(e.Sys.Topo.Nodes))
	}
	e.opaqueBytes[n] += bytes
}

// AppTimeThisInterval returns the application time consumed so far in the
// current interval, normalised for thread parallelism.
func (e *Engine) AppTimeThisInterval() time.Duration {
	return e.intApp / time.Duration(e.Threads)
}

// IntervalExhausted reports whether the application has consumed its
// interval budget. A failed engine (out of memory) always reports true so
// RunChunks stops instead of spinning on no-op accesses.
func (e *Engine) IntervalExhausted() bool {
	return e.failed != nil || e.AppTimeThisInterval() >= e.Interval
}

func (e *Engine) beginInterval() {
	if e.faults != nil {
		e.faults.BeginInterval(e.Intervals)
	}
	e.metricsBeginInterval()
	e.intApp, e.intProf, e.intMig, e.intBg = 0, 0, 0, 0
	e.intPromoted, e.intDemoted = 0, 0
	clear(e.intAccesses)
	e.Sys.ResetWindow(e.Interval)
	e.spansBeginInterval()
	e.healthBeginInterval()
}

func (e *Engine) endInterval() {
	e.healthEndInterval()
	// The fidelity oracle samples here: after the solution's migration
	// pass and before ResetCounts (the page records' counts are its ground truth).
	// The lineage ledger then resolves this interval's verdicts from the
	// same counts, feeding the oracle and the admission learner. Both
	// run before spansEndInterval so outcome events parent into the open
	// interval.
	e.fidelityEndInterval()
	e.lineageResolve()
	// The admission layer's once-per-interval work — demand-scaled refill,
	// floor adaptation from the verdicts just resolved, and the starvation
	// watchdog — runs before spansEndInterval so watchdog events parent
	// into the open interval.
	e.admissionEndInterval()
	app := e.AppTimeThisInterval()
	e.spansEndInterval(app)
	e.clock += app + e.intProf + e.intMig
	e.TotalApp += app
	e.TotalProf += e.intProf
	e.TotalMig += e.intMig
	e.TotalBg += e.intBg
	e.PromotedBytes += e.intPromoted
	e.DemotedBytes += e.intDemoted
	// Contention factors for the next interval come from this one's
	// observed demand (a one-interval lag keeps the model causal).
	for i := range e.contention {
		e.contention[i] = e.Sys.ContentionFactor(tier.NodeID(i))
		e.appAccesses[i] += e.intAccesses[i]
	}
	e.refreshLatency()
	e.Intervals++
	e.metricsEndInterval(app)
	e.AS.ResetCounts()
	// Fold-and-zero: the interval volumes are in the cumulative totals
	// now, so zeroing here (not only at the next beginInterval) keeps the
	// committed-move ledger checkable between intervals (see Audit).
	e.intPromoted, e.intDemoted = 0, 0
}

// RunInterval executes exactly one profiling interval: solution start
// hook, application execution, solution end hook, bookkeeping.
func (e *Engine) RunInterval(w Workload) {
	e.beginInterval()
	e.sol.IntervalStart(e)
	if e.faults != nil && e.PEBS != nil {
		// Sample-drop storms apply to the window the solution just armed.
		e.PEBS.DropFrac = e.faults.SampleDropFrac()
	}
	w.RunInterval(e)
	e.sol.IntervalEnd(e)
	e.endInterval()
}

// Result summarises a complete run.
type Result struct {
	Solution   string
	Workload   string
	ExecTime   time.Duration
	App        time.Duration
	Profiling  time.Duration
	Migration  time.Duration
	Background time.Duration
	Intervals  int
	Completed  bool
	// Truncated reports that maxIntervals elapsed before the workload
	// finished: the run is a partial result, not a completed one.
	Truncated     bool
	NodeAccesses  []int64
	TotalAccesses int64
	PromotedBytes int64
	DemotedBytes  int64

	RobustnessCounters
	HealthCounters
	// TierStates is the final health state per node, in node order; nil
	// without the health subsystem.
	TierStates []string `json:",omitempty"`

	AdmissionCounters
	// AdmissionLanes breaks admission activity down by traffic class
	// (normal / drain / emergency) when priority lanes are enabled; nil
	// otherwise so lane-free Result JSON is unchanged.
	AdmissionLanes *LaneStats `json:",omitempty"`

	ShadowCounters

	// MigratedBytes is the copy traffic actually paid for migration:
	// promoted plus demoted volume minus the demotions that completed as
	// zero-copy shadow flips.
	MigratedBytes int64

	// Fidelity is the ground-truth oracle report (profiler accuracy,
	// migration outcome lineage, hotness heatmap) when the engine ran with
	// EnableFidelity; nil otherwise so fidelity-off Result JSON is
	// unchanged.
	Fidelity *fidelity.Report `json:",omitempty"`

	// Metrics is the full observability export (instrument values,
	// per-interval time series, event log) when the engine ran with
	// EnableMetrics; nil otherwise.
	Metrics *metrics.Export `json:",omitempty"`

	// Spans is the deterministic span trace (interval pipeline spans and
	// migration decision provenance) when the engine ran with
	// EnableSpans; nil otherwise.
	Spans *span.Export `json:",omitempty"`
}

// Run drives workload w under solution sol until the workload completes,
// maxIntervals elapse, or the engine fails (out of memory). It returns the
// summary alongside the engine's failure, if any; the summary covers the
// partial run in the error case.
func Run(e *Engine, w Workload, sol Solution, maxIntervals int) (*Result, error) {
	e.SetSolution(sol)
	e.sp.SetMeta("solution", sol.Name())
	e.sp.SetMeta("workload", w.Name())
	w.Init(e)
	for i := 0; i < maxIntervals && !w.Done() && e.failed == nil; i++ {
		e.RunInterval(w)
	}
	na := make([]int64, len(e.NodeAccesses))
	copy(na, e.NodeAccesses)
	return &Result{
		Solution:           sol.Name(),
		Workload:           w.Name(),
		ExecTime:           e.clock,
		App:                e.TotalApp,
		Profiling:          e.TotalProf,
		Migration:          e.TotalMig,
		Background:         e.TotalBg,
		Intervals:          e.Intervals,
		Completed:          w.Done() && e.failed == nil,
		Truncated:          e.failed == nil && !w.Done(),
		NodeAccesses:       na,
		TotalAccesses:      e.TotalAccesses,
		PromotedBytes:      e.PromotedBytes,
		DemotedBytes:       e.DemotedBytes,
		RobustnessCounters: e.RobustnessCounters,
		HealthCounters:     e.HealthCounters,
		AdmissionCounters:  e.AdmissionCounters,
		AdmissionLanes:     e.AdmissionLaneStats(),
		ShadowCounters:     e.ShadowCounters,
		MigratedBytes:      e.PromotedBytes + e.DemotedBytes - e.FreeDemotionBytes,
		TierStates:         e.TierStates(),
		Fidelity:           e.FidelityReport(),
		Metrics:            e.MetricsExport(),
		Spans:              e.SpansExport(),
	}, e.failed
}
