package workload

import (
	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// Graph is a synthetic power-law graph in CSR layout over the simulated
// address space. Adjacency is implicit — neighbor lists are generated by
// hashing, so no host memory is spent on edges — but the CSR geometry
// (offsets, edge records, vertex properties) is laid out in simulated
// VMAs exactly as a real graph engine would, and traversals are real:
// frontier expansion uses a host-side visited structure and touches the
// simulated arrays for every edge scanned.
//
// The shape mirrors the Table 2 graph (0.9 B nodes / 14 B edges, scaled):
// a few high-degree hubs concentrate traffic, so frontier processing has
// hot structure a profiler can find.
type Graph struct {
	N        int
	offsets  []int64
	nEdges   int64
	edges    *vm.VMA
	props    *vm.VMA
	frontier *vm.VMA
}

const (
	edgeRec = 256 // bytes per edge record
	propRec = 512 // bytes per vertex property record
)

// hubEvery makes one vertex in this many a hub with boosted degree.
const hubEvery = 499

func newGraph(e *sim.Engine, n int, avgDeg int) *Graph {
	g := &Graph{N: n}
	g.offsets = make([]int64, n+1)
	var off int64
	for v := 0; v < n; v++ {
		g.offsets[v] = off
		off += int64(g.degree(v, avgDeg))
	}
	g.offsets[n] = off
	g.nEdges = off
	g.edges = e.AS.Alloc("graph.edges", off*edgeRec)
	g.props = e.AS.Alloc("graph.props", int64(n)*propRec)
	g.frontier = e.AS.Alloc("graph.frontier", max(int64(n)*8, 4*MB))
	initTouch(e, g.edges, g.props, g.frontier)
	return g
}

// degree is deterministic per vertex: a power-law-ish mix of a base
// degree and rare hubs.
func (g *Graph) degree(v, avgDeg int) int {
	h := rng.Mix64(uint64(v))
	d := avgDeg/2 + int(h%uint64(avgDeg))
	if h%hubEvery == 0 {
		d *= 24
	}
	return d
}

// neighbor returns the i-th neighbor of v (implicit, hashed). Half the
// edges land uniformly; the other half prefer low vertex IDs with a
// quadratic skew, giving the graph the power-law *in*-degree real graphs
// have. The popular-vertex property pages are the workload's hot set —
// touched once per in-edge per traversal — and they are contiguous at the
// front of the property array, which is what a region profiler can find.
func (g *Graph) neighbor(v, i int) int {
	h := rng.Mix64(uint64(v)*0x9e3779b97f4a7c15 + uint64(i))
	if h&1 == 0 {
		return int((h >> 1) % uint64(g.N))
	}
	f := float64(h>>11) / float64(1<<53)
	return int(f * f * float64(g.N))
}

// weight returns the i-th edge weight of v in [1, 4].
func (g *Graph) weight(v, i int) uint32 {
	return uint32(rng.Mix64(uint64(v)<<20|uint64(i))%4) + 1
}

// visit appends the simulated accesses of expanding vertex v with d
// neighbors to refs: the adjacency scan (sequential over the edge
// records), the neighbor property reads (random pages, one ref per 8
// neighbors), and the frontier bookkeeping. writes marks property updates
// (SSSP relaxation).
func (g *Graph) visit(refs []sim.Ref, v, d int, writes bool) []sim.Ref {
	if d == 0 {
		return refs
	}
	refs = touchRange(refs, g.edges, g.offsets[v]*edgeRec, int64(d)*edgeRec, edgeRec, false)
	for i := 0; i < d; i += 8 {
		cnt := uint32(min(d-i, 8))
		var nw uint32
		if writes {
			nw = cnt / 4
		}
		refs = append(refs, sim.Ref{V: g.props, Idx: pageOf(g.props, int64(g.neighbor(v, i))*propRec), N: cnt, NW: nw})
	}
	// Frontier structure: one write per discovered region of the queue.
	return append(refs, sim.Ref{V: g.frontier, Idx: pageOf(g.frontier, int64(v)*8%g.frontier.Bytes()), N: 1, NW: 1})
}

// warmGroup is how many frontier vertices warm loads ahead of their
// expansion. A whole opChunk is too many: its lines are evicted again
// before the expansion reaches them.
const warmGroup = 64

// warm loads the CSR offsets of vertices vs and returns the loads XORed
// together. The expansion stores after every vertex, which keeps about
// one vertex's cache misses in flight. This read-only pass has no such
// dependence, so the CPU overlaps the misses of the whole group and the
// expansion finds them in cache.
func (g *Graph) warm(vs []int32) int64 {
	var x int64
	for _, v := range vs {
		x ^= g.offsets[v]
	}
	return x
}

// graphWalk is the shared state machine of BFS and SSSP: a traversal in
// progress survives interval boundaries and resumes where it stopped.
type graphWalk struct {
	base
	g *Graph

	nVertices  int
	avgDeg     int
	traversals int
	sssp       bool

	visited []uint64
	dist    []uint32
	cur     []int32
	next    []int32
	curPos  int
	trav    int
	refs    chunkBufs

	warmSink int64 // Graph.warm's loads; never read
}

// NewBFS builds the parallel BFS workload of Table 2 (525 GB scaled).
func NewBFS(cfg Config) sim.Workload {
	return newWalk(cfg, false)
}

// NewSSSP builds the SSSP workload of Table 2 (same graph, relaxations
// re-visit vertices so each traversal does several times BFS's work).
func NewSSSP(cfg Config) sim.Workload {
	return newWalk(cfg, true)
}

func newWalk(cfg Config, sssp bool) *graphWalk {
	// 0.9 B vertices scaled: geometry chosen so the CSR footprint is
	// 525 GB / scale with 64 B edge records and 512 B property records.
	n := int(900e6 / float64(cfg.scale()) / 10)
	if n < 1<<16 {
		n = 1 << 16
	}
	w := &graphWalk{nVertices: n, avgDeg: 18, sssp: sssp}
	w.traversals = int(8 * cfg.opsFactorOrOne())
	if w.traversals < 1 {
		w.traversals = 1
	}
	if sssp {
		w.name = "SSSP"
	} else {
		w.name = "BFS"
	}
	// totalOps counts edge visits; SSSP's relaxation revisits raise it.
	w.totalOps = int64(w.traversals) * int64(n) * int64(w.avgDeg)
	if sssp {
		w.totalOps *= 2
	}
	return w
}

func (w *graphWalk) Init(e *sim.Engine) {
	w.g = newGraph(e, w.nVertices, w.avgDeg)
	w.visited = make([]uint64, (w.nVertices+63)/64)
	if w.sssp {
		w.dist = make([]uint32, w.nVertices)
	}
	w.startTraversal(e.Rng)
}

func (w *graphWalk) startTraversal(r *rng.Rand) {
	clear(w.visited)
	if w.sssp {
		for i := range w.dist {
			w.dist[i] = ^uint32(0)
		}
	}
	root := r.Intn(w.nVertices)
	w.cur = append(w.cur[:0], int32(root))
	w.next = w.next[:0]
	w.curPos = 0
	w.mark(root)
	if w.sssp {
		w.dist[root] = 0
	}
}

func (w *graphWalk) mark(v int) bool {
	word, bit := v/64, uint(v%64)
	if w.visited[word]&(1<<bit) != 0 {
		return false
	}
	w.visited[word] |= 1 << bit
	return true
}

func (w *graphWalk) RunInterval(e *sim.Engine) { e.RunChunks(w) }

// RunsAhead is true for BFS only: drawing ahead measured slower on SSSP
// (see sim.Lookahead).
func (w *graphWalk) RunsAhead() bool { return !w.sssp }

// NextChunk expands the next opChunk vertices of the current level, or the
// rest of it, and steps to the next level or traversal when the level is
// finished.
func (w *graphWalk) NextChunk(r *rng.Rand) []sim.Ref {
	// Expand a warmed group at a time. Expansion appends only to w.next,
	// so w.cur is fixed here.
	refs := w.refs.next()
	end := min(len(w.cur), w.curPos+opChunk)
	for w.curPos < end {
		group := w.cur[w.curPos:min(end, w.curPos+warmGroup)]
		w.warmSink ^= w.g.warm(group)
		for _, vid := range group {
			v := int(vid)
			w.curPos++
			d := int(w.g.offsets[v+1] - w.g.offsets[v])
			refs = w.g.visit(refs, v, d, w.sssp)
			w.doneOps += int64(d)
			if w.sssp {
				w.relax(v, d)
			} else {
				for i := 0; i < d; i++ {
					u := w.g.neighbor(v, i)
					if w.mark(u) {
						w.next = append(w.next, int32(u))
					}
				}
			}
		}
	}
	w.refs.keep(refs)
	if w.curPos >= len(w.cur) {
		// Level finished.
		w.cur, w.next = w.next, w.cur[:0]
		w.curPos = 0
		if len(w.cur) == 0 {
			// Traversal finished.
			if w.trav++; w.trav >= w.traversals {
				w.doneOps = w.totalOps
			} else {
				w.startTraversal(r)
			}
		}
	}
	return refs
}

// relax applies SSSP edge relaxations; improved vertices re-enter the
// frontier, which is what makes SSSP revisit memory BFS touches once.
func (w *graphWalk) relax(v, d int) {
	dv := w.dist[v]
	for i := 0; i < d; i++ {
		u := w.g.neighbor(v, i)
		nd := dv + w.g.weight(v, i)
		if nd < w.dist[u] {
			w.dist[u] = nd
			w.next = append(w.next, int32(u))
		}
	}
}
