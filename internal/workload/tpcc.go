package workload

import (
	"mtm/internal/rng"
	"mtm/internal/sim"
	"mtm/internal/vm"
)

// VoltDB models the in-memory database arm of Table 2: VoltDB running
// TPC-C with 5000 warehouses (scaled). The schema keeps TPC-C's shape —
// tiny hot warehouse/district/item tables, large customer and stock
// tables, and append-only order/history regions — and the client model
// keeps its locality: each client has a home warehouse receiving most of
// its transactions, with homes re-assigned periodically so the hot set
// drifts (the workload property §6.1's EMA exists to track).
type VoltDB struct {
	base

	warehouses int // TPC-C warehouse count (5000 / scale, at least 16)
	// reassignOps re-draws client home warehouses every so many
	// transactions (0 disables).
	reassignOps int64

	warehouse, district, item     *vm.VMA
	customer, stock, orders, hist *vm.VMA
	custPerWh, stockPerWh         int64 // bytes per warehouse in each table
	homes                         []int
	orderCursor                   int64
	reassignLeft                  int64
	refs                          chunkBufs
}

const (
	voltdbClients = 8
	// voltdbHomeFrac is the share of a client's transactions against its
	// home warehouse.
	voltdbHomeFrac = 0.75
)

// NewVoltDB sizes the database to the paper's 300 GB TPC-C instance
// divided by the scale.
func NewVoltDB(cfg Config) *VoltDB {
	w := &VoltDB{
		warehouses:  int(5000 / cfg.scale()),
		reassignOps: cfg.ops(3.5e9) / 6,
	}
	if w.warehouses < 16 {
		w.warehouses = 16
	}
	w.name = "VoltDB"
	w.totalOps = cfg.ops(3.5e9) // transactions
	return w
}

func (w *VoltDB) Init(e *sim.Engine) {
	scale := int64(w.warehouses)
	// Footprint split mirrors TPC-C's row populations: customer and
	// stock dominate; orders/history grow but are modelled at steady
	// state; warehouse/district/item stay resident-hot.
	w.customer = e.AS.Alloc("tpcc.customer", 24*MB*scale)
	w.stock = e.AS.Alloc("tpcc.stock", 30*MB*scale)
	w.orders = e.AS.Alloc("tpcc.orders", 6*MB*scale)
	w.hist = e.AS.Alloc("tpcc.history", 2*MB*scale)
	w.warehouse = e.AS.Alloc("tpcc.warehouse", max(scale*4096, 2*MB))
	w.district = e.AS.Alloc("tpcc.district", max(scale*40*1024, 2*MB))
	w.item = e.AS.Alloc("tpcc.item", 16*MB)
	w.custPerWh = w.customer.Bytes() / scale
	w.stockPerWh = w.stock.Bytes() / scale
	w.homes = make([]int, voltdbClients)
	w.assignHomes(e.Rng)
	initTouch(e, w.customer, w.stock, w.orders, w.hist, w.warehouse, w.district, w.item)
}

func (w *VoltDB) assignHomes(r *rng.Rand) {
	for i := range w.homes {
		w.homes[i] = r.Intn(w.warehouses)
	}
	w.reassignLeft = w.reassignOps
}

// Stock is the stock table's VMA, for experiments that inspect placement.
func (w *VoltDB) Stock() *vm.VMA { return w.stock }

func (w *VoltDB) RunInterval(e *sim.Engine) { e.RunChunks(w) }

// RunsAhead is true: a chunk of transactions costs more to draw than to
// hand to the engine on another core (see sim.Lookahead).
func (w *VoltDB) RunsAhead() bool { return true }

// NextChunk draws one chunk of opChunk transactions.
func (w *VoltDB) NextChunk(r *rng.Rand) []sim.Ref {
	refs := w.refs.next()
	for i := 0; i < opChunk; i++ {
		refs = w.transaction(r, refs)
	}
	w.refs.keep(refs)
	w.doneOps += opChunk
	if w.reassignOps > 0 {
		w.reassignLeft -= opChunk
		if w.reassignLeft <= 0 {
			w.assignHomes(r)
		}
	}
	return refs
}

// transaction appends the refs of one TPC-C-shaped transaction (a blend
// of NewOrder and Payment, which dominate the mix) to refs: warehouse and
// district reads, a customer row update, a handful of item reads and
// stock updates, and an order append.
func (w *VoltDB) transaction(r *rng.Rand, refs []sim.Ref) []sim.Ref {
	client := r.Intn(voltdbClients)
	wh := w.homes[client]
	if r.Float64() >= voltdbHomeFrac {
		wh = r.Intn(w.warehouses)
	}

	// Warehouse + district: hot, small, read-mostly with a YTD update.
	refs = append(refs, sim.Ref{V: w.warehouse, Idx: pageOf(w.warehouse, int64(wh)*4096%w.warehouse.Bytes()), N: 2, NW: 1})
	dOff := (int64(wh)*10 + int64(r.Intn(10))) * 4096 % w.district.Bytes()
	refs = append(refs, sim.Ref{V: w.district, Idx: pageOf(w.district, dOff), N: 2, NW: 1})

	// Customer row in the home warehouse's slice.
	cOff := int64(wh)*w.custPerWh + int64(r.Int63n(w.custPerWh))
	refs = append(refs, sim.Ref{V: w.customer, Idx: pageOf(w.customer, cOff%w.customer.Bytes()), N: 3, NW: 1})

	// Order lines: item lookups (read-only, hot) + stock updates. Lines
	// are issued as three page draws within the warehouse's stock slice,
	// carrying the full line count — same per-page load, fewer refs.
	lines := 5 + r.Intn(10)
	refs = append(refs, sim.Ref{V: w.item, Idx: r.Intn(w.item.NPages), N: uint32(lines)})
	per := uint32(lines+2) / 3
	for l := 0; l < 3; l++ {
		sOff := int64(wh)*w.stockPerWh + int64(r.Int63n(w.stockPerWh))
		refs = append(refs, sim.Ref{V: w.stock, Idx: pageOf(w.stock, sOff%w.stock.Bytes()), N: 2 * per, NW: per})
	}

	// Order + history appends: sequential write cursors.
	w.orderCursor += 64
	oOff := w.orderCursor % w.orders.Bytes()
	refs = append(refs, sim.Ref{V: w.orders, Idx: pageOf(w.orders, oOff), N: 1, NW: 1})
	if r.Intn(4) == 0 {
		refs = append(refs, sim.Ref{V: w.hist, Idx: pageOf(w.hist, w.orderCursor%w.hist.Bytes()), N: 1, NW: 1})
	}
	return refs
}
