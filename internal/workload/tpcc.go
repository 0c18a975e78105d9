package workload

import (
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

	Warehouses int
	Clients    int
	// HomeFrac is the share of a client's transactions against its home
	// warehouse.
	HomeFrac float64
	// ReassignOps re-draws client home warehouses every so many
	// transactions (0 disables).
	ReassignOps int64

	warehouse, district, item     *vm.VMA
	customer, stock, orders, hist *vm.VMA
	custPerWh, stockPerWh         int64 // bytes per warehouse in each table
	homes                         []int
	orderCursor                   int64
	reassignLeft                  int64
}

// NewVoltDB sizes the database to the paper's 300 GB TPC-C instance
// divided by the scale.
func NewVoltDB(cfg Config) *VoltDB {
	w := &VoltDB{
		Warehouses:  int(5000 / cfg.scale()),
		Clients:     8,
		HomeFrac:    0.75,
		ReassignOps: cfg.ops(3.5e9) / 6,
	}
	if w.Warehouses < 16 {
		w.Warehouses = 16
	}
	w.name = "VoltDB"
	w.readFrac = 0.5
	w.totalOps = cfg.ops(3.5e9) // transactions
	return w
}

func (w *VoltDB) Init(e *sim.Engine) {
	scale := int64(w.Warehouses)
	// Footprint split mirrors TPC-C's row populations: customer and
	// stock dominate; orders/history grow but are modelled at steady
	// state; warehouse/district/item stay resident-hot.
	w.customer = e.AS.Alloc("tpcc.customer", 24*MB*scale)
	w.stock = e.AS.Alloc("tpcc.stock", 30*MB*scale)
	w.orders = e.AS.Alloc("tpcc.orders", 6*MB*scale)
	w.hist = e.AS.Alloc("tpcc.history", 2*MB*scale)
	w.warehouse = e.AS.Alloc("tpcc.warehouse", maxI64(scale*4096, 2*MB))
	w.district = e.AS.Alloc("tpcc.district", maxI64(scale*40*1024, 2*MB))
	w.item = e.AS.Alloc("tpcc.item", 16*MB)
	w.custPerWh = w.customer.Bytes() / scale
	w.stockPerWh = w.stock.Bytes() / scale
	w.homes = make([]int, w.Clients)
	w.assignHomes(e)
	initTouch(e, w.customer, w.stock, w.orders, w.hist, w.warehouse, w.district, w.item)
}

func (w *VoltDB) assignHomes(e *sim.Engine) {
	for i := range w.homes {
		w.homes[i] = e.Rng.Intn(w.Warehouses)
	}
	w.reassignLeft = w.ReassignOps
}

// Stock is the stock table's VMA, for experiments that inspect placement.
func (w *VoltDB) Stock() *vm.VMA { return w.stock }

func (w *VoltDB) RunInterval(e *sim.Engine) {
	socket := e.HomeSocket
	for !e.IntervalExhausted() && !w.Done() {
		for i := 0; i < opChunk; i++ {
			w.transaction(e, socket)
		}
		w.doneOps += opChunk
		if w.ReassignOps > 0 {
			w.reassignLeft -= opChunk
			if w.reassignLeft <= 0 {
				w.assignHomes(e)
			}
		}
	}
}

// transaction issues one TPC-C-shaped transaction (a blend of NewOrder
// and Payment, which dominate the mix): warehouse and district reads,
// a customer row update, a handful of item reads and stock updates, and
// an order append.
func (w *VoltDB) transaction(e *sim.Engine, socket int) {
	client := e.Rng.Intn(w.Clients)
	wh := w.homes[client]
	if e.Rng.Float64() >= w.HomeFrac {
		wh = e.Rng.Intn(w.Warehouses)
	}

	// Warehouse + district: hot, small, read-mostly with a YTD update.
	e.Access(w.warehouse, pageOf(w.warehouse, int64(wh)*4096%w.warehouse.Bytes()), 2, 1, socket)
	dOff := (int64(wh)*10 + int64(e.Rng.Intn(10))) * 4096 % w.district.Bytes()
	e.Access(w.district, pageOf(w.district, dOff), 2, 1, socket)

	// Customer row in the home warehouse's slice.
	cOff := int64(wh)*w.custPerWh + int64(e.Rng.Int63n(w.custPerWh))
	e.Access(w.customer, pageOf(w.customer, cOff%w.customer.Bytes()), 3, 1, socket)

	// Order lines: item lookups (read-only, hot) + stock updates. Lines
	// are issued as three page draws within the warehouse's stock slice,
	// carrying the full line count — same per-page load, fewer calls.
	lines := 5 + e.Rng.Intn(10)
	e.Access(w.item, e.Rng.Intn(w.item.NPages), uint32(lines), 0, socket)
	per := uint32(lines+2) / 3
	for l := 0; l < 3; l++ {
		sOff := int64(wh)*w.stockPerWh + int64(e.Rng.Int63n(w.stockPerWh))
		e.Access(w.stock, pageOf(w.stock, sOff%w.stock.Bytes()), 2*per, per, socket)
	}

	// Order + history appends: sequential write cursors.
	w.orderCursor += 64
	oOff := w.orderCursor % w.orders.Bytes()
	e.Access(w.orders, pageOf(w.orders, oOff), 1, 1, socket)
	if e.Rng.Intn(4) == 0 {
		e.Access(w.hist, pageOf(w.hist, w.orderCursor%w.hist.Bytes()), 1, 1, socket)
	}
}
