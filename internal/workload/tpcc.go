package workload

import (
	"math/rand"

	"repro/internal/dbsim"
	"repro/internal/randx"
	"repro/internal/trace"
)

// tpcc runs a TPC-C-like transaction mix against a simulated DB2-style
// client: NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%,
// StockLevel 4% (the standard mix). The access patterns are chosen so the
// trace exhibits the structures the paper's Figure 3 highlights: STOCK
// pages are updated at random and pushed out by the page cleaner
// (high-value replacement writes), while ORDERLINE pages are appended and
// re-read much later by Delivery (long-distance, low-value reads).
type tpcc struct {
	c   *dbsim.Client
	db  *dbsim.Database
	rng *rand.Rand

	warehouse, district, customer, stock *dbsim.Object
	orders, orderline, neworder, history *dbsim.Object
	item, catalog                        *dbsim.Object
	custIdx, custNameIdx, stockIdx       *dbsim.Object
	ordersIdx, orderlineIdx, itemIdx     *dbsim.Object
	newordIdx, distIdx                   *dbsim.Object

	itemZipf    *randx.Zipf
	stockZipf   *randx.Zipf
	deliveryPtr int // next ORDERLINE page Delivery will re-read
}

// Rows per page for the growing tables. These are set low (pages fill after
// a handful of rows) so the database grows at a rate comparable to the
// paper's TPC-C runs, where the page count tripled over the trace
// (Figure 5: 600K initial pages, up to 1.8M distinct pages touched).
const (
	ordersRows    = 24
	orderlineRows = 12
	historyRows   = 40
	newordRows    = 80
)

func generateTPCC(p Preset, out trace.Sink) error {
	db := dbsim.NewDatabase(p.PageSize)

	// Buffer pools: pool 0 holds data tables (80%), pool 1 indexes and the
	// catalog (20%) — matching the paper's two DB2 TPC-C pools (Figure 2).
	dataPool := p.ClientBuffer * 8 / 10
	idxPool := p.ClientBuffer - dataPool

	frac := func(f float64) int {
		n := int(f * float64(p.DBPages))
		if n < 1 {
			n = 1
		}
		return n
	}
	w := &tpcc{db: db, rng: randx.New(p.Seed)}

	// Data objects (pool 0). Buffer priorities follow hotness: 3 for the
	// tiny always-hot tables, 1 for the big randomly-accessed ones, 0 for
	// append-mostly ones.
	w.warehouse = db.NewObject("WAREHOUSE", "table", 0, 3, 0, 4)
	w.district = db.NewObject("DISTRICT", "table", 0, 3, 1, 8)
	w.customer = db.NewObject("CUSTOMER", "table", 0, 1, 2, frac(0.12))
	w.stock = db.NewObject("STOCK", "table", 0, 1, 3, frac(0.40))
	w.orders = db.NewObject("ORDERS", "table", 0, 0, 4, frac(0.04))
	w.orderline = db.NewObject("ORDERLINE", "table", 0, 0, 5, frac(0.16))
	w.neworder = db.NewObject("NEWORDER", "table", 0, 0, 6, frac(0.01))
	w.history = db.NewObject("HISTORY", "table", 0, 0, 7, frac(0.03))
	w.item = db.NewObject("ITEM", "table", 0, 2, 8, frac(0.04))
	// Index objects and catalog (pool 1).
	w.custIdx = db.NewObject("CUSTOMER_IDX", "index", 1, 2, 2, frac(0.03))
	w.custNameIdx = db.NewObject("CUSTOMER_NAME_IDX", "index", 1, 2, 2, frac(0.01))
	w.stockIdx = db.NewObject("STOCK_IDX", "index", 1, 2, 3, frac(0.05))
	w.ordersIdx = db.NewObject("ORDERS_IDX", "index", 1, 2, 4, frac(0.01))
	w.orderlineIdx = db.NewObject("ORDERLINE_IDX", "index", 1, 2, 5, frac(0.03))
	w.itemIdx = db.NewObject("ITEM_IDX", "index", 1, 2, 8, frac(0.01))
	w.newordIdx = db.NewObject("NEWORDER_IDX", "index", 1, 2, 6, 2)
	w.distIdx = db.NewObject("DISTRICT_IDX", "index", 1, 3, 1, 2)
	w.catalog = db.NewObject("CATALOG", "catalog", 1, 3, 9, 4)

	w.c = dbsim.NewClient(db, out, dbsim.Config{
		Style:     dbsim.DB2Style{},
		PoolSizes: []int{dataPool, idxPool},
		// A cleaner batch slightly below the update rate lets bursts push
		// dirty pages to the LRU tail, producing the synchronous writes the
		// DB2 traces contain alongside asynchronous replacement writes.
		CleanerBatch:    32,
		CheckpointEvery: 10000,
		Seed:            p.Seed + 1,
	})
	// Popular items follow a Zipf distribution over ITEM pages, and since
	// stock rows are selected by item, STOCK page popularity inherits a
	// (milder) skew: a hot minority of stock pages is updated and re-read
	// much more often than the rest.
	w.itemZipf = randx.NewZipf(randx.New(p.Seed+2), w.item.Pages(), 1)
	w.stockZipf = randx.NewZipf(randx.New(p.Seed+3), w.stock.Pages(), 0.55)
	w.deliveryPtr = w.orderline.Pages() / 4

	// Warm the catalog once, as a DBMS would at startup.
	for i := 0; i < w.catalog.Pages(); i++ {
		w.c.Read(w.catalog, i)
	}

	for w.c.Emitted() < p.Requests {
		switch d := w.rng.Intn(100); {
		case d < 45:
			w.newOrder()
		case d < 88:
			w.payment()
		case d < 92:
			w.orderStatus()
		case d < 96:
			w.delivery()
		default:
			w.stockLevel()
		}
	}
	return nil
}

// nurandPage returns a skewed page index of obj using TPC-C's NURand.
func (w *tpcc) nurandPage(obj *dbsim.Object) int {
	n := obj.Pages()
	a := 255
	if n <= a {
		a = n/2 + 1
	}
	return randx.NURand(w.rng, a, 0, n-1, 42)
}

// idxPageFor returns the index page covering the given table page,
// assuming the index is ordered like the table (dense mapping).
func idxPageFor(idx *dbsim.Object, table *dbsim.Object, tablePage int) int {
	p := tablePage * idx.Pages() / table.Pages()
	if p >= idx.Pages() {
		p = idx.Pages() - 1
	}
	return p
}

// recentPage returns a page index near the tail of a growing object.
func (w *tpcc) recentPage(obj *dbsim.Object, window int) int {
	n := obj.Pages()
	if window > n {
		window = n
	}
	return n - 1 - w.rng.Intn(window)
}

func (w *tpcc) newOrder() {
	w.c.Read(w.warehouse, w.rng.Intn(w.warehouse.Pages()))
	w.c.Update(w.district, w.rng.Intn(w.district.Pages()))
	cp := w.nurandPage(w.customer)
	w.c.Read(w.custIdx, idxPageFor(w.custIdx, w.customer, cp))
	w.c.Read(w.customer, cp)
	lines := 5 + w.rng.Intn(11)
	for i := 0; i < lines; i++ {
		ip := w.itemZipf.Next()
		w.c.Read(w.itemIdx, idxPageFor(w.itemIdx, w.item, ip))
		w.c.Read(w.item, ip)
		sp := w.stockZipf.Next()
		w.c.Read(w.stockIdx, idxPageFor(w.stockIdx, w.stock, sp))
		w.c.Update(w.stock, sp)
	}
	w.c.Insert(w.orders, ordersRows)
	w.c.Update(w.ordersIdx, w.ordersIdx.Pages()-1)
	w.c.Insert(w.neworder, newordRows)
	w.c.Update(w.newordIdx, w.newordIdx.Pages()-1)
	for i := 0; i < lines; i++ {
		w.c.Insert(w.orderline, orderlineRows)
	}
	w.c.Update(w.orderlineIdx, w.orderlineIdx.Pages()-1)
	w.c.Op()
}

func (w *tpcc) payment() {
	w.c.Update(w.warehouse, w.rng.Intn(w.warehouse.Pages()))
	w.c.Update(w.district, w.rng.Intn(w.district.Pages()))
	cp := w.nurandPage(w.customer)
	// 60% of payments locate the customer by last name (extra index).
	if w.rng.Intn(100) < 60 {
		w.c.Read(w.custNameIdx, idxPageFor(w.custNameIdx, w.customer, cp))
	}
	w.c.Read(w.custIdx, idxPageFor(w.custIdx, w.customer, cp))
	w.c.Update(w.customer, cp)
	w.c.Insert(w.history, historyRows)
	w.c.Op()
}

func (w *tpcc) orderStatus() {
	cp := w.nurandPage(w.customer)
	w.c.Read(w.custNameIdx, idxPageFor(w.custNameIdx, w.customer, cp))
	w.c.Read(w.custIdx, idxPageFor(w.custIdx, w.customer, cp))
	w.c.Read(w.customer, cp)
	op := w.recentPage(w.orders, 64)
	w.c.Read(w.ordersIdx, idxPageFor(w.ordersIdx, w.orders, op))
	w.c.Read(w.orders, op)
	for i := 0; i < 2; i++ {
		w.c.Read(w.orderline, w.recentPage(w.orderline, 256))
	}
	w.c.Op()
}

// delivery processes the oldest undelivered orders: it walks ORDERLINE
// sequentially from a pointer that trails the append frontier, producing
// the long-re-reference-distance ORDERLINE reads of Figure 3.
func (w *tpcc) delivery() {
	for d := 0; d < 10; d++ {
		w.c.Read(w.newordIdx, 0)
		w.c.Update(w.neworder, w.recentPage(w.neworder, 16))
		op := w.recentPage(w.orders, 512)
		w.c.Read(w.ordersIdx, idxPageFor(w.ordersIdx, w.orders, op))
		w.c.Update(w.orders, op)
		// Consume one ORDERLINE page per district.
		if w.deliveryPtr >= w.orderline.Pages()-32 {
			// Caught up with the append frontier: fall back to an older
			// region, as delivery batches do when re-scanning arrears.
			n := w.orderline.Pages()
			w.deliveryPtr = n/4 + w.rng.Intn(n/4+1)
		}
		w.c.Update(w.orderline, w.deliveryPtr)
		w.deliveryPtr++
		w.c.Update(w.customer, w.nurandPage(w.customer))
	}
	w.c.Op()
}

func (w *tpcc) stockLevel() {
	w.c.Read(w.district, w.rng.Intn(w.district.Pages()))
	// Examine the 10 most recent ORDERLINE pages...
	start := w.orderline.Pages() - 10
	if start < 0 {
		start = 0
	}
	w.c.Scan(w.orderline, start, 10, false)
	// ...and check stock for ~20 of the items seen.
	for i := 0; i < 20; i++ {
		sp := w.stockZipf.Next()
		w.c.Read(w.stockIdx, idxPageFor(w.stockIdx, w.stock, sp))
		w.c.Read(w.stock, sp)
	}
	w.c.Op()
}
