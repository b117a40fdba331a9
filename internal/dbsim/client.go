package dbsim

import (
	"fmt"
	"math/rand"

	"repro/internal/hint"
	"repro/internal/randx"
	"repro/internal/trace"
)

// Config parameterises a client.
type Config struct {
	// Style selects the hint vocabulary (DB2Style or MySQLStyle).
	Style HintStyle
	// PoolSizes gives the capacity (in pages) of each client buffer pool;
	// object Pool fields index into it.
	PoolSizes []int
	// Threads is the number of simulated server threads (MySQL thread
	// hint). Zero means 1.
	Threads int
	// CleanerThreshold is the dirty fraction of a pool that wakes the
	// asynchronous page cleaner. Zero selects 0.25.
	CleanerThreshold float64
	// CleanerBatch is how many dirty pages the cleaner writes per wake-up.
	// Zero selects 64.
	CleanerBatch int
	// CleanerPeriod is how many logical operations pass between cleaner
	// wake-ups. Zero selects 4. Because the cleaner is periodic rather than
	// continuous, update bursts can push dirty pages to the LRU tail before
	// it runs, forcing occasional synchronous writes — as in a real DBMS.
	CleanerPeriod int
	// CleanerGap is the number of coldest dirty pages the cleaner cannot
	// catch in time: they are left to be written synchronously on the
	// eviction path. This reproduces the paper's distinction between
	// asynchronous replacement writes and synchronous writes ("replacement
	// writes that are not performed by an asynchronous page cleaning
	// thread", Figure 2). Zero selects 4; NoCleanerGap disables it.
	CleanerGap int
	// CheckpointEvery issues recovery writes for all dirty pages every
	// this many logical operations. Zero selects 20000; negative disables.
	CheckpointEvery int
	// Seed drives the client's internal randomness (fix counts).
	Seed int64
}

// NoCleanerGap, assigned to Config.CleanerGap, makes the cleaner perfect:
// it can always clean the coldest dirty pages before they are evicted.
const NoCleanerGap = -1

func (cfg Config) withDefaults() Config {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.CleanerThreshold == 0 {
		cfg.CleanerThreshold = 0.25
	}
	if cfg.CleanerBatch == 0 {
		cfg.CleanerBatch = 64
	}
	if cfg.CleanerPeriod == 0 {
		cfg.CleanerPeriod = 4
	}
	if cfg.CleanerGap == 0 {
		cfg.CleanerGap = 4
	} else if cfg.CleanerGap < 0 {
		cfg.CleanerGap = 0
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 20000
	}
	return cfg
}

// numReqTypes and numFixCounts size the domains of a hint key's request
// type and fix count (1 or 2).
const numReqTypes, numFixCounts = int(SyncWrite) + 1, 2

// Client is a simulated first-tier database client: it owns buffer pools,
// runs the page cleaner and checkpointer, and appends every I/O that
// escapes its pools — with hints attached — to an output sink (an in-memory
// trace, a streaming trace writer, or a pipe to a live consumer).
type Client struct {
	db      *Database
	cfg     Config
	pools   []*bufPool
	out     trace.Sink
	dict    *hint.Dict
	index   pageIndex
	hintIDs []hint.ID // one plus the interned ID, by (object, request type, thread, fix); 0 is none yet
	rng     *rand.Rand

	thread    int
	ops       int
	sinceCkpt int
	fill      []int // rows in the last page, by object ID
}

// NewClient builds a client over db that appends its I/O to out.
func NewClient(db *Database, out trace.Sink, cfg Config) *Client {
	cfg = cfg.withDefaults()
	if cfg.Style == nil {
		panic("dbsim: Config.Style is required")
	}
	if len(cfg.PoolSizes) == 0 {
		panic("dbsim: Config.PoolSizes is required")
	}
	c := &Client{
		db:   db,
		cfg:  cfg,
		out:  out,
		dict: out.HintDict(),
		rng:  randx.New(cfg.Seed),
	}
	for i, size := range cfg.PoolSizes {
		if size <= 0 {
			panic(fmt.Sprintf("dbsim: Config.PoolSizes[%d] = %d, want > 0", i, size))
		}
		c.pools = append(c.pools, newBufPool(i, size, &c.index))
	}
	return c
}

// Emitted returns the number of requests absorbed by the output sink. For a
// Limit-wrapped sink this caps at the limit, which is exactly the loop
// condition generators want: stop once the budget is met.
func (c *Client) Emitted() int { return c.out.Len() }

// SetThread sets the issuing thread for subsequent requests (MySQL hint).
// It panics if t is negative.
func (c *Client) SetThread(t int) {
	if t < 0 {
		panic(fmt.Sprintf("dbsim: SetThread(%d): thread must not be negative", t))
	}
	c.thread = t % c.cfg.Threads
}

// Read performs a demand read of the object's logical page idx.
func (c *Client) Read(obj *Object, idx int) { c.access(obj, idx, ReadReq, false) }

// Update reads the object's logical page idx and marks it dirty.
func (c *Client) Update(obj *Object, idx int) { c.access(obj, idx, ReadReq, true) }

// Scan reads n sequential pages of obj starting at from; missing pages are
// brought in with prefetch reads. If update is set, every page is dirtied.
func (c *Client) Scan(obj *Object, from, n int, update bool) {
	for i := 0; i < n; i++ {
		idx := from + i
		if idx >= obj.Pages() {
			return
		}
		c.access(obj, idx, PrefetchReq, update)
	}
}

// Insert appends one row to obj, dirtying the object's last page and
// extending the object by a fresh page every rowsPerPage rows — the
// database-growth mechanism of the TPC-C workload (§6, Figure 5 note).
func (c *Client) Insert(obj *Object, rowsPerPage int) {
	if rowsPerPage <= 0 {
		rowsPerPage = 1
	}
	if obj.ID >= len(c.fill) {
		c.fill = append(c.fill, make([]int, obj.ID+1-len(c.fill))...)
	}
	n := c.fill[obj.ID] + 1
	if n >= rowsPerPage {
		c.db.Extend(obj, 1)
		n = 0
	}
	c.fill[obj.ID] = n
	c.access(obj, obj.Pages()-1, ReadReq, true)
}

// access is the buffer-pool fetch path: a hit refreshes recency; a miss
// emits a server read (regular or prefetch), evicting the pool's LRU frame
// first — with a synchronous write if that frame is dirty.
func (c *Client) access(obj *Object, idx int, rt ReqType, dirty bool) {
	if obj.Pool < 0 || obj.Pool >= len(c.pools) {
		panic(fmt.Sprintf("dbsim: object %s assigned to unknown pool %d", obj.Name, obj.Pool))
	}
	pool := c.pools[obj.Pool]
	page := obj.Page(idx)
	f := pool.get(page)
	if f == nil {
		if v := pool.victim(); v != nil {
			if v.dirty {
				c.emit(v.obj, v.page, SyncWrite)
				pool.markClean(v)
			}
			pool.evict(v)
		}
		c.emit(obj, page, rt)
		f = pool.insert(page, obj)
	}
	if dirty {
		pool.markDirty(f)
	}
}

// Op marks the end of one logical operation (transaction step / query
// fragment): it wakes the page cleaner on pools with too many dirty pages
// and triggers checkpoints on schedule.
func (c *Client) Op() {
	c.ops++
	if c.ops%c.cfg.CleanerPeriod == 0 {
		for _, p := range c.pools {
			if float64(p.dirty) > c.cfg.CleanerThreshold*float64(p.capacity) {
				// The coldest CleanerGap dirty pages are already too close
				// to eviction for the asynchronous cleaner to catch; they
				// will leave via synchronous writes instead.
				list := p.dirtyFromLRU(c.cfg.CleanerBatch + c.cfg.CleanerGap)
				if len(list) > c.cfg.CleanerGap {
					for _, f := range list[c.cfg.CleanerGap:] {
						c.emit(f.obj, f.page, ReplWrite)
						p.markClean(f)
					}
				}
			}
		}
	}
	if c.cfg.CheckpointEvery > 0 {
		c.sinceCkpt++
		if c.sinceCkpt >= c.cfg.CheckpointEvery {
			c.sinceCkpt = 0
			c.Checkpoint()
		}
	}
}

// Checkpoint writes every dirty page in every pool as a recovery write.
// The pages stay in the client pools — exactly why recovery writes are poor
// server caching candidates (§1).
func (c *Client) Checkpoint() {
	for _, p := range c.pools {
		for _, f := range p.allDirty() {
			c.emit(f.obj, f.page, RecWrite)
			p.markClean(f)
		}
	}
}

// emit appends one server request with its hint set to the output sink.
// The hint is interned before the append, so even a request the sink drops
// (Limit cut) leaves its key in the dictionary — matching the historical
// generate-then-truncate behavior bit for bit.
func (c *Client) emit(obj *Object, page uint64, rt ReqType) {
	ctx := HintCtx{Thread: c.thread, FixCount: c.fixCount(obj)}
	slot := ((obj.ID*numReqTypes+int(rt))*c.cfg.Threads+ctx.Thread)*numFixCounts + ctx.FixCount - 1
	if slot >= len(c.hintIDs) {
		c.hintIDs = append(c.hintIDs, make([]hint.ID, slot+1-len(c.hintIDs))...)
	}
	if c.hintIDs[slot] == 0 {
		c.hintIDs[slot] = c.dict.Intern(c.cfg.Style.Hints(obj, rt, ctx)) + 1
	}
	op := trace.Read
	if rt.IsWrite() {
		op = trace.Write
	}
	c.out.AppendReq(trace.Request{Page: page, Hint: c.hintIDs[slot] - 1, Op: op})
}

// fixCount models the MySQL fix-count hint: index pages are occasionally
// co-fixed by a second thread. DB2Style ignores the value.
func (c *Client) fixCount(obj *Object) int {
	if obj.TypeName == "index" && c.rng.Intn(10) == 0 {
		return 2
	}
	return 1
}

// PoolDirty returns the number of dirty pages in pool id (for tests).
func (c *Client) PoolDirty(id int) int { return c.pools[id].dirty }

// PoolLen returns the number of cached pages in pool id (for tests).
func (c *Client) PoolLen(id int) int { return c.pools[id].len() }
