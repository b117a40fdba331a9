// Package server wraps a core.Sharded CLIC front in the hint-carrying TCP
// page-request protocol of package wire, turning the in-process cache into
// the storage server the paper describes: many clients connect, stream
// (page, hint set) request batches, and get hit/miss verdicts back, while
// the second-tier cache learns caching priorities from the hints.
//
// One connection is one client. The handshake interns the client's hint
// vocabulary into the server-wide dictionary once, so the per-request hot
// path is a table lookup plus a core.Sharded access — connections touching
// different shards proceed in parallel, like engine.ServeSource's
// in-process goroutines. A connection's reader serves the batch frames
// already in its read buffer together, as one group and one AccessBatch,
// so a loaded server hands each shard larger frames than one client frame
// would make (see handle). Per-client read accounting matches
// ServeSource's sim.ClientStat bookkeeping so loopback replays are
// comparable to the in-process path.
//
// A second, optional HTTP listener is the observability surface: live
// stats as JSON at /stats (front aggregate, per-shard breakdown, per-client
// accounting, hint-set window statistics, batch-latency summaries), every
// layer's series in the Prometheus text format at /metrics (cache, shards,
// wire codec, server connections and batch service times, in-process
// netclient RTTs), and the usual pprof endpoints under /debug/pprof/. A
// timeline recorder (StartTimeline) can additionally stream per-interval
// CSV rows — hit ratio, throughput, outqueue depth, eviction and rotation
// counts, batch-latency quantiles — to a file, sampling on a wall-clock
// interval and on window rotations. The instrumentation rides on counters
// the request path already maintained, so the zero-allocation batch loop
// stays allocation-free with metrics enabled.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config parameterises a cache server.
type Config struct {
	// Cache is the CLIC configuration of the backing core.Sharded front.
	Cache core.Config
	// Shards is the shard count; 0 selects 8. One shard still serves
	// concurrent connections correctly (it degenerates to one cache behind
	// one try-lock), it just serializes them.
	Shards int
	// MaxHintKeys bounds how many hint keys one connection may bring to the
	// server: the keys its Hello and Intern frames announce; 0 selects
	// DefaultMaxHintKeys. The server dictionary interns keys permanently, so
	// this is the lever that keeps a misbehaving client from growing server
	// memory without bound. The paper's workloads carry tens of distinct
	// hint sets.
	MaxHintKeys int
	// MaxInflight bounds how many pipelined batches one connection may
	// keep in flight (decoded but not yet answered); 0 selects
	// DefaultMaxInflight. Advertised to clients in HelloAck.Window.
	// When the window is full the connection's reader stops reading, so
	// backpressure propagates to the client through TCP.
	MaxInflight int
}

// DefaultMaxHintKeys is the per-connection hint-vocabulary bound when
// Config.MaxHintKeys is zero — far above any real workload (Figure 2's
// vocabularies are in the tens) but small enough that no connection can
// intern unbounded state into the shared dictionary.
const DefaultMaxHintKeys = 1 << 20

// DefaultMaxInflight is the per-connection pipelining window when
// Config.MaxInflight is zero: deep enough that a client streaming
// DefaultBatch-sized frames never stalls on the window before the cache
// becomes the bottleneck, small enough to bound per-connection memory
// (each in-flight batch holds one result slot).
const DefaultMaxInflight = 32

// groupRequests caps a group: the reader stops adding batch frames to one
// AccessBatch once it holds this many requests. Four default-size frames
// give a shard of the 8-shard front a frame of about 256 requests, four
// times what one client frame gives it. Chosen by measurement on
// serve_loopback (see CHANGES.md): half the cap saved less CPU,
// and groups bounded only by the client's window of eight frames saved
// a little more but held the earlier frames' results back longer.
const groupRequests = 4 * wire.DefaultBatch

// clientTotals is the merged read accounting for one client name across all
// of its (past and present) connections.
type clientTotals struct {
	reads    uint64
	readHits uint64
}

// Server is a TCP cache server. Create with New, wire up listeners with
// Listen/ListenAdmin (or Start), then Serve.
type Server struct {
	cache       *core.Sharded
	maxHintKeys int
	maxInflight int

	ln      net.Listener
	adminLn net.Listener

	mu      sync.Mutex
	dict    *hint.Dict
	clients map[string]*clientTotals
	conns   map[net.Conn]struct{}
	closed  bool

	// Observability: the registry behind /metrics plus the server-layer
	// instruments (the cache, wire and netclient layers keep their own).
	registry     *metrics.Registry
	connsTotal   metrics.Counter
	connsActive  metrics.Gauge
	batchesTotal metrics.Counter
	batchNs      metrics.Histogram
	// batchReqs is the frame size: requests per served batch.
	batchReqs metrics.Histogram
	// groupFrames is the batch frames per AccessBatch call (see handle).
	groupFrames metrics.Histogram

	// inflight gauges pipelined batches accepted but not yet answered,
	// summed over all connections; flushes counts writer-side buffer
	// flushes (batches ÷ flushes is the write-coalescing factor).
	inflight metrics.Gauge
	flushes  metrics.Counter

	// frames counts the per-shard frames the connections' producers posted,
	// framesForeign those that another connection's goroutine ran (flat
	// combining, core/owner.go). The producers count in plain words of their
	// own; each connection folds its producer's counts in once per batch.
	frames        metrics.Counter
	framesForeign metrics.Counter

	wg sync.WaitGroup
}

// New returns an unstarted server over a fresh core.Sharded front.
func New(cfg Config) *Server {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 8
	}
	maxKeys := cfg.MaxHintKeys
	if maxKeys <= 0 {
		maxKeys = DefaultMaxHintKeys
	}
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	s := &Server{
		cache:       core.NewSharded(cfg.Cache, shards),
		maxHintKeys: maxKeys,
		maxInflight: maxInflight,
		dict:        hint.NewDict(),
		clients:     make(map[string]*clientTotals),
		conns:       make(map[net.Conn]struct{}),
	}
	s.buildRegistry()
	return s
}

// Cache exposes the backing sharded front (read-mostly use: stats, tests).
func (s *Server) Cache() *core.Sharded { return s.cache }

// Listen binds the page-request listener (e.g. ":7070", "127.0.0.1:0").
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the page-request listener's address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAdmin binds the admin HTTP listener and starts serving /stats on it.
func (s *Server) ListenAdmin(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.adminLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Live profiling rides on the admin listener: /debug/pprof/ for the
	// index, plus the usual profile endpoints. The page-request listener
	// stays pure protocol.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ErrServerClosed etc. surface when the listener closes; Serve's
		// lifetime is bounded by Close.
		_ = srv.Serve(ln)
	}()
	return nil
}

// AdminAddr returns the admin listener's address (nil when not listening).
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// Start is the one-call setup used by tests and the loopback tools: bind
// the page-request listener and run the accept loop in the background.
func (s *Server) Start(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.Serve()
	}()
	return nil
}

// Serve accepts connections until the listener closes (via Close).
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close shuts the listeners, disconnects every client, and waits for the
// connection handlers to drain. The cache and its statistics survive Close
// so final numbers can still be read.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln, adminLn := s.ln, s.adminLn
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	if adminLn != nil {
		if e := adminLn.Close(); err == nil {
			err = e
		}
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	// All producers are drained. Snapshots still read afterwards.
	s.cache.Close()
	return err
}

// intern maps announced hint keys to server-wide hint IDs, appending to the
// connection's remap table.
func (s *Server) intern(remap []hint.ID, keys []string) []hint.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		remap = append(remap, s.dict.InternKey(k))
	}
	return remap
}

// mergeClient folds one finished connection's accounting into the by-name
// totals.
func (s *Server) mergeClient(name string, reads, readHits uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ct, ok := s.clients[name]
	if !ok {
		ct = &clientTotals{}
		s.clients[name] = ct
	}
	ct.reads += reads
	ct.readHits += readHits
}

// resultSlot carries one served batch (or a terminal error report) from a
// connection's reader to its writer. Slots circulate between the free list
// and the result queue, so the steady-state pipeline allocates nothing.
type resultSlot struct {
	seq    uint64 // BatchSeq sequence number, echoed in the ResultsSeq
	hits   []bool // per-request verdicts, reused batch after batch
	outq   int    // outqueue depth sampled after the batch
	start  time.Time
	errMsg string // non-empty: write an Error frame; the connection is done
}

// handle runs one connection: handshake, then a reader loop feeding the
// cache and a writer goroutine draining completed results. The reader
// decodes each batch frame where it lies in the read buffer onto the end
// of the connection's request slice, remaps the hint indices and gives the
// frame a result slot. Then it serves what has already arrived: while
// another whole frame is buffered (wire.FrameReader.Ready), a slot is free
// without blocking and the group holds fewer than groupRequests requests,
// it takes that frame into the same group, an Intern frame in place. The
// group runs as one AccessBatch, in stream order, which leaves the
// connection's verdicts and the front's Stats as a serial replay's; the
// reader splits the verdicts into the frames' slots and hands them to the
// writer in order. A group never waits for bytes, so a lock-step client
// or an idle server sees one frame per group. The writer encodes and writes
// results in arrival order (which is sequence order — TCP keeps frames
// ordered and the reader serves them in order) and flushes whenever it has
// caught up with the reader, its queue empty (wire's "Flushing" rule). The
// slot channel caps the in-flight window: a full window blocks the reader,
// which stops reading, which backpressures the client through TCP. A frame
// refused mid-group ends the group before it: the frames ahead of it are
// served and answered, then the Error frame goes out.
func (s *Server) handle(conn net.Conn) {
	s.connsTotal.Inc()
	s.connsActive.Add(1)
	defer func() {
		s.connsActive.Add(-1)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fr := wire.NewFrameReader(bufio.NewReaderSize(conn, 1<<16))
	bw := bufio.NewWriterSize(conn, 1<<16)

	// Handshake failures are reported inline: the writer does not exist yet.
	failNow := func(msg string) {
		// Best-effort error report; the connection is going away either way.
		if err := wire.WriteFrame(bw, wire.AppendError(nil, msg)); err == nil {
			bw.Flush()
		}
	}

	payload, err := fr.Next()
	if err != nil {
		return
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		failNow(err.Error())
		return
	}
	// Refuse older clients; a newer one is acked at our version and may
	// then step down or hang up.
	ver, err := wire.Negotiate(hello.Version)
	if err != nil {
		failNow(fmt.Sprintf("unsupported protocol version %d (server speaks %d)", hello.Version, wire.Version))
		return
	}
	if len(hello.Keys) > s.maxHintKeys {
		failNow(fmt.Sprintf("hint vocabulary %d exceeds limit %d", len(hello.Keys), s.maxHintKeys))
		return
	}
	remap := s.intern(nil, hello.Keys)
	ack := wire.AppendHelloAck(nil, wire.HelloAck{
		Version:  ver,
		Shards:   s.cache.Shards(),
		Capacity: s.cache.Capacity(),
		Window:   s.maxInflight,
	})
	if err := wire.WriteFrame(bw, ack); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	// Each connection drives the front through its own producer handle, so
	// a group fans out to the shards as frames. All batch state (the request
	// slice, the verdict slice, the slots, the producer's frames, the
	// writer's encode buffer) is connection-owned and recycled.
	prod := s.cache.NewProducer()
	defer prod.Close()
	var (
		// reqs holds the group's requests back to back, frame after frame;
		// group holds the frames' slots in the same order.
		reqs  []trace.Request
		group []*resultSlot
		hits  []bool // a group's verdicts before they are split into its slots
		// prod.Frames() as last folded into the server's counters.
		framesSeen, foreignSeen uint64
	)

	results := make(chan *resultSlot, s.maxInflight)
	free := make(chan *resultSlot, s.maxInflight)
	for i := 0; i < s.maxInflight; i++ {
		free <- &resultSlot{}
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		s.writeLoop(conn, bw, results, free)
	}()
	defer func() {
		close(results)
		<-writerDone
	}()

	// fail routes a terminal error through the writer so it lands after
	// every already-queued result, keeping the stream well-formed from the
	// client's point of view.
	fail := func(msg string) {
		slot := <-free
		slot.errMsg = msg
		results <- slot
	}

	// take handles one frame. An Intern frame extends the remap table; a
	// BatchSeq frame is decoded onto the end of reqs, remapped, and joins
	// the group with a result slot. It returns the error to report, if the
	// frame is refused: then nothing of it has reached reqs or the group.
	take := func(payload []byte) string {
		t, err := wire.PayloadType(payload)
		if err != nil {
			return err.Error()
		}
		switch t {
		case wire.TypeIntern:
			keys, err := wire.DecodeIntern(payload)
			if err != nil {
				return err.Error()
			}
			if n := len(remap) + len(keys); n > s.maxHintKeys {
				return fmt.Sprintf("hint vocabulary %d exceeds limit %d", n, s.maxHintKeys)
			}
			remap = s.intern(remap, keys)
			return ""
		case wire.TypeBatchSeq:
			start := time.Now()
			// Decoded in place after the group's requests. Until a group
			// reaches its cap there is room for a default-size frame;
			// DecodeBatch allocates a larger frame elsewhere.
			if reqs == nil {
				reqs = make([]trace.Request, 0, groupRequests+wire.DefaultBatch)
			}
			seq, frame, err := wire.DecodeBatch(payload, reqs[len(reqs):])
			if err != nil {
				return err.Error()
			}
			// The whole frame is checked before any of it reaches the cache:
			// a bad frame is refused whole, never half applied.
			for i := range frame {
				h := frame[i].Hint
				if int(h) >= len(remap) {
					return fmt.Sprintf("hint index %d not announced (table has %d)", h, len(remap))
				}
				frame[i].Hint = remap[h]
			}
			if cap(reqs)-len(reqs) >= len(frame) {
				reqs = reqs[:len(reqs)+len(frame)]
			} else {
				reqs = append(reqs, frame...)
			}
			// Blocking here is the in-flight window: no free slot until the
			// writer retires one. Only a group's first frame can block; the
			// reader takes another only while a slot is free.
			slot := <-free
			slot.seq, slot.start = seq, start
			if cap(slot.hits) < len(frame) {
				slot.hits = make([]bool, len(frame))
			}
			slot.hits = slot.hits[:len(frame)]
			group = append(group, slot)
			return ""
		default:
			return fmt.Sprintf("unexpected frame type %d", t)
		}
	}

	// serve runs the group's requests as one batch, in stream order, splits
	// the verdicts into the frames' slots and queues the slots, in order, to
	// the writer.
	serve := func() {
		h := group[0].hits
		if len(group) > 1 {
			if cap(hits) < len(reqs) {
				hits = make([]bool, cap(reqs))
			}
			h = hits[:len(reqs)]
		}
		reads, readHits := prod.AccessBatch(reqs, h)
		posted, foreign := prod.Frames()
		s.frames.Add(posted - framesSeen)
		if foreign != foreignSeen { // rare enough at small frames to skip the shared write
			s.framesForeign.Add(foreign - foreignSeen)
		}
		framesSeen, foreignSeen = posted, foreign
		// Fold the group into the by-client totals before responding, so
		// once a client has its results the admin snapshot already reflects
		// them: Snapshot sums equal client-side accounting the moment a
		// replay returns.
		s.mergeClient(hello.Client, reads, readHits)
		outq := s.cache.OutqueueLen()
		s.groupFrames.Observe(uint64(len(group)))
		s.inflight.Add(int64(len(group)))
		if len(group) > 1 {
			for _, slot := range group {
				h = h[copy(slot.hits, h):]
			}
		}
		for _, slot := range group {
			slot.outq = outq
			results <- slot
		}
		group, reqs = group[:0], reqs[:0]
	}

	for {
		payload, err := fr.Next()
		if err != nil {
			return // io.EOF is the clean goodbye; anything else, same exit
		}
		msg := take(payload)
		// Gather what has already arrived: more frames while one is whole
		// in the read buffer, a slot is free and the group is under its
		// cap. Ready never reads the connection, so a group never waits
		// for bytes.
		for msg == "" && len(group) > 0 && len(reqs) < groupRequests && len(free) > 0 && fr.Ready() {
			if payload, err = fr.Next(); err != nil {
				break
			}
			msg = take(payload)
		}
		if len(group) > 0 {
			serve()
		}
		if msg != "" {
			fail(msg)
			return
		}
		if err != nil {
			return
		}
	}
}

// writeLoop is a connection's writer goroutine: encode and write each
// result slot in queue order, flush when the queue goes empty, recycle the
// slot. The queue is empty when the writer has caught up with the reader:
// at the latest once the reader has blocked on the client (the last result
// it produced finds nothing queued behind it), so no result ever waits on a
// frame the client has yet to send; sooner only if a processor was free to
// run the writer while the reader was still in the cache, which is when a
// system call spent on latency costs nothing. On a write error it closes
// the connection — unblocking the reader — and keeps draining so the
// reader never blocks on a full queue.
func (s *Server) writeLoop(conn net.Conn, bw *bufio.Writer, results, free chan *resultSlot) {
	var out []byte
	var res wire.Results
	broken := false
	for slot := range results {
		if slot.errMsg != "" {
			// Terminal: report after everything already queued, best-effort.
			if !broken {
				if err := wire.WriteFrame(bw, wire.AppendError(out[:0], slot.errMsg)); err == nil {
					bw.Flush()
				}
				broken = true
			}
			slot.errMsg = ""
			free <- slot
			continue
		}
		if broken {
			s.inflight.Add(-1)
			free <- slot
			continue
		}
		res.Hits, res.OutqueueDepth = slot.hits, slot.outq
		out = wire.AppendResultsSeq(out[:0], slot.seq, res)
		err := wire.WriteFrame(bw, out)
		if err == nil && len(results) == 0 {
			if err = bw.Flush(); err == nil {
				s.flushes.Inc()
			}
		}
		// Batch service time spans decode through response write — the
		// server-side share of the client's observed RTT.
		s.batchNs.Observe(uint64(time.Since(slot.start)))
		s.batchReqs.Observe(uint64(len(slot.hits)))
		s.batchesTotal.Inc()
		s.inflight.Add(-1)
		res.Hits = nil
		free <- slot
		if err != nil {
			broken = true
			conn.Close()
		}
	}
}

// ClientSnapshot is one client's merged read accounting.
type ClientSnapshot struct {
	Name     string `json:"name"`
	Reads    uint64 `json:"reads"`
	ReadHits uint64 `json:"readHits"`
}

// WindowStatSnapshot is one hint set's current-window statistics with the
// hint key resolved against the server dictionary.
type WindowStatSnapshot struct {
	Key string  `json:"key"`
	N   uint64  `json:"n"`
	Nr  uint64  `json:"nr"`
	D   float64 `json:"d"`
	Pr  float64 `json:"pr"`
}

// Snapshot is the admin view of a running server. WindowStats is the
// current window of the front's shared learner, summed over the shards
// not mid-frame.
type Snapshot struct {
	Policy string     `json:"policy"`
	Core   core.Stats `json:"core"`
	// Shards is the per-shard breakdown of the same counters Core sums,
	// indexed by shard — the load-skew view of the partition hash.
	Shards []core.ShardStats `json:"shards"`
	// Connections is the page-request connection accounting.
	Connections ConnectionsSnapshot `json:"connections"`
	// Histograms summarises the server's cumulative latency histograms.
	Histograms HistogramsSnapshot `json:"histograms"`
	// Combining is the front's shard hand-off accounting.
	Combining   CombiningSnapshot    `json:"combining"`
	Clients     []ClientSnapshot     `json:"clients"`
	WindowStats []WindowStatSnapshot `json:"windowStats,omitempty"`
}

// CombiningSnapshot counts the per-shard frames connections have posted
// and how many of them a goroutine other than the poster's ran because it
// held the shard at the time. Foreign ÷ Frames is the share of hand-offs
// that met contention.
type CombiningSnapshot struct {
	Frames  uint64 `json:"frames"`
	Foreign uint64 `json:"foreign"`
}

// ConnectionsSnapshot is the connection accounting at snapshot time.
type ConnectionsSnapshot struct {
	Active int64  `json:"active"`
	Total  uint64 `json:"total"`
	// Inflight is the number of pipelined batches accepted but not yet
	// answered, summed over all connections.
	Inflight int64 `json:"inflight"`
}

// HistogramsSnapshot carries cumulative histogram summaries of the served
// batches: their service time in nanoseconds, their size in requests, and
// how many of them each cache call served (see handle).
type HistogramsSnapshot struct {
	BatchServiceNs metrics.Summary `json:"batchServiceNs"`
	BatchRequests  metrics.Summary `json:"batchRequests"`
	GroupFrames    metrics.Summary `json:"groupFrames"`
	// Batches is the number of batches served (BatchServiceNs.Count once
	// quiescent, kept separate because the histogram lags the counter by
	// in-flight batches).
	Batches uint64 `json:"batches"`
}

// Snapshot assembles the admin view. topHints bounds the per-window hint
// statistics (0 omits them; reading them takes the shared learner's
// rotation lock and one CAS per idle shard's tap, and no shard's lock).
func (s *Server) Snapshot(topHints int) Snapshot {
	snap := Snapshot{
		Policy: s.cache.Name(),
		Core:   s.cache.Stats(),
		Connections: ConnectionsSnapshot{
			Active:   s.connsActive.Value(),
			Total:    s.connsTotal.Value(),
			Inflight: s.inflight.Value(),
		},
		Histograms: HistogramsSnapshot{
			BatchServiceNs: s.batchNs.Summary(),
			BatchRequests:  s.batchReqs.Summary(),
			GroupFrames:    s.groupFrames.Summary(),
			Batches:        s.batchesTotal.Value(),
		},
		// Foreign first: frames only ever runs ahead of it.
		Combining: CombiningSnapshot{Foreign: s.framesForeign.Value(), Frames: s.frames.Value()},
	}
	snap.Shards = make([]core.ShardStats, s.cache.Shards())
	for i := range snap.Shards {
		snap.Shards[i] = s.cache.ShardStats(i)
	}
	var ws []core.HintStat
	if topHints > 0 {
		ws = s.cache.WindowStats()
		if len(ws) > topHints {
			ws = ws[:topHints]
		}
	}
	s.mu.Lock()
	for name, ct := range s.clients {
		snap.Clients = append(snap.Clients, ClientSnapshot{Name: name, Reads: ct.reads, ReadHits: ct.readHits})
	}
	for _, hs := range ws {
		snap.WindowStats = append(snap.WindowStats, WindowStatSnapshot{
			Key: s.dict.Key(hs.Hint), N: hs.N, Nr: hs.Nr, D: hs.D, Pr: hs.Pr,
		})
	}
	s.mu.Unlock()
	sort.Slice(snap.Clients, func(i, j int) bool { return snap.Clients[i].Name < snap.Clients[j].Name })
	return snap
}

// handleStats serves the snapshot as JSON. ?top=N bounds the hint-set
// statistics (default 20).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	top := 20
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad top parameter", http.StatusBadRequest)
			return
		}
		top = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A write error here means the client went away mid-response; there is
	// no one left to report it to.
	_ = enc.Encode(s.Snapshot(top))
}
