// Package netclient is the client side of the wire protocol: a thin
// connection type (Dial/Hello/Announce/Pipeline) for programs that want to
// talk to a cache server directly, plus ReplaySource, the trace replay
// driver that mirrors engine.ServeSource over the network — one connection
// and one goroutine per trace client, each streaming its own request
// subsequence through a pipelined connection and counting hits from the
// server's responses.
//
// ReplaySource streams from any trace.Source (file, in-memory trace via
// t.Source(), or live workload generator), so arbitrarily long streams
// replay in constant memory. It returns a sim.Result shaped exactly like
// engine.ServeSource's so the loopback and in-process paths are directly
// comparable.
package netclient

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Package-wide client instrumentation: every completed batch on every
// connection lands in one histogram of end-to-end batch round-trip times
// (encode, network, server service, decode) and one batch counter.
// Process-wide like wire.Metrics — an observation is two atomic bumps,
// nothing per connection to configure.
var (
	batchRTT     metrics.Histogram
	batchesTotal metrics.Counter
)

// BatchRTT exposes the cumulative round-trip histogram (nanoseconds per
// batch) for summaries and timelines.
func BatchRTT() *metrics.Histogram { return &batchRTT }

// RegisterMetrics registers the client-side series on r under the
// clic_netclient_* names.
func RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("clic_netclient_batches_total", "Request batches completed by in-process clients.",
		func() float64 { return float64(batchesTotal.Value()) })
	r.RegisterHistogram("clic_netclient_batch_rtt_ns", "End-to-end batch round-trip time in nanoseconds.", &batchRTT)
}

// Conn is one client connection to a cache server. Not safe for concurrent
// use; the replay drivers give each goroutine its own Conn.
type Conn struct {
	nc net.Conn
	fr *wire.FrameReader
	bw *bufio.Writer

	ack       wire.HelloAck
	announced int // hint keys announced so far (Hello + Announce)

	enc []byte       // frame build buffer
	res wire.Results // reused results decode target
}

// Dial connects to a cache server without handshaking; call Hello next.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn is Dial over a connection the caller established, so that one
// can be wrapped first — to count its writes, say. Close closes nc.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		fr: wire.NewFrameReader(bufio.NewReaderSize(nc, 1<<16)),
		bw: bufio.NewWriterSize(nc, 1<<16),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// readFrame reads one frame, surfacing server Error frames as errors. The
// payload is a view into the read buffer, valid until the next read.
func (c *Conn) readFrame() ([]byte, error) {
	p, err := c.fr.Next()
	if err != nil {
		return nil, err
	}
	if t, _ := wire.PayloadType(p); t == wire.TypeError {
		msg, err := wire.DecodeError(p)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("netclient: server error: %s", msg)
	}
	return p, nil
}

// Hello performs the handshake, announcing the client's name and initial
// hint vocabulary (requests then reference keys by announcement index).
func (c *Conn) Hello(client string, keys []string) (wire.HelloAck, error) {
	c.enc = wire.AppendHello(c.enc[:0], wire.Hello{Version: wire.Version, Client: client, Keys: keys})
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return wire.HelloAck{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return wire.HelloAck{}, err
	}
	p, err := c.readFrame()
	if err != nil {
		return wire.HelloAck{}, err
	}
	ack, err := wire.DecodeHelloAck(p)
	if err != nil {
		return wire.HelloAck{}, err
	}
	// Guard against a peer that acked a version this codec does not speak.
	if _, err := wire.Negotiate(ack.Version); err != nil {
		return wire.HelloAck{}, fmt.Errorf("netclient: %w", err)
	}
	c.ack = ack
	c.announced = len(keys)
	return ack, nil
}

// Probe dials addr and completes a throwaway handshake, verifying that a
// compatible cache server is listening there. Replay drivers use it to
// validate addresses up front instead of failing confusingly mid-replay.
func Probe(addr string) error {
	conn, err := Dial(addr)
	if err != nil {
		return fmt.Errorf("netclient: probing %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := conn.Hello("probe", nil); err != nil {
		return fmt.Errorf("netclient: probing %s: %w", addr, err)
	}
	return nil
}

// Announced returns how many hint keys this connection has announced.
func (c *Conn) Announced() int { return c.announced }

// Announce extends the connection's hint table with keys discovered after
// Hello. The frame is buffered and rides ahead of the next batch; the
// server sends no reply.
func (c *Conn) Announce(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	c.enc = wire.AppendIntern(c.enc[:0], keys)
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return err
	}
	c.announced += len(keys)
	return nil
}

// SendSummary ships one merged-learning window summary to the peer — the
// node-to-node exchange of internal/cluster's gossip path. The peer sends
// no reply.
func (c *Conn) SendSummary(s wire.Summary) error {
	c.enc = wire.AppendSummary(c.enc[:0], s)
	if err := wire.WriteFrame(c.bw, c.enc); err != nil {
		return err
	}
	return c.bw.Flush()
}

// PipelineHandler consumes one completed pipelined batch: tag is the
// value given to Submit, isRead flags the positions that were reads (in
// batch order), res carries the server's verdicts (valid only during the
// call), and rttNs is the batch's submit-to-result round-trip time.
type PipelineHandler func(tag any, isRead []bool, res wire.Results, rttNs int64) error

// pbatch is one in-flight pipelined batch: what the handler needs when
// its results arrive. Request payloads are not retained — Submit encodes
// them into the write buffer immediately, so callers may reuse their
// request slices the moment Submit returns.
type pbatch struct {
	seq    uint64
	tag    any
	isRead []bool
	start  time.Time
}

// Pipeline keeps up to depth batches in flight on one connection,
// overlapping the request stream with the server's responses instead of
// stalling a full round trip per batch. Results arrive in sequence order
// (TCP preserves frame order and the server answers in order); each is
// delivered to the handler as it completes. Depth 1 is lock-step: one
// round trip per batch. Not safe for concurrent use, like Conn.
type Pipeline struct {
	c       *Conn
	depth   int
	handler PipelineHandler

	seq       uint64
	ring      []*pbatch // FIFO of in-flight batches
	head, n   int
	free      []*pbatch
	unflushed int // batch frames written since the last flush
}

// Pipeline returns a pipelined sender over the connection with at most
// depth batches in flight (min 1; capped at the server's advertised
// window).
func (c *Conn) Pipeline(depth int, h PipelineHandler) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	if w := c.ack.Window; w > 0 && depth > w {
		depth = w
	}
	return &Pipeline{c: c, depth: depth, handler: h, ring: make([]*pbatch, depth)}
}

// Depth returns the effective in-flight window after server capping.
func (p *Pipeline) Depth() int { return p.depth }

// Submit encodes and sends one batch, completing the oldest in-flight
// batch first when the window is full. reqs is fully consumed before
// Submit returns; tag is handed back to the handler with the batch's
// results. Writes are buffered: the wire sees them once at least two
// frames and half the window sit unflushed, or before a read that would
// otherwise block (wire's "Flushing" rule), so frames share system calls
// while the server always has work. At depth 1 that is one flush per
// frame, issued immediately before the read of its result.
func (p *Pipeline) Submit(reqs []trace.Request, tag any) error {
	if p.n == p.depth {
		if err := p.completeOne(); err != nil {
			return err
		}
	}
	var b *pbatch
	if k := len(p.free); k > 0 {
		b, p.free = p.free[k-1], p.free[:k-1]
	} else {
		b = &pbatch{}
	}
	b.tag = tag
	b.start = time.Now()
	b.isRead = b.isRead[:0]
	for i := range reqs {
		b.isRead = append(b.isRead, reqs[i].Op == trace.Read)
	}
	b.seq = p.seq
	p.seq++
	p.c.enc = wire.AppendBatchSeq(p.c.enc[:0], b.seq, reqs)
	if err := wire.WriteFrame(p.c.bw, p.c.enc); err != nil {
		return err
	}
	p.ring[(p.head+p.n)%p.depth] = b
	p.n++
	p.unflushed++
	if p.unflushed >= 2 && 2*p.unflushed >= p.depth {
		return p.flush()
	}
	return nil
}

// flush sends every buffered frame in one write.
func (p *Pipeline) flush() error {
	p.unflushed = 0
	return p.c.bw.Flush()
}

// completeOne consumes the oldest in-flight batch's results. If they are
// not already buffered the read is about to block, so buffered frames go
// out first: the server cannot answer what it has not received.
func (p *Pipeline) completeOne() error {
	if p.unflushed > 0 && !p.c.fr.Ready() {
		if err := p.flush(); err != nil {
			return err
		}
	}
	b := p.ring[p.head]
	payload, err := p.c.readFrame()
	if err != nil {
		return err
	}
	seq, res, err := wire.DecodeResultsSeq(payload, p.c.res)
	if err != nil {
		return err
	}
	if seq != b.seq {
		return fmt.Errorf("netclient: results for sequence %d, want %d (pipelined results must arrive in order)", seq, b.seq)
	}
	p.c.res = res
	if len(res.Hits) != len(b.isRead) {
		return fmt.Errorf("netclient: %d results for %d requests", len(res.Hits), len(b.isRead))
	}
	rtt := time.Since(b.start)
	batchRTT.Observe(uint64(rtt))
	batchesTotal.Inc()
	p.ring[p.head] = nil
	p.head = (p.head + 1) % p.depth
	p.n--
	err = p.handler(b.tag, b.isRead, res, int64(rtt))
	b.tag = nil
	p.free = append(p.free, b)
	return err
}

// Drain completes every in-flight batch, flushing whatever their results
// wait on.
func (p *Pipeline) Drain() error {
	for p.n > 0 {
		if err := p.completeOne(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultDepth is the in-flight batch window replay drivers use when
// ReplayOptions.Depth is zero: deep enough to hide a loopback round trip
// behind the server's service time, shallow enough that per-connection
// buffering stays small.
const DefaultDepth = 8

// BatchSizer is a fixed per-frame request count: the size given to
// NewBatchSizer, or wire.DefaultBatch for 0. The replay drivers do not use
// it: the frozen benchmark (bench/layers.go) calls NewBatchSizer, Current
// and Observe, and like wire.DecodeBatchStream it goes when the benchmark
// is next revised.
type BatchSizer struct{ size int }

// NewBatchSizer returns a sizer fixed at size, or at wire.DefaultBatch when
// size is not positive.
func NewBatchSizer(size int) *BatchSizer {
	if size <= 0 {
		size = wire.DefaultBatch
	}
	return &BatchSizer{size: size}
}

// Current returns the fixed batch size.
func (s *BatchSizer) Current() int { return s.size }

// Observe does nothing.
func (s *BatchSizer) Observe(rttNs int64, n int) {}

// ReplayOptions tune the replay drivers.
type ReplayOptions struct {
	// BatchSize is the request count per Batch frame; 0 selects
	// wire.DefaultBatch. Every frame of a client holds this many requests
	// except its last.
	BatchSize int
	// Depth is the in-flight batch window per connection: 0 selects
	// DefaultDepth, 1 is lock-step (one round trip per batch). Values
	// above the server's advertised window are capped at the handshake.
	Depth int
	// Limit caps the total number of requests replayed; 0 replays the
	// whole trace.
	Limit int
}

func (o ReplayOptions) depth() int {
	if o.Depth <= 0 {
		return DefaultDepth
	}
	return o.Depth
}

// policyName mirrors core.Sharded.Name from the handshake, so loopback
// results label themselves like the in-process path.
func policyName(ack wire.HelloAck) string {
	if ack.Shards == 1 {
		return "CLIC"
	}
	return fmt.Sprintf("CLIC/%d", ack.Shards)
}

// ReplaySource replays any request source — a trace file, an in-memory
// trace (t.Source()), or a live generator spec — against the server at
// addr, never materialising the stream: engine.ServeSource over the wire,
// with one connection and one goroutine per discovered client. Hint sets
// may be discovered as the iteration proceeds (trace files' dict sections,
// generated streams); newly seen hint keys are announced to the server
// ahead of the first batch that references them. Per-client
// read counts are exact while the aggregate hit count depends on how the
// clients' requests interleave at the server.
func ReplaySource(addr string, src trace.Source, opt ReplayOptions) (sim.Result, error) {
	it, err := src.Iter()
	if err != nil {
		return sim.Result{}, err
	}
	defer it.Close()
	var (
		mu       sync.Mutex
		policy   string
		capacity int
	)
	batch := opt.BatchSize
	if batch <= 0 {
		batch = wire.DefaultBatch
	}
	res, err := engine.Dispatch(it, opt.Limit, batch,
		func(name string, keys *engine.KeyLog, st *sim.ClientStat) (engine.Session, error) {
			conn, err := Dial(addr)
			if err != nil {
				return nil, err
			}
			a, err := conn.Hello(name, keys.Since(0))
			if err != nil {
				conn.Close()
				return nil, err
			}
			mu.Lock()
			policy, capacity = policyName(a), a.Capacity
			mu.Unlock()
			s := &session{conn: conn, keys: keys, st: st}
			s.pl = conn.Pipeline(opt.depth(), s.account)
			return s, nil
		})
	if err != nil {
		return sim.Result{}, err
	}
	res.Policy = policy
	res.CacheSize = capacity
	return res, nil
}

// session is one replayed client's engine.Session: a pipelined connection
// whose result handler counts the client's read hits.
type session struct {
	conn *Conn
	pl   *Pipeline
	keys *engine.KeyLog
	st   *sim.ClientStat
}

func (s *session) account(_ any, isRead []bool, res wire.Results, _ int64) error {
	reads, readHits := CountReads(isRead, res.Hits)
	s.st.Reads += reads
	s.st.ReadHits += readHits
	return nil
}

// CountReads tallies one answered batch for a result handler: how many of
// its requests were reads, and how many of those the server reported as
// hits (hits must be at least as long as isRead). The counts are sums, not
// increments behind a branch per verdict: with hits near one in two that
// branch is a coin toss. A verdict on a write is not counted, whatever the
// peer says.
func CountReads(isRead, hits []bool) (reads, readHits uint64) {
	hits = hits[:len(isRead)]
	for i, rd := range isRead {
		r := b2u(rd)
		reads += r
		readHits += r & b2u(hits[i])
	}
	return reads, readHits
}

// b2u is 1 for true and 0 for false; the compiler emits no jump for it.
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

func (s *session) Submit(reqs []trace.Request) error {
	if err := s.conn.Announce(s.keys.Since(s.conn.Announced())); err != nil {
		return err
	}
	return s.pl.Submit(reqs, nil)
}

func (s *session) Drain() error { return s.pl.Drain() }
func (s *session) Close() error { return s.conn.Close() }
