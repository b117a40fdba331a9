package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Session is one client's open channel into a cache, however far away the
// cache is: an in-process producer handle here, a pipelined connection in
// internal/netclient, a router over every node in internal/cluster. A
// session is driven by one goroutine and accounts its client's reads into
// the sim.ClientStat it was opened with.
type Session interface {
	// Submit serves or sends one batch, announcing first any hint keys the
	// run's KeyLog gained since the session last looked. reqs is fully
	// consumed before Submit returns.
	Submit(reqs []trace.Request) error
	// Drain completes every batch still in flight.
	Drain() error
	// Close releases the session.
	Close() error
}

// KeyLog is the append-only list of hint keys a streaming scan has
// discovered so far, shared between the dispatcher (the only writer) and
// the per-client sessions, which catch their peers up before each batch.
type KeyLog struct {
	mu   sync.Mutex
	keys []string
	// n is len(keys), stored after each append so that Since, called once
	// per batch, takes the mutex only when there is something new to copy.
	n atomic.Int64
}

func (l *KeyLog) grow(d *hint.Dict) {
	l.mu.Lock()
	for id := len(l.keys); id < d.Len(); id++ {
		l.keys = append(l.keys, d.Key(hint.ID(id)))
	}
	l.n.Store(int64(len(l.keys)))
	l.mu.Unlock()
}

// Since returns a copy of the keys appended at or after index from.
func (l *KeyLog) Since(from int) []string {
	if int64(from) >= l.n.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.keys[from:]...)
}

// runRequests is the fewest requests the dispatcher hands a client's
// worker at once: eight full frames, so the hand-off costs a small
// fraction of what the batches it carries cost to serve.
const runRequests = 8 * core.DefaultAccessBatch

// Dispatch is the one scan → per-client worker loop behind every
// concurrent serve and replay: it takes runs from it (stopping after limit
// requests when limit is positive), scatters each run's requests to their
// clients in one loop, discovers clients as they appear, and gives each
// its own goroutine and its own session from open. Every batch a session
// is given holds batch requests (at least 1), except a client's last, which
// holds what is left. Each worker is handed runs — the smallest multiple of
// batch that holds at least runRequests (4096) requests — and cuts every
// run into batches, so a lock-step session, one request per batch, meets
// the dispatcher once per 4096 round trips. Clients the iterator has no
// name for are called client<i>. The result carries the trace name, the
// request count and the per-client read accounting; the caller labels it
// with the policy and capacity that answered.
//
// Run buffers cycle between the dispatcher and each worker: the dispatcher
// fills one from the scan, hands it over, and gets it back once its last
// batch has been submitted, so after a few runs per client the steady
// state allocates nothing. A client holds at most six runs at once (four
// queued, one being submitted, one being filled): 384 KB at 4096
// requests. The first failure — a session that will not open, a Submit
// or Drain error — stops the scan at the next hand-off and is returned;
// the workers keep draining their queues meanwhile, so the dispatcher
// never blocks on a dead session.
func Dispatch(it trace.Iterator, limit, batch int, open func(name string, keys *KeyLog, st *sim.ClientStat) (Session, error)) (sim.Result, error) {
	type worker struct {
		ch      chan []trace.Request
		free    chan []trace.Request
		pending []trace.Request
		// st is its own allocation: the session counts into it on every
		// request while the dispatcher appends to pending on every request,
		// and the two must not share a cache line.
		st *sim.ClientStat
	}
	var (
		keys     KeyLog
		workers  []*worker
		wg       sync.WaitGroup
		failOnce sync.Once
		failed   atomic.Bool
		first    error
		total    uint64
	)
	fail := func(err error) {
		failOnce.Do(func() { first = err })
		failed.Store(true)
	}
	batch = max(batch, 1)
	run := (runRequests + batch - 1) / batch * batch
	spawn := func(name string) *worker {
		// ch lets the scan run a few runs ahead of a session that is
		// waiting on its peer; free holds every buffer that can be out at
		// once (those queued on ch, the one being submitted, the one being
		// filled) with room to spare, so returning one never blocks.
		w := &worker{
			ch:      make(chan []trace.Request, 4),
			free:    make(chan []trace.Request, 8),
			pending: make([]trace.Request, 0, run),
			st:      &sim.ClientStat{Name: name},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := open(name, &keys, w.st)
			if err != nil {
				fail(err)
				sess = nil
			} else {
				defer sess.Close()
			}
			for reqs := range w.ch {
				for rest := reqs; sess != nil && len(rest) > 0 && !failed.Load(); {
					n := min(batch, len(rest))
					if err := sess.Submit(rest[:n]); err != nil {
						fail(err)
					}
					rest = rest[n:]
				}
				select {
				case w.free <- reqs[:0]:
				default:
				}
			}
			if sess != nil && !failed.Load() {
				if err := sess.Drain(); err != nil {
					fail(err)
				}
			}
		}()
		return w
	}

	// Streaming inputs (trace files' dict sections, generator pipes) grow
	// the dictionary mid-stream, on this goroutine only and only in Next;
	// comparing its length once per run keeps the KeyLog mutex off the
	// request path.
	dict := it.HintDict()
	keys.grow(dict)
	dictLen := dict.Len()
scan:
	for limit <= 0 || total < uint64(limit) {
		reqs := it.Next()
		if len(reqs) == 0 {
			break
		}
		if limit > 0 {
			reqs = reqs[:min(uint64(len(reqs)), uint64(limit)-total)]
		}
		total += uint64(len(reqs))
		if n := dict.Len(); n != dictLen {
			keys.grow(dict)
			dictLen = n
		}
		for _, r := range reqs {
			c := int(r.Client)
			for c >= len(workers) {
				name := fmt.Sprintf("client%d", len(workers))
				if names := it.Clients(); len(workers) < len(names) {
					name = names[len(workers)]
				}
				workers = append(workers, spawn(name))
			}
			w := workers[c]
			w.pending = append(w.pending, r)
			if len(w.pending) < run {
				continue
			}
			w.ch <- w.pending
			select {
			case w.pending = <-w.free:
			default:
				w.pending = make([]trace.Request, 0, run)
			}
			if failed.Load() {
				break scan
			}
		}
	}
	for _, w := range workers {
		if len(w.pending) > 0 {
			w.ch <- w.pending
		}
		close(w.ch)
	}
	wg.Wait()
	if err := it.Err(); err != nil {
		return sim.Result{}, err
	}
	if first != nil {
		return sim.Result{}, first
	}

	res := sim.Result{
		Trace:     it.Name(),
		Requests:  total,
		PerClient: make([]sim.ClientStat, len(workers)),
	}
	for i, w := range workers {
		res.PerClient[i] = *w.st
		res.Reads += w.st.Reads
		res.ReadHits += w.st.ReadHits
	}
	return res, nil
}

// ServeSource drives one shared cache from any request source — a trace
// file, an in-memory trace (t.Source()), or a live workload generator —
// with one goroutine per client and without ever materialising the stream:
// a 100M-request serve needs memory for a few batches per client, not for
// the trace. The cache must be safe for concurrent use (core.Sharded is;
// plain CLIC and the baseline policies are only with a single client).
// batchSize 0 selects core.DefaultAccessBatch.
func ServeSource(p policy.Policy, src trace.Source, batchSize int) (sim.Result, error) {
	it, err := src.Iter()
	if err != nil {
		return sim.Result{}, err
	}
	defer it.Close()
	return ServeIterator(p, it, batchSize, nil)
}

// ServeIterator is ServeSource over an already-open iterator. A Sharded
// front is driven through per-client producer handles in batches — the
// same shape the network path uses, so the front's frame fan-out is
// exercised identically in-process and over TCP — and, when lat is
// non-nil, every AccessBatch call's wall time in nanoseconds goes into
// lat; other policies take the per-request path and are not timed. It
// cannot run policy.Preparer prefix passes (OPT needs the whole request
// slice); those policies go through Run. Per-client read accounting is
// exact; the aggregate hit count depends on how the clients' requests
// interleave, so with more than one client it is not deterministic across
// calls.
func ServeIterator(p policy.Policy, it trace.Iterator, batchSize int, lat *metrics.Histogram) (sim.Result, error) {
	if batchSize <= 0 {
		batchSize = core.DefaultAccessBatch
	}
	sharded, _ := p.(*core.Sharded)
	res, err := Dispatch(it, 0, batchSize, func(_ string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
		s := &localSession{p: p, st: st, hits: make([]bool, batchSize)}
		if sharded != nil {
			s.prod = sharded.NewProducer()
			s.lat = lat
		}
		return s, nil
	})
	if err != nil {
		return sim.Result{}, err
	}
	res.Policy = p.Name()
	res.CacheSize = p.Capacity()
	return res, nil
}

// localSession is the in-process Session: batches go straight into the
// cache on the worker's goroutine, so nothing is ever in flight.
type localSession struct {
	p    policy.Policy
	prod *core.Producer // nil for non-Sharded policies
	hits []bool
	st   *sim.ClientStat
	lat  *metrics.Histogram // nil: batches are not timed
}

// Submit counts reads and read hits by addition, not behind a branch on
// the verdict: with hits near one in two that branch is a coin toss.
func (s *localSession) Submit(reqs []trace.Request) error {
	hits := s.hits[:len(reqs)]
	switch {
	case s.prod == nil:
		for i, r := range reqs {
			hits[i] = s.p.Access(r)
		}
	case s.lat != nil:
		t0 := time.Now()
		s.prod.AccessBatch(reqs, hits)
		s.lat.Observe(uint64(time.Since(t0)))
	default:
		s.prod.AccessBatch(reqs, hits)
	}
	var reads, readHits uint64
	for i, r := range reqs {
		rd := b2u(r.Op == trace.Read)
		reads += rd
		readHits += rd & b2u(hits[i])
	}
	s.st.Reads += reads
	s.st.ReadHits += readHits
	return nil
}

// b2u is 1 for true and 0 for false; the compiler emits no jump for it.
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

func (s *localSession) Drain() error { return nil }

func (s *localSession) Close() error {
	if s.prod != nil {
		s.prod.Close()
	}
	return nil
}
