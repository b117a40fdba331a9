package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
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
	// BatchSize is the request count the next batch should carry; adaptive
	// sessions grow it as results come back.
	BatchSize() int
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

// Dispatch is the one scan → per-client worker loop behind every
// concurrent serve and replay: it scans it (stopping after limit requests
// when limit is positive), discovers clients as they appear, and gives each
// its own goroutine and its own session from open. Each worker is handed
// runs — the smallest multiple of the session's current BatchSize
// (firstBatch until the session is up) that holds at least
// core.DefaultAccessBatch requests — and cuts every run into batches of
// BatchSize, re-read after each Submit; a batch never spans two runs. So a
// lock-step session, one request per batch, meets the dispatcher once per
// run, not once per round trip. Clients the iterator has no name for are
// called client<i>. The result carries the trace name, the request count
// and the per-client read accounting; the caller labels it with the policy
// and capacity that answered.
//
// Run buffers cycle between the dispatcher and each worker: the dispatcher
// fills one from the scan, hands it over, and gets it back once its last
// batch has been submitted, so after a few runs per client the steady
// state allocates nothing. The first failure — a session that will not
// open, a Submit or Drain error — stops the scan at the next hand-off and
// is returned; the workers keep draining their queues meanwhile, so the
// dispatcher never blocks on a dead session.
func Dispatch(it trace.Iterator, limit, firstBatch int, open func(name string, keys *KeyLog, st *sim.ClientStat) (Session, error)) (sim.Result, error) {
	type worker struct {
		ch      chan []trace.Request
		free    chan []trace.Request
		pending []trace.Request
		// st is its own allocation: the session counts into it on every
		// request while the dispatcher appends to pending on every request,
		// and the two must not share a cache line.
		st *sim.ClientStat
		// run is the length of the next run, stored by the worker when the
		// session's batch size changes and read by the dispatcher to place
		// run boundaries.
		run atomic.Int64
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
	runLen := func(size int) int64 {
		return int64((core.DefaultAccessBatch + size - 1) / size * size)
	}
	spawn := func(name string) *worker {
		// ch lets the scan run a few runs ahead of a session that is
		// waiting on its peer; free holds every buffer that can be out at
		// once (those queued on ch, the one being submitted, the one being
		// filled) with room to spare, so returning one never blocks.
		w := &worker{
			ch:   make(chan []trace.Request, 4),
			free: make(chan []trace.Request, 8),
			st:   &sim.ClientStat{Name: name},
		}
		size := max(firstBatch, 1)
		w.run.Store(runLen(size))
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
			for run := range w.ch {
				for rest := run; sess != nil && len(rest) > 0 && !failed.Load(); {
					batch := rest[:min(size, len(rest))]
					rest = rest[len(batch):]
					if err := sess.Submit(batch); err != nil {
						fail(err)
					} else if n := max(sess.BatchSize(), 1); n != size {
						size = n
						w.run.Store(runLen(n))
					}
				}
				select {
				case w.free <- run[:0]:
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
	// the dictionary mid-stream, on this goroutine only; comparing its
	// length keeps the KeyLog mutex off the per-request path.
	dict := it.HintDict()
	keys.grow(dict)
	dictLen := dict.Len()
	for it.Scan() {
		if limit > 0 && total >= uint64(limit) {
			break
		}
		r := it.Request()
		if n := dict.Len(); n != dictLen {
			keys.grow(dict)
			dictLen = n
		}
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
		total++
		if int64(len(w.pending)) < w.run.Load() {
			continue
		}
		w.ch <- w.pending
		select {
		case w.pending = <-w.free:
		default:
			w.pending = nil
		}
		if failed.Load() {
			break
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

// ServeIterator is ServeSource over an already-open iterator, with optional
// instrumentation taps (nil m turns them off). A Sharded front is driven
// through per-client producer handles in batches — the same shape the
// network path uses, so the front's frame fan-out is exercised
// identically in-process and over TCP; other policies take the per-request
// path and are not observed by m. It cannot run policy.Preparer prefix
// passes (OPT needs the whole request slice); those policies go through
// Run. Per-client read accounting is exact; the aggregate hit count depends
// on how the clients' requests interleave, so with more than one client it
// is not deterministic across calls.
func ServeIterator(p policy.Policy, it trace.Iterator, batchSize int, m *ServeMetrics) (sim.Result, error) {
	if batchSize <= 0 {
		batchSize = core.DefaultAccessBatch
	}
	sharded, _ := p.(*core.Sharded)
	res, err := Dispatch(it, 0, batchSize, func(_ string, _ *KeyLog, st *sim.ClientStat) (Session, error) {
		s := &localSession{p: p, st: st, batch: batchSize}
		if sharded != nil {
			s.prod = sharded.NewProducer()
			s.hits = make([]bool, batchSize)
			s.m = m
			if m != nil && m.BatchLatency != nil {
				if s.clock = m.Clock; s.clock == nil {
					start := time.Now()
					s.clock = func() time.Duration { return time.Since(start) }
				}
			}
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
	p     policy.Policy
	prod  *core.Producer // nil for non-Sharded policies
	hits  []bool
	st    *sim.ClientStat
	m     *ServeMetrics
	clock func() time.Duration // non-nil when batches are timed
	batch int
}

func (s *localSession) Submit(reqs []trace.Request) error {
	st, hits := s.st, s.hits // locals: the counting loops stay in registers
	if s.prod == nil {
		for _, r := range reqs {
			hit := s.p.Access(r)
			if r.Op == trace.Read {
				st.Reads++
				if hit {
					st.ReadHits++
				}
			}
		}
		return nil
	}
	if s.clock != nil {
		t0 := s.clock()
		s.prod.AccessBatch(reqs, hits)
		s.m.BatchLatency.Observe(uint64(s.clock() - t0))
	} else {
		s.prod.AccessBatch(reqs, hits)
	}
	for i := range reqs {
		if reqs[i].Op == trace.Read {
			st.Reads++
			if hits[i] {
				st.ReadHits++
			}
		}
	}
	if s.m != nil {
		s.m.mark(len(reqs))
	}
	return nil
}

func (s *localSession) BatchSize() int { return s.batch }

func (s *localSession) Drain() error { return nil }

func (s *localSession) Close() error {
	if s.prod != nil {
		s.prod.Close()
	}
	return nil
}
