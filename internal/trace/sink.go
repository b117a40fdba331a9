package trace

import (
	"repro/internal/hint"
)

// Sink is the streaming destination for request generation: anything that
// can intern hint sets and absorb requests one at a time. An in-memory
// *Trace is a Sink (the classic path); the format-v2 *Writer is a Sink that
// encodes straight to disk in bounded memory; a *PipeWriter is a Sink that
// feeds a concurrent consumer. Generators (internal/dbsim, internal/
// workload) write only through this interface, so the same simulation code
// produces in-RAM traces, trace files, and live request streams.
//
// Sinks are not safe for concurrent use: one goroutine generates, the sink
// absorbs. Errors on encoding sinks are sticky and surface from the sink's
// Err/Close methods; Err(Sink) checks for them generically.
type Sink interface {
	// HintDict returns the dictionary the sink interns hint sets into.
	// Requests appended to the sink reference IDs of this dictionary.
	HintDict() *hint.Dict
	// AppendReq absorbs one request. The request's Hint must already be
	// interned in HintDict().
	AppendReq(r Request)
	// Len returns the number of requests absorbed so far.
	Len() int
}

// HintDict returns the trace's hint dictionary (Sink).
func (t *Trace) HintDict() *hint.Dict { return t.Dict }

// AppendReq appends one request verbatim (Sink). Unlike Append it preserves
// the request's Client tag, which multi-client merges rely on.
func (t *Trace) AppendReq(r Request) { t.Reqs = append(t.Reqs, r) }

// Err returns the sink's sticky error when it has one (encoding sinks: the
// v2 Writer, the pipe) and nil otherwise (an in-memory Trace cannot fail).
func Err(s Sink) error {
	if e, ok := s.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Limit wraps a sink so it silently drops every request beyond max; Len
// reports the accepted count. Generators run whole transactions and may
// overshoot their request budget by a few records — Limit gives them an
// exact cut identical to generating in RAM and truncating.
func Limit(s Sink, max int) Sink { return &limitSink{s: s, max: max} }

type limitSink struct {
	s   Sink
	max int
	n   int
}

func (l *limitSink) HintDict() *hint.Dict { return l.s.HintDict() }

func (l *limitSink) Len() int { return l.n }

func (l *limitSink) AppendReq(r Request) {
	if l.n >= l.max {
		return
	}
	l.s.AppendReq(r)
	l.n++
}

// Iterator is the streaming counterpart of a []Request: the minimal
// interface every request source implements — disk scans (*Scanner),
// in-memory traces (Trace.Iter), and live generators (*PipeReader). The
// replay paths (engine.ServeSource, netclient.ReplaySource,
// cluster.ReplaySource) consume Iterators so they never need the full
// trace in RAM.
//
// The hint dictionary may grow as the iteration proceeds (trace files,
// generated streams); by the time Scan has returned a request, the
// dictionary entry and client slot it references exist.
type Iterator interface {
	// Scan advances to the next request, false at end of stream or error.
	Scan() bool
	// Request returns the request produced by the last successful Scan.
	Request() Request
	// Err returns the first error encountered (nil at a clean end).
	Err() error
	// Name returns the trace name.
	Name() string
	// PageSize returns the block size in bytes.
	PageSize() int
	// Clients returns the client names known so far (a copy).
	Clients() []string
	// HintDict returns the dictionary request Hint fields reference.
	HintDict() *hint.Dict
	// Close releases the source (files, generator goroutines).
	Close() error
}

// Source describes where a request stream comes from — a trace file, an
// in-memory trace, or a generator spec — without opening it. Replay paths
// take a Source so callers choose between "replay this file" and "replay
// this generated workload" with one argument, and the stream is (re)opened
// only when the replay actually runs.
type Source interface {
	// Label names the source for reports ("traces/DB2_C60.trc",
	// "DB2_C60*4").
	Label() string
	// Iter opens the stream. The caller must Close the iterator.
	Iter() (Iterator, error)
}

// FileSource is a Source reading a trace file from a path.
type FileSource string

// Label implements Source.
func (p FileSource) Label() string { return string(p) }

// Iter implements Source by opening the file with a Scanner.
func (p FileSource) Iter() (Iterator, error) { return Open(string(p)) }

// Iter returns an Iterator over the in-memory trace. It exists so code
// written against the streaming interfaces also serves in-RAM traces (and
// so streamed and in-RAM replays are directly comparable).
func (t *Trace) Iter() Iterator { return &memIter{t: t, pos: -1} }

// Source makes an in-memory trace usable where a Source is expected.
func (t *Trace) Source() Source { return memSource{t} }

type memSource struct{ t *Trace }

func (s memSource) Label() string           { return s.t.Name }
func (s memSource) Iter() (Iterator, error) { return s.t.Iter(), nil }

type memIter struct {
	t   *Trace
	pos int
}

func (it *memIter) Scan() bool {
	if it.pos+1 >= len(it.t.Reqs) {
		return false
	}
	it.pos++
	return true
}

func (it *memIter) Request() Request     { return it.t.Reqs[it.pos] }
func (it *memIter) Err() error           { return nil }
func (it *memIter) Name() string         { return it.t.Name }
func (it *memIter) PageSize() int        { return it.t.PageSize }
func (it *memIter) HintDict() *hint.Dict { return it.t.Dict }
func (it *memIter) Close() error         { return nil }

func (it *memIter) Clients() []string {
	out := make([]string, len(it.t.Clients))
	copy(out, it.t.Clients)
	return out
}

// DefaultPipeChunk is the request count per pipe hand-off.
const DefaultPipeChunk = 8192

// pipeChunk is one hand-off unit: a run of requests plus the hint keys the
// producer interned since the previous chunk (in ID order), so the consumer
// can mirror the producer's dictionary without sharing it across
// goroutines.
type pipeChunk struct {
	reqs    []Request
	newKeys []string
}

// NewPipe connects a generating Sink to a consuming Iterator through a
// bounded channel: the producer goroutine appends requests, the consumer
// scans them, and at most a few chunks are in flight — memory stays
// bounded no matter how long the stream runs. The producer must call
// Close (or CloseWithError) when done; the consumer's Close cancels the
// producer, whose subsequent appends are dropped.
//
// The reader re-interns the producer's newly seen hint keys in the order
// they were assigned, so hint IDs are identical on both sides.
func NewPipe(name string, pageSize int, clients []string, chunk int) (*PipeWriter, *PipeReader) {
	if chunk <= 0 {
		chunk = DefaultPipeChunk
	}
	ch := make(chan pipeChunk, 2)
	free := make(chan []Request, 4)
	done := make(chan struct{})
	errc := make(chan error, 1)
	w := &PipeWriter{
		dict:  hint.NewDict(),
		ch:    ch,
		free:  free,
		done:  done,
		errc:  errc,
		chunk: chunk,
		buf:   make([]Request, 0, chunk),
	}
	r := &PipeReader{
		name:     name,
		pageSize: pageSize,
		clients:  append([]string(nil), clients...),
		dict:     hint.NewDict(),
		ch:       ch,
		free:     free,
		done:     done,
		errc:     errc,
	}
	return w, r
}

// PipeWriter is the producer half of NewPipe. It implements Sink.
type PipeWriter struct {
	dict     *hint.Dict
	ch       chan pipeChunk
	free     chan []Request
	done     chan struct{}
	errc     chan error
	chunk    int
	buf      []Request
	sentKeys int
	n        int
	closed   bool
	canceled bool
}

// HintDict implements Sink.
func (w *PipeWriter) HintDict() *hint.Dict { return w.dict }

// Len implements Sink.
func (w *PipeWriter) Len() int { return w.n }

// AppendReq implements Sink. Once the reader has closed, appends are
// silently dropped so producers can finish their current transaction and
// notice the cancellation at Close.
func (w *PipeWriter) AppendReq(r Request) {
	if w.closed || w.canceled {
		return
	}
	w.buf = append(w.buf, r)
	w.n++
	if len(w.buf) >= w.chunk {
		w.flush()
	}
}

func (w *PipeWriter) flush() {
	if len(w.buf) == 0 {
		return
	}
	var newKeys []string
	if n := w.dict.Len(); n > w.sentKeys {
		newKeys = make([]string, 0, n-w.sentKeys)
		for id := w.sentKeys; id < n; id++ {
			newKeys = append(newKeys, w.dict.Key(hint.ID(id)))
		}
		w.sentKeys = n
	}
	select {
	case w.ch <- pipeChunk{reqs: w.buf, newKeys: newKeys}:
	case <-w.done:
		w.canceled = true
		return
	}
	select {
	case buf := <-w.free:
		w.buf = buf[:0]
	default:
		w.buf = make([]Request, 0, w.chunk)
	}
}

// Canceled reports whether the reader closed the pipe before the producer
// finished.
func (w *PipeWriter) Canceled() bool { return w.canceled }

// Close flushes the pending chunk and marks the stream complete.
func (w *PipeWriter) Close() error { return w.CloseWithError(nil) }

// CloseWithError completes the stream with an error the reader will report
// from Err after consuming everything sent so far.
func (w *PipeWriter) CloseWithError(err error) error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.flush()
	if err != nil {
		w.errc <- err
	}
	close(w.ch)
	return nil
}

// PipeReader is the consumer half of NewPipe. It implements Iterator.
type PipeReader struct {
	name     string
	pageSize int
	clients  []string
	dict     *hint.Dict
	ch       chan pipeChunk
	free     chan []Request
	done     chan struct{}
	errc     chan error
	cur      []Request
	pos      int
	err      error
	eof      bool
	closed   bool
}

// Scan implements Iterator.
func (r *PipeReader) Scan() bool {
	if r.err != nil || r.eof {
		return false
	}
	r.pos++
	for r.pos >= len(r.cur) {
		if r.cur != nil {
			select {
			case r.free <- r.cur[:0]:
			default:
			}
			r.cur = nil
		}
		c, ok := <-r.ch
		if !ok {
			r.eof = true
			select {
			case err := <-r.errc:
				r.err = err
			default:
			}
			return false
		}
		for _, k := range c.newKeys {
			r.dict.InternKey(k)
		}
		r.cur = c.reqs
		r.pos = 0
	}
	return true
}

// Request implements Iterator.
func (r *PipeReader) Request() Request { return r.cur[r.pos] }

// Err implements Iterator.
func (r *PipeReader) Err() error { return r.err }

// Name implements Iterator.
func (r *PipeReader) Name() string { return r.name }

// PageSize implements Iterator.
func (r *PipeReader) PageSize() int { return r.pageSize }

// HintDict implements Iterator.
func (r *PipeReader) HintDict() *hint.Dict { return r.dict }

// Clients implements Iterator.
func (r *PipeReader) Clients() []string {
	out := make([]string, len(r.clients))
	copy(out, r.clients)
	return out
}

// Close implements Iterator: it cancels the producer and drains the
// channel so the producer never blocks on a dead consumer.
func (r *PipeReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	close(r.done)
	go func() {
		for range r.ch {
		}
	}()
	return nil
}

// Collect drains an iterator into an in-memory trace — the bridge from the
// streaming world back to code that wants a *Trace. The iterator's
// dictionary is cloned once at the end, so IDs match the stream's.
func Collect(it Iterator) (*Trace, error) {
	var reqs []Request
	for it.Scan() {
		reqs = append(reqs, it.Request())
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	// The dictionary is read after the drain: dict sections only
	// materialise as the stream is scanned.
	t := New(it.Name(), it.PageSize())
	t.Reqs = reqs
	t.Dict = it.HintDict().Clone()
	if cs := it.Clients(); len(cs) > 0 {
		t.Clients = cs
	}
	return t, t.Validate()
}
