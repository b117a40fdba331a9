package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/hint"
)

// Binary trace format v2 — the one trace file format. Nothing in the header
// depends on the whole trace (no request count, no complete dictionary), so
// a generator can write requests as it produces them and a scanner can read
// them back with bounded memory at both ends.
//
//	magic      "CLICTRC2" (8 bytes)
//	nameLen, name
//	pageSize
//	clientCount, then each client name (len, bytes)
//	then a sequence of sections, each introduced by a tag byte:
//
//	0x01 dict      count, then count hint keys (len, bytes) — the keys
//	               interned since the previous dict section, in ID order.
//	               Every request block only references IDs announced by
//	               dict sections before it.
//	0x02 requests  reqCount, payloadLen, then payloadLen bytes holding
//	               reqCount records of: flags byte (bit0 = write), client
//	               byte, page delta (zig-zag varint vs previous page,
//	               chained across blocks), hint ID varint.
//	0xFF trailer   total request count, dictionary length, CRC-32 (IEEE,
//	               4 big-endian bytes) over all request-block payload
//	               bytes. Nothing may follow the trailer.
//
// All integers are varint-encoded unless noted. Block framing is what buys
// the parallelism: payloads are self-contained byte runs, so a Writer can
// encode blocks on several cores and emit them in order, and a Scanner can
// slurp one payload at a time into a reused buffer and decode it without
// allocating. The trailer makes truncation detectable: a v2 stream without
// a valid trailer is corrupt by definition (tracegen -verify checks this).

const (
	binaryMagicV2 = "CLICTRC2"

	v2TagDict    = 0x01
	v2TagBlock   = 0x02
	v2TagTrailer = 0xFF
)

// DefaultBlockSize is the Writer's request count per block. 64K requests
// encode to a few hundred KiB, large enough to amortise framing and keep
// encoder workers busy, small enough that a handful of in-flight blocks is
// negligible memory.
const DefaultBlockSize = 1 << 16

// WriterOptions tune a v2 Writer.
type WriterOptions struct {
	// BlockSize is the request count per block; 0 selects DefaultBlockSize.
	BlockSize int
	// Workers is the number of parallel block encoders; 0 selects
	// GOMAXPROCS, 1 encodes inline on the appending goroutine. The output
	// bytes are identical at any worker count: blocks are encoded in
	// parallel but written in order.
	Workers int
}

func (o WriterOptions) blockSize() int {
	if o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

func (o WriterOptions) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// Writer encodes a request stream in format v2. It implements Sink, so
// generators write straight to disk: memory is bounded by the block size
// times the blocks in flight, independent of how many requests pass
// through. Not safe for concurrent use; one goroutine appends.
//
// Appends never fail directly — encoding errors are sticky and surface
// from Err and Close. Close writes the trailer; a Writer that is not
// Closed leaves a stream without a trailer, which scanners reject.
type Writer struct {
	bw     *bufio.Writer
	closer io.Closer

	dict     *hint.Dict
	opts     WriterOptions
	block    []Request
	prevPage uint64 // last page of the previous flushed block
	dictSent int
	total    uint64
	crc      uint32
	err      error
	closed   bool

	// Parallel encoding state (nil when Workers <= 1).
	jobs  chan *encJob
	order chan *encJob
	wdone chan struct{}
	encWG sync.WaitGroup
	freeB chan []Request // recycled block buffers
	freeP chan []byte    // recycled payload buffers
}

// encJob is one block travelling dispatcher -> encoder -> writer.
type encJob struct {
	reqs    []Request
	prev    uint64
	newKeys []string
	out     chan []byte
}

// NewWriter starts a v2 stream on w with the given header. The client list
// must be complete up front (generators know their clients); the hint
// dictionary streams incrementally. If w is also an io.Closer it is NOT
// closed by Writer.Close — use Create for a writer that owns its file.
func NewWriter(w io.Writer, name string, pageSize int, clients []string, opts WriterOptions) *Writer {
	wr := &Writer{
		bw:   bufio.NewWriterSize(w, 1<<20),
		dict: hint.NewDict(),
		opts: opts,
	}
	if len(clients) == 0 {
		clients = []string{name}
	}
	wr.bw.WriteString(binaryMagicV2)
	wr.writeString(name)
	writeUvarint(wr.bw, uint64(pageSize))
	writeUvarint(wr.bw, uint64(len(clients)))
	for _, c := range clients {
		wr.writeString(c)
	}
	wr.block = make([]Request, 0, opts.blockSize())
	if opts.workers() > 1 {
		wr.startParallel(opts.workers())
	}
	return wr
}

// Create opens path and starts a v2 stream on it; Close closes the file.
func Create(path, name string, pageSize int, clients []string, opts WriterOptions) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := NewWriter(f, name, pageSize, clients, opts)
	w.closer = f
	return w, nil
}

func (w *Writer) writeString(s string) {
	writeUvarint(w.bw, uint64(len(s)))
	w.bw.WriteString(s)
}

// HintDict implements Sink.
func (w *Writer) HintDict() *hint.Dict { return w.dict }

// Len implements Sink.
func (w *Writer) Len() int { return int(w.total) }

// Err returns the sticky encoding error, if any.
func (w *Writer) Err() error { return w.err }

// AppendReq implements Sink.
func (w *Writer) AppendReq(r Request) {
	if w.err != nil || w.closed {
		return
	}
	w.block = append(w.block, r)
	w.total++
	if len(w.block) >= w.opts.blockSize() {
		w.flushBlock()
	}
}

// newKeys returns the dictionary keys interned since the last flush.
func (w *Writer) newKeys() []string {
	n := w.dict.Len()
	if n == w.dictSent {
		return nil
	}
	keys := make([]string, 0, n-w.dictSent)
	for id := w.dictSent; id < n; id++ {
		keys = append(keys, w.dict.Key(hint.ID(id)))
	}
	w.dictSent = n
	return keys
}

func (w *Writer) flushBlock() {
	if len(w.block) == 0 {
		return
	}
	keys := w.newKeys()
	prev := w.prevPage
	w.prevPage = w.block[len(w.block)-1].Page

	if w.jobs == nil {
		payload := encodeBlock(nil, w.block, prev)
		w.writeEncoded(keys, len(w.block), payload)
		w.block = w.block[:0]
		return
	}
	job := &encJob{reqs: w.block, prev: prev, newKeys: keys, out: make(chan []byte, 1)}
	w.jobs <- job
	w.order <- job
	select {
	case b := <-w.freeB:
		w.block = b[:0]
	default:
		w.block = make([]Request, 0, w.opts.blockSize())
	}
}

// writeEncoded emits a dict section (when keys arrived) followed by one
// request block, updating the payload checksum. Serial-path and parallel
// writer goroutine both land here, so bytes are identical either way.
func (w *Writer) writeEncoded(keys []string, reqCount int, payload []byte) {
	if w.err != nil {
		return
	}
	if len(keys) > 0 {
		w.bw.WriteByte(v2TagDict)
		writeUvarint(w.bw, uint64(len(keys)))
		for _, k := range keys {
			w.writeString(k)
		}
	}
	w.bw.WriteByte(v2TagBlock)
	writeUvarint(w.bw, uint64(reqCount))
	writeUvarint(w.bw, uint64(len(payload)))
	if _, err := w.bw.Write(payload); err != nil {
		w.err = err
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, payload)
}

// encodeBlock appends the records of reqs to dst (reset to length 0),
// delta-chaining pages from prev.
func encodeBlock(dst []byte, reqs []Request, prev uint64) []byte {
	dst = dst[:0]
	var tmp [binary.MaxVarintLen64]byte
	for _, r := range reqs {
		flags := byte(0)
		if r.Op == Write {
			flags |= 1
		}
		dst = append(dst, flags, r.Client)
		n := binary.PutVarint(tmp[:], int64(r.Page)-int64(prev))
		dst = append(dst, tmp[:n]...)
		prev = r.Page
		n = binary.PutUvarint(tmp[:], uint64(r.Hint))
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

func (w *Writer) startParallel(workers int) {
	w.jobs = make(chan *encJob, workers)
	w.order = make(chan *encJob, workers*2)
	w.wdone = make(chan struct{})
	w.freeB = make(chan []Request, workers*2)
	w.freeP = make(chan []byte, workers*2)
	for i := 0; i < workers; i++ {
		w.encWG.Add(1)
		go func() {
			defer w.encWG.Done()
			for job := range w.jobs {
				var buf []byte
				select {
				case buf = <-w.freeP:
				default:
				}
				job.out <- encodeBlock(buf, job.reqs, job.prev)
			}
		}()
	}
	go func() {
		defer close(w.wdone)
		for job := range w.order {
			payload := <-job.out
			w.writeEncoded(job.newKeys, len(job.reqs), payload)
			select {
			case w.freeB <- job.reqs[:0]:
			default:
			}
			select {
			case w.freeP <- payload[:0]:
			default:
			}
		}
	}()
}

// Close flushes everything, writes the trailer, and (for Create-built
// writers) closes the file. It reports the first error of the stream's
// lifetime; a nil return means the trace on disk is complete and
// checksummed.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushBlock()
	if w.jobs != nil {
		close(w.jobs)
		w.encWG.Wait()
		close(w.order)
		<-w.wdone
		w.jobs = nil
	}
	if keys := w.newKeys(); len(keys) > 0 && w.err == nil {
		// Keys interned after the last request block still belong to the
		// dictionary (truncated generations intern trailing hints).
		w.bw.WriteByte(v2TagDict)
		writeUvarint(w.bw, uint64(len(keys)))
		for _, k := range keys {
			w.writeString(k)
		}
	}
	if w.err == nil {
		w.bw.WriteByte(v2TagTrailer)
		writeUvarint(w.bw, w.total)
		writeUvarint(w.bw, uint64(w.dict.Len()))
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], w.crc)
		w.bw.Write(crc[:])
		w.err = w.bw.Flush()
	}
	if w.closer != nil {
		if cerr := w.closer.Close(); w.err == nil {
			w.err = cerr
		}
		w.closer = nil
	}
	return w.err
}

// writeAll appends the whole in-memory trace and closes the stream. The
// dictionary is interned up front in ID order, so the stream carries exactly
// the trace's dictionary, including keys no request references.
func (w *Writer) writeAll(t *Trace) error {
	for _, k := range t.Dict.Keys() {
		w.dict.InternKey(k)
	}
	for _, r := range t.Reqs {
		w.AppendReq(r)
	}
	return w.Close()
}

// ensure interface satisfaction.
var _ Sink = (*Writer)(nil)
var _ Sink = (*Trace)(nil)
var _ Sink = (*PipeWriter)(nil)
var _ Iterator = (*PipeReader)(nil)
var _ Iterator = (*memIter)(nil)
var _ Iterator = (*Scanner)(nil)

// errTruncatedV2 labels a v2 stream that ended without a trailer.
var errTruncatedV2 = fmt.Errorf("trace: v2 stream truncated (no trailer)")
