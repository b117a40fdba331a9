// Package wire defines the length-prefixed binary protocol spoken between
// the network cache server (internal/server) and its clients
// (internal/netclient). The codec is shared by both sides so the two can
// never drift apart.
//
// Every frame is a uvarint payload length followed by the payload; the
// payload's first byte is the frame type. Bodies (all integers are varints
// unless noted; strings are uvarint length + bytes):
//
//	Hello    (client→server)  version, client name, hint key count, keys
//	HelloAck (server→client)  version, shard count, capacity, in-flight
//	                          window
//	Intern   (client→server)  hint key count, keys — appended to the
//	                          connection's hint table, so clients may
//	                          announce hint sets discovered mid-stream
//	BatchSeq (client→server)  sequence number (uvarint), request count,
//	                          then per request:
//	                            flags byte (bit0 = write),
//	                            page delta (zig-zag varint vs the previous
//	                            page in the batch, starting from 0),
//	                            hint ID (index into the hint table built
//	                            by Hello/Intern, in announcement order)
//	ResultsSeq (server→client) sequence number (uvarint) of the BatchSeq it
//	                          answers, result count, outqueue depth, then a
//	                          hit bitmap of ceil(count/8) bytes (LSB first)
//	Error    (server→client)  message — sent before the server closes a
//	                          misbehaving connection
//
// The client ID is implicit: one connection is one client. Page numbers are
// delta-encoded within each batch because clients issue runs of sequential
// pages (scans, prefetch), exactly as in the binary trace file format. The
// outqueue depth in ResultsSeq is the server's CLIC outqueue fill level — a
// hint back to clients about how much uncached-page history the server is
// retaining.
//
// # Versions and pipelining
//
// There is one protocol version, Version. Hello and HelloAck carry it so
// the handshake can refuse a peer cleanly: the server answers an older
// client with an Error frame naming both versions, answers a newer one
// with Version (which the newer side may then decline), and the client
// applies the same rule to the ack (Negotiate implements both directions).
// Every batch is sequence-tagged: a client numbers its BatchSeq frames
// 0, 1, 2, … and may keep up to HelloAck's window of them in flight; the
// server answers each with a ResultsSeq carrying the same number, always in
// ascending order (TCP preserves it; a client seeing an unexpected number
// must treat the connection as broken). Lock-step is a window of one.
// Frame types 4 and 5 were the untagged Batch/Results of versions 1–2, and
// 7 was the Summary that cluster nodes once exchanged their statistics
// windows in; the numbers stay reserved and are refused like any unknown
// type.
//
// # Flushing
//
// Both ends write through a bufio.Writer, and when its bytes leave decides
// both the system calls per request and whether the pipeline can hang. The
// rule is one invariant: neither side ever blocks on its peer while holding
// unflushed bytes the peer may be waiting for. Short of that, bytes wait for
// company, so that frames share system calls:
//
//   - The client (netclient.Pipeline) flushes before reading a result only
//     if that read would block, i.e. no whole frame is already buffered
//     (FrameReader.Ready), and in Submit once at least two frames and half
//     its window sit unflushed — which keeps the server fed while the other
//     half is in flight. At depth 1 this is exactly "flush, then read".
//   - The server's writer flushes whenever it has caught up with the
//     connection's reader, its result queue empty. The result the reader
//     produced last before blocking on the client finds the queue empty
//     behind it, so results never wait on a frame that has yet to arrive —
//     not behind a partial frame, nor behind one that answers nothing
//     (Intern). Sooner than that the queue is empty only if a processor
//     was free to run the writer while the reader was busy in the cache:
//     results leave early when that is free and in window-sized bursts
//     when the machine is saturated. Error frames flush at once.
//
// It cannot deadlock: each side blocks only in a read it has flushed for,
// in a write (the peer is then reading, or itself in a write that the
// in-flight window bounds), or — the server's reader — waiting for a
// result slot, which its writer returns without the reader's help.
//
// A payload returned by FrameReader.Next is a view into the connection's
// read buffer when the frame fits it (64 KB on both ends; a 512-request
// batch is under 3 KB): nothing is copied, and the view is valid only until
// the next call to Next or Ready. Decoders copy what they keep (DecodeBatch
// into the caller's request slice, DecodeResultsSeq into its Hits, the
// string decoders into fresh strings), so the view may be released as soon
// as the decoder returns.
//
// The hit bitmap is packed and expanded eight verdicts a step with no
// branch on a verdict (appendBitmap, expandBitmap), and a count the bitmap
// cannot carry is refused before any arithmetic on it.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Metrics counts traffic through the frame codec, process-wide: frames and
// on-the-wire bytes (length prefix included) in each direction. The
// counters are plain atomics bumped inline in Read/WriteFrame — no
// registration or configuration needed, and no allocation on the frame
// path. RegisterMetrics exposes them on a registry.
var Metrics struct {
	FramesEncoded metrics.Counter
	BytesEncoded  metrics.Counter
	FramesDecoded metrics.Counter
	BytesDecoded  metrics.Counter
}

// RegisterMetrics registers the codec counters on r under the
// clic_wire_* names.
func RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("clic_wire_frames_total", "Frames through the codec by direction.",
		func() float64 { return float64(Metrics.FramesEncoded.Value()) }, "dir", "encoded")
	r.CounterFunc("clic_wire_frames_total", "Frames through the codec by direction.",
		func() float64 { return float64(Metrics.FramesDecoded.Value()) }, "dir", "decoded")
	r.CounterFunc("clic_wire_bytes_total", "Wire bytes (payload plus length prefix) by direction.",
		func() float64 { return float64(Metrics.BytesEncoded.Value()) }, "dir", "encoded")
	r.CounterFunc("clic_wire_bytes_total", "Wire bytes (payload plus length prefix) by direction.",
		func() float64 { return float64(Metrics.BytesDecoded.Value()) }, "dir", "decoded")
}

// uvarintLen returns the encoded size of n as a uvarint.
func uvarintLen(n uint64) uint64 {
	l := uint64(1)
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// Version is the one protocol version this codec speaks, offered in Hello
// and echoed in HelloAck.
const Version = 3

// Negotiate returns the protocol version to speak with a peer that
// announced peerVersion: Version when the peer is at least that new (a
// newer peer is expected to step down), an error naming both versions
// otherwise. Both handshake directions use it — the server on
// Hello.Version, the client on HelloAck.Version.
func Negotiate(peerVersion int) (int, error) {
	if peerVersion < Version {
		return 0, fmt.Errorf("wire: peer speaks protocol version %d, need %d", peerVersion, Version)
	}
	return Version, nil
}

// MaxFrame bounds a frame's payload size; both sides reject larger frames
// rather than allocating unbounded memory on malformed or hostile input.
const MaxFrame = 1 << 24

// DefaultBatch is the request count per BatchSeq frame used by clients that
// do not choose their own batching.
const DefaultBatch = 512

// Frame types (the first payload byte). 4, 5 and 7 are reserved.
const (
	TypeHello      byte = 1
	TypeHelloAck   byte = 2
	TypeIntern     byte = 3
	TypeError      byte = 6
	TypeBatchSeq   byte = 8
	TypeResultsSeq byte = 9
)

// Hello opens a connection: the client names itself and announces the hint
// sets (canonical hint.Set keys) it will reference by index.
type Hello struct {
	Version int
	Client  string
	Keys    []string
}

// HelloAck is the server's response to Hello.
type HelloAck struct {
	Version  int
	Shards   int
	Capacity int
	// Window is the largest number of batches the server lets one
	// connection keep in flight.
	Window int
}

// Results carries the per-request outcomes of one BatchSeq.
type Results struct {
	// Hits holds one hit/miss flag per request, in batch order.
	Hits []bool
	// OutqueueDepth is the server's CLIC outqueue fill level after the
	// batch (see core.Stats.OutqueueLen).
	OutqueueDepth int
}

// WriteFrame writes one length-prefixed frame. The caller flushes.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	// The length prefix goes out byte by byte: WriteByte keeps the varint
	// on the stack, where a scratch slice handed to Write would escape and
	// cost an allocation per frame.
	n := uint64(len(payload))
	for n >= 0x80 {
		if err := w.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
		n >>= 7
	}
	if err := w.WriteByte(byte(n)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	Metrics.FramesEncoded.Inc()
	Metrics.BytesEncoded.Add(uvarintLen(uint64(len(payload))) + uint64(len(payload)))
	return nil
}

// FrameReader reads frames from a connection's bufio.Reader without copying
// the ones that fit it: Next returns a view of the payload where it lies in
// the reader's buffer and the bytes are discarded when the view is
// released. A frame larger than the reader is collected in a spill buffer
// that grows as its bytes arrive, never ahead of them, so a length prefix
// alone commits no memory.
type FrameReader struct {
	r     *bufio.Reader
	spill []byte // a frame that did not fit r, reused frame after frame
	held  int    // bytes at the head of r's buffer that the current view covers
}

// NewFrameReader returns a frame reader over r.
func NewFrameReader(r *bufio.Reader) *FrameReader { return &FrameReader{r: r} }

// release gives the current view's bytes back to the reader.
func (f *FrameReader) release() {
	if f.held > 0 {
		// Cannot fail: the view was peeked, so the bytes are buffered.
		_, _ = f.r.Discard(f.held)
		f.held = 0
	}
}

// Next releases the previous view and returns the next frame's payload,
// blocking until the whole frame has arrived. The payload is valid until
// the next call to Next or Ready. io.EOF is returned unwrapped when the
// stream ends cleanly between frames.
func (f *FrameReader) Next() ([]byte, error) {
	f.release()
	// The prefix is consumed byte by byte, so a frame shorter than a
	// maximal prefix is never waited on for bytes that are not coming.
	n, err := binary.ReadUvarint(f.r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrame)
	}
	var p []byte
	if size := int(n); size <= f.r.Size() {
		p, err = f.r.Peek(size)
		f.held = len(p)
	} else {
		p, err = f.collect(size)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	Metrics.FramesDecoded.Inc()
	Metrics.BytesDecoded.Add(uvarintLen(n) + n)
	return p, nil
}

// collect copies a frame of size bytes, more than the reader holds at once,
// into the spill buffer. It waits for bytes first and makes room for them
// second, so the buffer grows (as append grows it) with what has arrived,
// never with what the prefix claimed.
func (f *FrameReader) collect(size int) ([]byte, error) {
	buf := f.spill[:0]
	for len(buf) < size {
		if _, err := f.r.Peek(1); err != nil {
			return nil, err
		}
		chunk, _ := f.r.Peek(min(f.r.Buffered(), size-len(buf)))
		buf = append(buf, chunk...)
		_, _ = f.r.Discard(len(chunk))
	}
	f.spill = buf
	return buf, nil
}

// Ready releases the current view and reports whether Next would return
// without reading from the connection: a whole frame (or a prefix Next
// will refuse) is already buffered. It is the "am I about to block?" test
// of the flush rule (see "Flushing" in the package comment).
func (f *FrameReader) Ready() bool {
	f.release()
	buf, _ := f.r.Peek(f.r.Buffered())
	n, k := binary.Uvarint(buf)
	if k == 0 {
		return false // no prefix, or part of one
	}
	return k < 0 || n > MaxFrame || n <= uint64(len(buf)-k)
}

// PayloadType returns the frame type of a payload.
func PayloadType(p []byte) (byte, error) {
	if len(p) == 0 {
		return 0, fmt.Errorf("wire: empty frame")
	}
	return p[0], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder consumes varint-encoded fields from a payload.
type decoder struct {
	p   []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.p) {
		return 0, fmt.Errorf("wire: truncated frame at offset %d", d.off)
	}
	b := d.p[d.off]
	d.off++
	return b, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.p)-d.off) < n {
		return "", fmt.Errorf("wire: string of %d bytes overruns frame", n)
	}
	s := string(d.p[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) strings() ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Each string costs at least its length byte; bound the allocation by
	// what the frame could possibly hold.
	if n > uint64(len(d.p)-d.off) {
		return nil, fmt.Errorf("wire: %d strings overrun frame", n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.string()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (d *decoder) done() error {
	if d.off != len(d.p) {
		return fmt.Errorf("wire: %d trailing bytes after frame body", len(d.p)-d.off)
	}
	return nil
}

func expect(p []byte, t byte) (decoder, error) {
	got, err := PayloadType(p)
	if err != nil {
		return decoder{}, err
	}
	if got != t {
		return decoder{}, fmt.Errorf("wire: frame type %d, want %d", got, t)
	}
	// Returned by value so the per-frame decoder lives on the caller's
	// stack: decoding must not allocate.
	return decoder{p: p, off: 1}, nil
}

// AppendHello encodes a Hello payload.
func AppendHello(dst []byte, h Hello) []byte {
	dst = append(dst, TypeHello)
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = appendString(dst, h.Client)
	dst = binary.AppendUvarint(dst, uint64(len(h.Keys)))
	for _, k := range h.Keys {
		dst = appendString(dst, k)
	}
	return dst
}

// DecodeHello decodes a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	d, err := expect(p, TypeHello)
	if err != nil {
		return Hello{}, err
	}
	var h Hello
	v, err := d.uvarint()
	if err != nil {
		return Hello{}, err
	}
	h.Version = int(v)
	if h.Client, err = d.string(); err != nil {
		return Hello{}, err
	}
	if h.Keys, err = d.strings(); err != nil {
		return Hello{}, err
	}
	return h, d.done()
}

// AppendHelloAck encodes a HelloAck payload.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = append(dst, TypeHelloAck)
	dst = binary.AppendUvarint(dst, uint64(a.Version))
	dst = binary.AppendUvarint(dst, uint64(a.Shards))
	dst = binary.AppendUvarint(dst, uint64(a.Capacity))
	return binary.AppendUvarint(dst, uint64(a.Window))
}

// DecodeHelloAck decodes a HelloAck payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	d, err := expect(p, TypeHelloAck)
	if err != nil {
		return HelloAck{}, err
	}
	var a HelloAck
	for _, f := range []*int{&a.Version, &a.Shards, &a.Capacity, &a.Window} {
		v, err := d.uvarint()
		if err != nil {
			return HelloAck{}, err
		}
		*f = int(v)
	}
	return a, d.done()
}

// AppendIntern encodes an Intern payload announcing additional hint keys.
func AppendIntern(dst []byte, keys []string) []byte {
	dst = append(dst, TypeIntern)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = appendString(dst, k)
	}
	return dst
}

// DecodeIntern decodes an Intern payload.
func DecodeIntern(p []byte) ([]string, error) {
	d, err := expect(p, TypeIntern)
	if err != nil {
		return nil, err
	}
	keys, err := d.strings()
	if err != nil {
		return nil, err
	}
	return keys, d.done()
}

// AppendBatchSeq encodes a BatchSeq payload: the sequence number, the
// request count, then per request the flags byte, delta-encoded page and
// hint ID. Request Client fields are ignored: the connection identifies the
// client. The worst case (maxRecord bytes a request) is reserved once and
// the records are written by index, as decodeRecords reads them.
//
// A page delta of up to four bytes — any but a jump across the address
// space — is written without a branch on its length, which on real
// traces is as good as random: all four bytes go out, continuation bits
// set, the length comes from the bit count and the last byte's
// continuation bit is cleared; what was written past the length is
// overwritten by the hint ID.
func AppendBatchSeq(dst []byte, seq uint64, reqs []trace.Request) []byte {
	dst = append(dst, TypeBatchSeq)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	off := len(dst)
	buf := slices.Grow(dst, len(reqs)*maxRecord)[:off+len(reqs)*maxRecord]
	prev := uint64(0)
	for i := range reqs {
		r := &reqs[i]
		q := buf[off : off+maxRecord]
		flags := byte(0)
		if r.Op == trace.Write {
			flags = 1
		}
		q[0] = flags
		delta := int64(r.Page) - int64(prev)
		prev = r.Page
		j := 1
		if ux := uint64(delta)<<1 ^ uint64(delta>>63); ux < 1<<28 {
			q[1] = byte(ux) | 0x80
			q[2] = byte(ux>>7) | 0x80
			q[3] = byte(ux>>14) | 0x80
			q[4] = byte(ux >> 21)
			j = (bits.Len32(uint32(ux)|1) + 6) / 7
			q[j] &= 0x7f
			j++
		} else {
			for ; ux >= 0x80; ux >>= 7 {
				q[j] = byte(ux) | 0x80
				j++
			}
			q[j] = byte(ux)
			j++
		}
		// Written out rather than binary.PutUvarint, which measures twice
		// as slow here (BenchmarkAppendBatchSeq).
		h := r.Hint
		for ; h >= 0x80; h >>= 7 {
			q[j] = byte(h) | 0x80
			j++
		}
		q[j] = byte(h)
		off += j + 1
	}
	return buf[:off]
}

// maxRecord is the longest request record the fast path of decodeRecords
// takes: flags byte, ten-byte page delta, five-byte hint ID.
const maxRecord = 1 + binary.MaxVarintLen64 + binary.MaxVarintLen32

// batchHeader checks a BatchSeq payload's type and decodes its sequence
// number and request count, leaving the decoder at the first record.
func batchHeader(p []byte) (d decoder, seq uint64, n int, err error) {
	if d, err = expect(p, TypeBatchSeq); err != nil {
		return d, 0, 0, err
	}
	if seq, err = d.uvarint(); err != nil {
		return d, 0, 0, err
	}
	count, err := d.uvarint()
	if err != nil {
		return d, seq, 0, err
	}
	// A record is at least 3 bytes (flags + delta + hint).
	if count > uint64(len(p))/3+1 {
		return d, seq, 0, fmt.Errorf("wire: batch of %d requests overruns frame", count)
	}
	return d, seq, int(count), nil
}

// opOf reads a record's flags byte (bit0 = write).
func opOf(flags byte) trace.Op {
	if flags&1 != 0 {
		return trace.Write
	}
	return trace.Read
}

// decodeRecords is the batch-decode kernel: it fills dst with the next
// len(dst) request records at d (Client 0; the receiver attributes them to
// the connection's client), carrying the running page value in *prev.
//
// While a worst-case record still fits the remaining bytes, records are
// decoded in one unchecked pass. Anything that pass does not take — a
// varint past its tenth byte or overflowing it, a hint ID longer than five
// bytes or above the ID range, the frame's last few records — is left to
// the checked per-field path below it, which accepts or names the error,
// so both paths reject exactly the same frames.
func (d *decoder) decodeRecords(dst []trace.Request, prev *int64) error {
	p, off, page := d.p, d.off, *prev
	i := 0
fast:
	for ; i < len(dst) && len(p)-off >= maxRecord; i++ {
		q := p[off : off+maxRecord]
		ux, j := uint64(q[1]), 2
		if ux >= 0x80 {
			ux &= 0x7f
			for s := uint(7); ; s += 7 {
				b := uint64(q[j])
				j++
				if s == 63 {
					// Tenth byte: one payload bit and no continuation.
					if b > 1 {
						break fast
					}
					ux |= b << 63
					break
				}
				ux |= (b & 0x7f) << s
				if b < 0x80 {
					break
				}
			}
		}
		h := uint64(q[j])
		j++
		if h >= 0x80 {
			h &= 0x7f
			for s := uint(7); ; s += 7 {
				b := uint64(q[j])
				j++
				h |= (b & 0x7f) << s
				if b < 0x80 {
					break
				}
				if s == 28 {
					break fast
				}
			}
			if h > uint64(^hint.ID(0)) {
				break fast
			}
		}
		page += int64(ux>>1) ^ -int64(ux&1)
		off += j
		dst[i] = trace.Request{Page: uint64(page), Hint: hint.ID(h), Op: opOf(q[0])}
	}
	d.off = off
	for ; i < len(dst); i++ {
		flags, err := d.byte()
		if err != nil {
			return err
		}
		delta, err := d.varint()
		if err != nil {
			return err
		}
		page += delta
		h, err := d.uvarint()
		if err != nil {
			return err
		}
		if h > uint64(^hint.ID(0)) {
			return fmt.Errorf("wire: hint ID %d overflows", h)
		}
		dst[i] = trace.Request{Page: uint64(page), Hint: hint.ID(h), Op: opOf(flags)}
	}
	*prev = page
	return nil
}

// DecodeBatch decodes a whole BatchSeq payload into dst, reusing its
// capacity: the server's path, one pass over the frame into a
// connection-owned request slice. Nothing of p is retained, so a
// FrameReader view may be released as soon as DecodeBatch returns.
func DecodeBatch(p []byte, dst []trace.Request) (seq uint64, reqs []trace.Request, err error) {
	d, seq, n, err := batchHeader(p)
	if err != nil {
		return seq, dst[:0], err
	}
	if cap(dst) < n {
		dst = make([]trace.Request, n)
	}
	dst = dst[:n]
	var prev int64
	if err := d.decodeRecords(dst, &prev); err != nil {
		return seq, dst[:0], err
	}
	return seq, dst, d.done()
}

// DecodeBatchStream is the callback form of DecodeBatch that the frozen
// benchmark (bench/layers.go) calls: begin once with the request count,
// then emit once per request in batch order, either of which may stop the
// decode by returning an error (propagated unwrapped). It is an adapter —
// decodeRecords over a small stack buffer — and goes, together with its
// constant-true tagged result (a leftover of the untagged Batch frame),
// when the benchmark is next revised.
func DecodeBatchStream(p []byte, begin func(n int) error, emit func(i int, r trace.Request) error) (seq uint64, tagged bool, err error) {
	d, seq, n, err := batchHeader(p)
	if err != nil {
		return seq, true, err
	}
	if err := begin(n); err != nil {
		return seq, true, err
	}
	var (
		buf  [64]trace.Request
		prev int64
	)
	for i := 0; i < n; i += len(buf) {
		chunk := buf[:min(len(buf), n-i)]
		if err := d.decodeRecords(chunk, &prev); err != nil {
			return seq, true, err
		}
		for k, r := range chunk {
			if err := emit(i+k, r); err != nil {
				return seq, true, err
			}
		}
	}
	return seq, true, d.done()
}

// bit is a verdict as a bitmap bit. The compiler turns the branch into a
// zero-extending load (a bool is stored as 0 or 1), so packing with it has
// no data-dependent jump.
func bit(b bool) byte {
	var x byte
	if b {
		x = 1
	}
	return x
}

// appendBitmap appends the LSB-first bitmap of hits, ceil(len/8) bytes,
// eight verdicts per step.
func appendBitmap(dst []byte, hits []bool) []byte {
	off := len(dst)
	dst = slices.Grow(dst, (len(hits)+7)/8)
	dst = dst[:off+(len(hits)+7)/8]
	out := dst[off:]
	k := 0
	for ; len(hits) >= 8; hits, k = hits[8:], k+1 {
		h := hits[:8]
		out[k] = bit(h[0]) | bit(h[1])<<1 | bit(h[2])<<2 | bit(h[3])<<3 |
			bit(h[4])<<4 | bit(h[5])<<5 | bit(h[6])<<6 | bit(h[7])<<7
	}
	if len(hits) > 0 {
		var cur byte
		for i, hit := range hits {
			cur |= bit(hit) << i
		}
		out[k] = cur
	}
	return dst
}

// expandBitmap is appendBitmap's inverse: hits[i] = bit i of the bitmap,
// LSB first; bits holds exactly ceil(len(hits)/8) bytes. Pad bits in the
// last byte are ignored.
func expandBitmap(hits []bool, bits []byte) {
	k := 0
	for ; len(hits) >= 8; hits, k = hits[8:], k+1 {
		h, b := hits[:8], bits[k]
		h[0] = b&1 != 0
		h[1] = b&2 != 0
		h[2] = b&4 != 0
		h[3] = b&8 != 0
		h[4] = b&16 != 0
		h[5] = b&32 != 0
		h[6] = b&64 != 0
		h[7] = b&128 != 0
	}
	for i := range hits {
		hits[i] = bits[k]>>i&1 != 0
	}
}

// AppendResultsSeq encodes a ResultsSeq payload answering the BatchSeq
// frame with the same sequence number: count, outqueue depth, then the
// LSB-first hit bitmap.
func AppendResultsSeq(dst []byte, seq uint64, r Results) []byte {
	dst = append(dst, TypeResultsSeq)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Hits)))
	dst = binary.AppendUvarint(dst, uint64(r.OutqueueDepth))
	return appendBitmap(dst, r.Hits)
}

// DecodeResultsSeq decodes a ResultsSeq payload, returning the frame's
// sequence number alongside the results and reusing dst.Hits when large
// enough.
func DecodeResultsSeq(p []byte, dst Results) (uint64, Results, error) {
	d, err := expect(p, TypeResultsSeq)
	if err != nil {
		return 0, Results{}, err
	}
	seq, err := d.uvarint()
	if err != nil {
		return 0, Results{}, err
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, Results{}, err
	}
	depth, err := d.uvarint()
	if err != nil {
		return 0, Results{}, err
	}
	// The count is the peer's word: bound it by what the remaining bytes
	// can carry before any arithmetic on it, or a count near 2^64 wraps the
	// byte count below to something the length test accepts.
	bits := d.p[d.off:]
	if n > 8*uint64(len(bits)) || (n+7)/8 != uint64(len(bits)) {
		return 0, Results{}, fmt.Errorf("wire: %d results with a bitmap of %d bytes", n, len(bits))
	}
	if uint64(cap(dst.Hits)) < n {
		dst.Hits = make([]bool, n)
	}
	dst.Hits = dst.Hits[:n]
	expandBitmap(dst.Hits, bits)
	dst.OutqueueDepth = int(depth)
	return seq, dst, nil
}

// AppendError encodes an Error payload.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, TypeError)
	return appendString(dst, msg)
}

// DecodeError decodes an Error payload.
func DecodeError(p []byte) (string, error) {
	d, err := expect(p, TypeError)
	if err != nil {
		return "", err
	}
	msg, err := d.string()
	if err != nil {
		return "", err
	}
	return msg, d.done()
}
