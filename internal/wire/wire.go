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
//	Summary  (node→node)      origin node name, merge round, entry count,
//	                          then per entry: canonical hint.Set key,
//	                          window counters N and Nr (uvarints) and the
//	                          distance sum D as 8 fixed little-endian
//	                          bytes (IEEE 754 bits) — one node's rotated
//	                          hint-statistics window, the exchange
//	                          currency of cluster-wide merged learning
//	                          (internal/cluster)
//
// The client ID is implicit: one connection is one client. Page numbers are
// delta-encoded within each batch because clients issue runs of sequential
// pages (scans, prefetch), exactly as in the binary trace file format. The
// outqueue depth in ResultsSeq is the server's CLIC outqueue fill level — a
// hint back to clients about how much uncached-page history the server is
// retaining. Hint-set keys travel as canonical strings in Summary frames
// because hint IDs are per-node interning orders and mean nothing across
// processes.
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
// Frame types 4 and 5 were the untagged Batch/Results of versions 1–2; the
// numbers stay reserved and are refused like any unknown type.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// Frame types (the first payload byte). 4 and 5 are reserved.
const (
	TypeHello      byte = 1
	TypeHelloAck   byte = 2
	TypeIntern     byte = 3
	TypeError      byte = 6
	TypeSummary    byte = 7
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

// Summary carries one node's rotated hint-statistics window: the raw
// counters behind its top-k tracked hint sets, keyed by canonical hint.Set
// key so peers can intern them into their own dictionaries. Peers fold the
// counters into their next window rotation (clicstats.Merged), which is
// how a cluster keeps one CLIC model without sharing memory.
type Summary struct {
	// Node names the origin so receivers can attribute merge traffic.
	Node string
	// Round is the origin's rotation count when the window closed.
	Round   uint64
	Entries []SummaryEntry
}

// SummaryEntry is one hint set's window counters: N arrivals, Nr
// re-references, and the summed re-reference distance Dsum (the raw inputs
// of CLIC's Pr(H) estimate, pre-division so receivers can keep summing).
type SummaryEntry struct {
	Key  string
	N    uint64
	Nr   uint64
	Dsum float64
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

// ReadFrame reads one frame's payload, reusing buf when it is large enough.
// io.EOF is returned unwrapped when the stream ends cleanly between frames.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrame)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	Metrics.FramesDecoded.Inc()
	Metrics.BytesDecoded.Add(uvarintLen(n) + n)
	return buf, nil
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

func (d *decoder) float64() (float64, error) {
	if len(d.p)-d.off < 8 {
		return 0, fmt.Errorf("wire: truncated float64 at offset %d", d.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.p[d.off:]))
	d.off += 8
	return v, nil
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
// client.
func AppendBatchSeq(dst []byte, seq uint64, reqs []trace.Request) []byte {
	dst = append(dst, TypeBatchSeq)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	prev := uint64(0)
	for _, r := range reqs {
		flags := byte(0)
		if r.Op == trace.Write {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, int64(r.Page)-int64(prev))
		prev = r.Page
		dst = binary.AppendUvarint(dst, uint64(r.Hint))
	}
	return dst
}

// batchRequest decodes one request record of a batch body, carrying
// the running page value in *prev.
func (d *decoder) batchRequest(prev *int64) (trace.Request, error) {
	flags, err := d.byte()
	if err != nil {
		return trace.Request{}, err
	}
	delta, err := d.varint()
	if err != nil {
		return trace.Request{}, err
	}
	*prev += delta
	h, err := d.uvarint()
	if err != nil {
		return trace.Request{}, err
	}
	if h > uint64(^hint.ID(0)) {
		return trace.Request{}, fmt.Errorf("wire: hint ID %d overflows", h)
	}
	op := trace.Read
	if flags&1 != 0 {
		op = trace.Write
	}
	return trace.Request{Page: uint64(*prev), Hint: hint.ID(h), Op: op}, nil
}

// batchCount decodes and bounds-checks a batch body's request count.
func (d *decoder) batchCount() (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	// A record is at least 3 bytes (flags + delta + hint).
	if n > uint64(len(d.p))/3+1 {
		return 0, fmt.Errorf("wire: batch of %d requests overruns frame", n)
	}
	return n, nil
}

// DecodeBatchStream decodes a BatchSeq payload without materialising a
// request slice: begin is called once with the request count, then emit
// once per decoded request (Client 0; the receiver attributes them to the
// connection's client), in batch order. Either callback may stop the decode
// by returning an error (propagated unwrapped). This is the zero-copy
// server path — requests stream straight from the wire buffer into the
// owner-shard producer frames. tagged is always true: it dates from when
// untagged Batch frames were also accepted, and stays only because the
// frozen benchmark (bench/layers.go) takes three results — drop it when
// the benchmark is next revised.
func DecodeBatchStream(p []byte, begin func(n int) error, emit func(i int, r trace.Request) error) (seq uint64, tagged bool, err error) {
	d, err := expect(p, TypeBatchSeq)
	if err != nil {
		return 0, true, err
	}
	if seq, err = d.uvarint(); err != nil {
		return 0, true, err
	}
	n, err := d.batchCount()
	if err != nil {
		return seq, true, err
	}
	if err := begin(int(n)); err != nil {
		return seq, true, err
	}
	prev := int64(0)
	for i := 0; i < int(n); i++ {
		r, err := d.batchRequest(&prev)
		if err != nil {
			return seq, true, err
		}
		if err := emit(i, r); err != nil {
			return seq, true, err
		}
	}
	return seq, true, d.done()
}

// AppendResultsSeq encodes a ResultsSeq payload answering the BatchSeq
// frame with the same sequence number: count, outqueue depth, then the
// LSB-first hit bitmap.
func AppendResultsSeq(dst []byte, seq uint64, r Results) []byte {
	dst = append(dst, TypeResultsSeq)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Hits)))
	dst = binary.AppendUvarint(dst, uint64(r.OutqueueDepth))
	var cur byte
	for i, hit := range r.Hits {
		if hit {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(r.Hits)%8 != 0 {
		dst = append(dst, cur)
	}
	return dst
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
	words := (n + 7) / 8
	if uint64(len(d.p)-d.off) != words {
		return 0, Results{}, fmt.Errorf("wire: results bitmap has %d bytes, want %d", len(d.p)-d.off, words)
	}
	if uint64(cap(dst.Hits)) < n {
		dst.Hits = make([]bool, n)
	}
	dst.Hits = dst.Hits[:n]
	for i := range dst.Hits {
		dst.Hits[i] = d.p[d.off+i/8]&(1<<(i%8)) != 0
	}
	dst.OutqueueDepth = int(depth)
	return seq, dst, nil
}

// AppendSummary encodes a Summary payload.
func AppendSummary(dst []byte, s Summary) []byte {
	dst = append(dst, TypeSummary)
	dst = appendString(dst, s.Node)
	dst = binary.AppendUvarint(dst, s.Round)
	dst = binary.AppendUvarint(dst, uint64(len(s.Entries)))
	for _, e := range s.Entries {
		dst = appendString(dst, e.Key)
		dst = binary.AppendUvarint(dst, e.N)
		dst = binary.AppendUvarint(dst, e.Nr)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Dsum))
	}
	return dst
}

// DecodeSummary decodes a Summary payload.
func DecodeSummary(p []byte) (Summary, error) {
	d, err := expect(p, TypeSummary)
	if err != nil {
		return Summary{}, err
	}
	var s Summary
	if s.Node, err = d.string(); err != nil {
		return Summary{}, err
	}
	if s.Round, err = d.uvarint(); err != nil {
		return Summary{}, err
	}
	n, err := d.uvarint()
	if err != nil {
		return Summary{}, err
	}
	// An entry is at least 11 bytes (key length + N + Nr + fixed Dsum).
	if n > uint64(len(p)-d.off)/11+1 {
		return Summary{}, fmt.Errorf("wire: summary of %d entries overruns frame", n)
	}
	s.Entries = make([]SummaryEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e SummaryEntry
		if e.Key, err = d.string(); err != nil {
			return Summary{}, err
		}
		if e.N, err = d.uvarint(); err != nil {
			return Summary{}, err
		}
		if e.Nr, err = d.uvarint(); err != nil {
			return Summary{}, err
		}
		if e.Dsum, err = d.float64(); err != nil {
			return Summary{}, err
		}
		s.Entries = append(s.Entries, e)
	}
	return s, d.done()
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
