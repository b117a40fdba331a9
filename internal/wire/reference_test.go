package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hint"
	"repro/internal/trace"
)

// The batch decoder as it stood before decodeRecords replaced it — one
// error-returning method call per field, one callback per request — moved
// here verbatim (types and functions renamed ref*) to be the oracle that
// DecodeBatch and the DecodeBatchStream adapter are held to. It shares
// nothing with wire.go but the frame-type constant and the standard
// library's varint routines.

type refDecoder struct {
	p   []byte
	off int
}

func (d *refDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *refDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *refDecoder) byte() (byte, error) {
	if d.off >= len(d.p) {
		return 0, fmt.Errorf("wire: truncated frame at offset %d", d.off)
	}
	b := d.p[d.off]
	d.off++
	return b, nil
}

func (d *refDecoder) done() error {
	if d.off != len(d.p) {
		return fmt.Errorf("wire: %d trailing bytes after frame body", len(d.p)-d.off)
	}
	return nil
}

func refExpect(p []byte, t byte) (refDecoder, error) {
	if len(p) == 0 {
		return refDecoder{}, fmt.Errorf("wire: empty frame")
	}
	if p[0] != t {
		return refDecoder{}, fmt.Errorf("wire: frame type %d, want %d", p[0], t)
	}
	return refDecoder{p: p, off: 1}, nil
}

// batchRequest decodes one request record of a batch body, carrying
// the running page value in *prev.
func (d *refDecoder) batchRequest(prev *int64) (trace.Request, error) {
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
func (d *refDecoder) batchCount() (uint64, error) {
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

func refDecodeBatchStream(p []byte, begin func(n int) error, emit func(i int, r trace.Request) error) (seq uint64, tagged bool, err error) {
	d, err := refExpect(p, TypeBatchSeq)
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

// refDecodeBatch collects a payload through the reference decoder.
func refDecodeBatch(p []byte) (uint64, []trace.Request, error) {
	var reqs []trace.Request
	seq, _, err := refDecodeBatchStream(p,
		func(n int) error { reqs = make([]trace.Request, 0, n); return nil },
		func(_ int, r trace.Request) error { reqs = append(reqs, r); return nil })
	return seq, reqs, err
}

// The encode side and the results codec as they stood before the indexed
// and eight-at-a-time kernels replaced them — one append per field, one
// branch per verdict — moved here verbatim (renamed ref*, decoding through
// refDecoder) as the oracle for TestResultsMatchReference,
// TestAppendBatchMatchesReference and FuzzResultsSeq. refDecodeResultsSeq
// keeps the unchecked (n + 7) / 8 of the original: counts that wrap it are
// the new decoder's to refuse and are tested on their own.

func refAppendBatchSeq(dst []byte, seq uint64, reqs []trace.Request) []byte {
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

func refAppendResultsSeq(dst []byte, seq uint64, r Results) []byte {
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

func refDecodeResultsSeq(p []byte, dst Results) (uint64, Results, error) {
	d, err := refExpect(p, TypeResultsSeq)
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
