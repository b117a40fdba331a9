package wire

import (
	"encoding/binary"
	"fmt"
)

// The results codec as it stood before the eight-at-a-time kernels
// replaced it — one append per field, one branch per verdict — moved here
// verbatim (renamed ref*, decoding through refDecoder) as the oracle for
// TestResultsMatchReference and FuzzResultsSeq. It shares nothing with
// wire.go but the frame-type constant and the standard library's varint
// routines. refDecodeResultsSeq keeps the unchecked (n + 7) / 8 of the
// original: counts that wrap it are the new decoder's to refuse and are
// tested on their own.

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

func refExpect(p []byte, t byte) (refDecoder, error) {
	if len(p) == 0 {
		return refDecoder{}, fmt.Errorf("wire: empty frame")
	}
	if p[0] != t {
		return refDecoder{}, fmt.Errorf("wire: frame type %d, want %d", p[0], t)
	}
	return refDecoder{p: p, off: 1}, nil
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
