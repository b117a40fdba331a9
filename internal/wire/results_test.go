package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// rawResults hand-encodes a ResultsSeq frame whose declared count need not
// match its bitmap.
func rawResults(seq, count, depth uint64, bitmap ...byte) []byte {
	p := []byte{TypeResultsSeq}
	p = binary.AppendUvarint(p, seq)
	p = binary.AppendUvarint(p, count)
	p = binary.AppendUvarint(p, depth)
	return append(p, bitmap...)
}

// overflowResults are frames whose verdict count exceeds what their bitmap
// can carry. The first two wrap (n + 7) / 8 to zero, which an empty bitmap
// then satisfies: at the parent commit they passed the length test and
// panicked in make([]bool, n).
func overflowResults() [][]byte {
	return [][]byte{
		rawResults(1, math.MaxUint64, 0),
		rawResults(1, math.MaxUint64-6, 0),
		rawResults(1, 1<<40, 0),
		rawResults(1, 1<<40, 0, 0xff, 0xff),
		rawResults(1, 8*3+1, 0, 1, 2, 3),
	}
}

// TestDecodeResultsSeqRefusesOverflowingCount: a count the bitmap cannot
// carry is an error naming the count, whatever arithmetic on it would say.
func TestDecodeResultsSeqRefusesOverflowingCount(t *testing.T) {
	for _, p := range overflowResults() {
		_, res, err := DecodeResultsSeq(p, Results{})
		if err == nil {
			t.Errorf("frame % x: accepted with %d verdicts", p, len(res.Hits))
		} else if !strings.Contains(err.Error(), "results") {
			t.Errorf("frame % x: error %q does not name the results count", p, err)
		}
	}
}

// verdictPatterns returns the four hit vectors of length n the oracle test
// runs: all false, all true, alternating, random.
func verdictPatterns(n int, rng *rand.Rand) [][]bool {
	out := make([][]bool, 4)
	for k := range out {
		out[k] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		out[1][i] = true
		out[2][i] = i%2 == 0
		out[3][i] = rng.Intn(2) == 0
	}
	return out
}

// checkResultsAgainstReference encodes hits through the kernel and the
// reference, requires identical bytes, and decodes those bytes through both,
// requiring the verdicts back. dst is the (possibly dirty, possibly short)
// buffer the kernel appends to.
func checkResultsAgainstReference(t *testing.T, dst []byte, seq uint64, in Results) {
	t.Helper()
	want := refAppendResultsSeq(nil, seq, in)
	got := AppendResultsSeq(dst, seq, in)[len(dst):]
	if !bytes.Equal(got, want) {
		t.Fatalf("n=%d: encoded % x, reference % x", len(in.Hits), got, want)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte, Results) (uint64, Results, error)
	}{{"kernel", DecodeResultsSeq}, {"reference", refDecodeResultsSeq}} {
		// A dirty destination: every verdict must be written, set or clear.
		dirty := Results{Hits: slices.Repeat([]bool{true, false, true}, len(in.Hits)/3+1)}
		gotSeq, res, err := c.decode(got, dirty)
		if err != nil || gotSeq != seq || res.OutqueueDepth != in.OutqueueDepth {
			t.Fatalf("n=%d %s: seq %d depth %d err %v", len(in.Hits), c.name, gotSeq, res.OutqueueDepth, err)
		}
		if !slices.Equal(res.Hits, in.Hits) {
			t.Fatalf("n=%d %s: verdicts %v, want %v", len(in.Hits), c.name, res.Hits, in.Hits)
		}
	}
}

// TestResultsMatchReference holds the eight-at-a-time bitmap kernels to the
// bit-at-a-time ones they replaced: byte-identical frames and identical
// verdicts at every length around the step size and the default frame size,
// and garbage in the last byte's pad bits ignored by both.
func TestResultsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	lengths := []int{511, 512, 513}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for k, hits := range verdictPatterns(n, rng) {
			in := Results{Hits: hits, OutqueueDepth: n*31 + k}
			checkResultsAgainstReference(t, nil, uint64(n), in)
			checkResultsAgainstReference(t, make([]byte, 3, 5), uint64(n), in)
			checkResultsAgainstReference(t, make([]byte, 1, 4096), math.MaxUint64, in)

			if n%8 == 0 {
				continue
			}
			p := AppendResultsSeq(nil, 7, in)
			p[len(p)-1] |= 0xff << (n % 8)
			_, got, err := DecodeResultsSeq(p, Results{})
			_, want, refErr := refDecodeResultsSeq(p, Results{})
			if err != nil || refErr != nil || !slices.Equal(got.Hits, want.Hits) || !slices.Equal(got.Hits, hits) {
				t.Fatalf("n=%d: pad bits set: kernel %v (%v), reference %v (%v), want %v", n, got.Hits, err, want.Hits, refErr, hits)
			}
		}
	}
}

// FuzzResultsSeq holds both results kernels to their references over
// arbitrary input: p read as a verdict vector (one per byte, its low bit)
// must encode to the reference's bytes and decode back, and p read as a
// frame must be accepted, refused and decoded exactly as the reference
// does — except for a count beyond the bitmap, which the kernel must
// refuse and the reference (whose arithmetic it overflows) is not shown.
func FuzzResultsSeq(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint32(0))
	f.Add([]byte{1, 0, 1, 1, 0, 0, 0, 1, 1}, uint64(12), uint32(9))
	f.Add(AppendResultsSeq(nil, 3, Results{Hits: make([]bool, 17), OutqueueDepth: 5}), uint64(1)<<63, uint32(math.MaxUint32))
	f.Add(rawResults(2, 11, 0, 0xff, 0xff), uint64(0), uint32(0)) // pad bits set
	for _, p := range overflowResults() {
		f.Add(p, uint64(0), uint32(0))
	}
	f.Fuzz(func(t *testing.T, p []byte, seq uint64, depth uint32) {
		hits := make([]bool, len(p))
		for i, b := range p {
			hits[i] = b&1 != 0
		}
		checkResultsAgainstReference(t, nil, seq, Results{Hits: hits, OutqueueDepth: int(depth)})

		gotSeq, got, err := DecodeResultsSeq(p, Results{})
		if d, e := refExpect(p, TypeResultsSeq); e == nil {
			if _, e = d.uvarint(); e == nil {
				if n, e := d.uvarint(); e == nil && n > 8*uint64(len(p)) {
					if err == nil {
						t.Fatalf("frame % x: accepted a count of %d", p, n)
					}
					return
				}
			}
		}
		wantSeq, want, wantErr := refDecodeResultsSeq(p, Results{})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("frame % x: err %v, reference %v", p, err, wantErr)
		}
		if err == nil && (gotSeq != wantSeq || got.OutqueueDepth != want.OutqueueDepth || !slices.Equal(got.Hits, want.Hits)) {
			t.Fatalf("frame % x: decoded %d %+v, reference %d %+v", p, gotSeq, got, wantSeq, want)
		}
	})
}

// unlearnable returns sets verdict vectors of n verdicts each, hits at about
// one in two from a fresh seed per vector: cycled through, they give a
// branch on a verdict nothing to learn.
func unlearnable(sets, n int) [][]bool {
	out := make([][]bool, sets)
	for s := range out {
		out[s] = verdictPatterns(n, rand.New(rand.NewSource(int64(1000+s))))[3]
	}
	return out
}

// BenchmarkAppendResultsSeq prices one 512-verdict frame through the
// packing kernel and through the reference it replaced.
func BenchmarkAppendResultsSeq(b *testing.B) {
	vectors := unlearnable(256, DefaultBatch)
	for _, c := range []struct {
		name   string
		encode func([]byte, uint64, Results) []byte
	}{{"kernel", AppendResultsSeq}, {"reference", refAppendResultsSeq}} {
		b.Run(c.name, func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = c.encode(buf[:0], uint64(i), Results{Hits: vectors[i%len(vectors)], OutqueueDepth: 42})
			}
			benchSink += uint64(len(buf))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatch, "ns/request")
		})
	}
}

// BenchmarkDecodeResultsSeq is the same for the expanding kernel.
func BenchmarkDecodeResultsSeq(b *testing.B) {
	var frames [][]byte
	for i, hits := range unlearnable(256, DefaultBatch) {
		frames = append(frames, AppendResultsSeq(nil, uint64(i), Results{Hits: hits, OutqueueDepth: 42}))
	}
	for _, c := range []struct {
		name   string
		decode func([]byte, Results) (uint64, Results, error)
	}{{"kernel", DecodeResultsSeq}, {"reference", refDecodeResultsSeq}} {
		b.Run(c.name, func(b *testing.B) {
			var (
				res Results
				err error
			)
			for i := 0; i < b.N; i++ {
				if _, res, err = c.decode(frames[i%len(frames)], res); err != nil {
					b.Fatal(err)
				}
			}
			benchSink += uint64(len(res.Hits))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatch, "ns/request")
		})
	}
}
