package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wholeRange returns n requests whose pages jump across the whole uint64
// range (so deltas run from one byte to ten) with hint IDs of one to five
// bytes.
func wholeRange(n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, n)
	for i := range reqs {
		page := rng.Uint64() >> uint(rng.Intn(64))
		if i > 0 && rng.Intn(4) == 0 {
			page = reqs[i-1].Page + 1 // a sequential run: one-byte delta
		}
		reqs[i] = trace.Request{
			Page: page,
			Hint: hint.ID(rng.Uint32() >> uint(rng.Intn(32))),
			Op:   trace.Op(rng.Intn(2)),
		}
	}
	return reqs
}

// rawBatch hand-encodes a BatchSeq body with fields AppendBatchSeq cannot
// produce: a declared count that differs from the records present, and hint
// IDs beyond the ID type's range.
func rawBatch(seq, count uint64, hints ...uint64) []byte {
	p := []byte{TypeBatchSeq}
	p = binary.AppendUvarint(p, seq)
	p = binary.AppendUvarint(p, count)
	for i, h := range hints {
		p = append(p, byte(i&1))
		p = binary.AppendVarint(p, int64(i)*1000)
		p = binary.AppendUvarint(p, h)
	}
	return p
}

// batchSeeds are the committed inputs of the differential test and the
// fuzz target: valid frames on both sides of the fast path's 16-byte
// look-ahead, worst-case records, and each rejection the decoder makes.
func batchSeeds() [][]byte {
	var seeds [][]byte
	for i, n := range []int{1, 15, 16, 17, 512} {
		seeds = append(seeds, AppendBatchSeq(nil, uint64(n), wholeRange(n, int64(i+1))))
	}
	// Ten-byte deltas and five-byte hints: every record is the 16-byte worst
	// case, so the last one ends exactly where the fast path's look-ahead does.
	worst := make([]trace.Request, 20)
	for i := range worst {
		worst[i] = trace.Request{Page: uint64(i&1) << 63, Hint: math.MaxUint32, Op: trace.Op(i & 1)}
	}
	seeds = append(seeds, AppendBatchSeq(nil, math.MaxUint64, worst))
	// A hint ID of 2^32, early (fast path) and last (checked path).
	seeds = append(seeds, rawBatch(3, 8, 1<<32, 1, 2, 3, 4, 5, 6, 7))
	seeds = append(seeds, rawBatch(3, 8, 1, 2, 3, 4, 5, 6, 7, 1<<32))
	// A count that overruns the frame, one that merely exceeds the records
	// present, and trailing bytes after the last record.
	seeds = append(seeds, rawBatch(4, 1<<20, 1, 2))
	seeds = append(seeds, rawBatch(4, 9, 1, 2, 3, 4, 5, 6, 7, 8))
	seeds = append(seeds, append(AppendBatchSeq(nil, 5, wholeRange(17, 9)), 0))
	return seeds
}

// checkAgainstReference decodes p through the kernel's two entry points and
// through the reference decoder and requires the same sequence number, the
// same requests, and an error exactly when the reference errors.
func checkAgainstReference(t *testing.T, p []byte, scratch []trace.Request) []trace.Request {
	t.Helper()
	wantSeq, want, wantErr := refDecodeBatch(p)
	seq, got, err := DecodeBatch(p, scratch)
	adSeq, adGot, adErr := decodeBatch(p)
	for _, c := range []struct {
		name string
		seq  uint64
		reqs []trace.Request
		err  error
	}{{"DecodeBatch", seq, got, err}, {"DecodeBatchStream", adSeq, adGot, adErr}} {
		if (c.err != nil) != (wantErr != nil) {
			t.Fatalf("%s: err = %v, reference err = %v (frame % x)", c.name, c.err, wantErr, p)
		}
		if c.seq != wantSeq {
			t.Fatalf("%s: seq = %d, reference %d (frame % x)", c.name, c.seq, wantSeq, p)
		}
		if wantErr != nil {
			continue
		}
		if len(c.reqs) != len(want) {
			t.Fatalf("%s: %d requests, reference %d (frame % x)", c.name, len(c.reqs), len(want), p)
		}
		for i := range want {
			if c.reqs[i] != want[i] {
				t.Fatalf("%s: request %d = %+v, reference %+v (frame % x)", c.name, i, c.reqs[i], want[i], p)
			}
		}
	}
	return got[:0]
}

// TestDecodeBatchMatchesReference holds the kernel to the decoder it
// replaced on every committed seed, every truncation of it and every
// single-byte mutation of it.
func TestDecodeBatchMatchesReference(t *testing.T) {
	var scratch []trace.Request
	for _, seed := range batchSeeds() {
		scratch = checkAgainstReference(t, seed, scratch)
		for cut := 0; cut < len(seed); cut++ {
			scratch = checkAgainstReference(t, seed[:cut:cut], scratch)
		}
		mut := append([]byte(nil), seed...)
		for i := range mut {
			for _, x := range []byte{0x01, 0x02, 0x40, 0x80, 0xff} {
				mut[i] = seed[i] ^ x
				scratch = checkAgainstReference(t, mut, scratch)
			}
			mut[i] = seed[i]
		}
	}
}

// FuzzDecodeBatch is the same comparison over arbitrary bytes.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkAgainstReference(t, p, nil)
	})
}

var benchSink uint64

// BenchmarkDecodeBatch prices one 512-request TPC-C frame through the
// kernel, through the callback adapter the benchmark harness calls, and
// through the reference decoder they replaced, in one binary.
func BenchmarkDecodeBatch(b *testing.B) {
	preset, err := workload.PresetByName("DB2_C60")
	if err != nil {
		b.Fatal(err)
	}
	preset.Requests = 8 * DefaultBatch
	tr, err := workload.Generate(preset)
	if err != nil {
		b.Fatal(err)
	}
	reqs := tr.Reqs[len(tr.Reqs)-DefaultBatch:]
	frame := AppendBatchSeq(nil, 7, reqs)
	dst := make([]trace.Request, DefaultBatch)
	begin := func(int) error { return nil }
	emit := func(i int, r trace.Request) error { dst[i] = r; return nil }
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"kernel", func() (err error) { _, dst, err = DecodeBatch(frame, dst); return }},
		{"adapter", func() (err error) { _, _, err = DecodeBatchStream(frame, begin, emit); return }},
		{"reference", func() (err error) { _, _, err = refDecodeBatchStream(frame, begin, emit); return }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.decode(); err != nil {
					b.Fatal(err)
				}
			}
			benchSink += dst[len(dst)-1].Page
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatch, "ns/request")
			b.ReportMetric(float64(len(frame))/DefaultBatch, "B/request")
		})
	}
}
