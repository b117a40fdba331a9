package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wholeRange returns n requests whose pages jump across the whole uint64
// range (so deltas run from short records to ten-byte long ones) with hint
// IDs of one to five bytes.
func wholeRange(n int, seed int64) []trace.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]trace.Request, n)
	for i := range reqs {
		page := rng.Uint64() >> uint(rng.Intn(64))
		if i > 0 && rng.Intn(4) == 0 {
			page = reqs[i-1].Page + 1 // a sequential run: a short record
		}
		reqs[i] = trace.Request{
			Page: page,
			Hint: hint.ID(rng.Uint32() >> uint(rng.Intn(32))),
			Op:   trace.Op(rng.Intn(2)),
		}
	}
	return reqs
}

// shortRun returns n requests every record of which is short: a scan with
// small jumps back and forth and hint IDs below the short field's limit.
func shortRun(n int) []trace.Request {
	reqs := make([]trace.Request, n)
	page := uint64(1) << 44
	for i := range reqs {
		page += uint64(i%7) - 3
		reqs[i] = trace.Request{Page: page, Hint: hint.ID(i * 61 % (1 << 15)), Op: trace.Op(i % 3 & 1)}
	}
	return reqs
}

// rawBatch hand-encodes a BatchSeq body with fields AppendBatchSeq cannot
// produce: a declared count that differs from the records present, and
// escaped records whose hint IDs lie beyond the ID type's range.
func rawBatch(seq, count uint64, hints ...uint64) []byte {
	p := []byte{TypeBatchSeq}
	p = binary.AppendUvarint(p, seq)
	p = binary.AppendUvarint(p, count)
	p = binary.AppendUvarint(p, 0) // base page
	for i, h := range hints {
		p = append(p, 0xff, 0xff, 0xff, 0xff, 0xff, byte(i&1))
		p = binary.AppendVarint(p, int64(i)*1000)
		p = binary.AppendUvarint(p, h)
	}
	return p
}

// worstCase returns requests every record of which is the longest escaped
// one: a delta of 2^63 and the largest hint ID.
func worstCase() []trace.Request {
	reqs := make([]trace.Request, 20)
	for i := range reqs {
		reqs[i] = trace.Request{Page: uint64(i&1) << 63, Hint: math.MaxUint32, Op: trace.Op(i & 1)}
	}
	return reqs
}

// batchLists are the request lists behind the valid frames of batchSeeds,
// with the sequence number each is sent under.
func batchLists() (seqs []uint64, lists [][]trace.Request) {
	for i, n := range []int{1, 15, 16, 17, 512} {
		seqs, lists = append(seqs, uint64(n)), append(lists, wholeRange(n, int64(i+1)))
	}
	seqs, lists = append(seqs, math.MaxUint64), append(lists, worstCase())
	return seqs, lists
}

// batchSeeds are the committed inputs of the batch properties and the fuzz
// target: valid frames of mixed, all-long and all-short records, and each
// rejection the decoder makes.
func batchSeeds() [][]byte {
	var seeds [][]byte
	seqs, lists := batchLists()
	for i, reqs := range lists {
		seeds = append(seeds, AppendBatchSeq(nil, seqs[i], reqs))
	}
	// A hint ID of 2^32, in the first record and in the last.
	seeds = append(seeds, rawBatch(3, 8, 1<<32, 1, 2, 3, 4, 5, 6, 7))
	seeds = append(seeds, rawBatch(3, 8, 1, 2, 3, 4, 5, 6, 7, 1<<32))
	// A count that overruns the frame, one that merely exceeds the records
	// present, and trailing bytes after the last record.
	seeds = append(seeds, rawBatch(4, 1<<20, 1, 2))
	seeds = append(seeds, rawBatch(4, 9, 1, 2, 3, 4, 5, 6, 7, 8))
	seeds = append(seeds, append(AppendBatchSeq(nil, 5, wholeRange(17, 9)), 0))
	// Short records only: every record is one word.
	seeds = append(seeds, AppendBatchSeq(nil, 6, shortRun(300)))
	return seeds
}

// decodeBoth decodes p through DecodeBatch and the DecodeBatchStream
// adapter and requires them to agree: both refuse it, or both accept it
// with the same sequence number and requests.
func decodeBoth(t *testing.T, p []byte) (seq uint64, reqs []trace.Request, err error) {
	t.Helper()
	seq, reqs, err = DecodeBatch(p, nil)
	adSeq, adReqs, adErr := decodeBatch(p)
	if (err != nil) != (adErr != nil) {
		t.Fatalf("DecodeBatch err = %v, DecodeBatchStream err = %v (frame % x)", err, adErr, p)
	}
	if err == nil && (seq != adSeq || !slices.Equal(reqs, adReqs)) {
		t.Fatalf("DecodeBatch and DecodeBatchStream disagree: seq %d/%d, %d/%d requests (frame % x)", seq, adSeq, len(reqs), len(adReqs), p)
	}
	return seq, reqs, err
}

// checkRoundTrip encodes reqs after a dirty prefix of dst and requires the
// prefix kept and the requests back (Client dropped) through both decoders.
func checkRoundTrip(t *testing.T, dst []byte, seq uint64, reqs []trace.Request) {
	t.Helper()
	for i := range dst {
		dst[i] = 0xa5
	}
	out := AppendBatchSeq(dst, seq, reqs)
	if !bytes.Equal(out[:len(dst)], dst) {
		t.Fatalf("%d requests: prefix overwritten", len(reqs))
	}
	gotSeq, got, err := decodeBoth(t, out[len(dst):])
	if err != nil || gotSeq != seq || len(got) != len(reqs) {
		t.Fatalf("%d requests: seq %d, %d back, err %v", len(reqs), gotSeq, len(got), err)
	}
	for i, r := range reqs {
		r.Client = 0
		if r.Op != trace.Write {
			r.Op = trace.Read
		}
		if got[i] != r {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], r)
		}
	}
}

// edgeRecords pairs a request with the encoded length of its record when
// it follows the page base: short records around the limits of both
// fields, and the long ones just past them.
func edgeRecords() (base uint64, reqs []trace.Request, sizes []int) {
	base = 1 << 62
	long := func(zz, h uint64) int { return recordSize + 1 + int(uvarintLen(zz)+uvarintLen(h)) }
	add := func(delta int64, h hint.ID, op trace.Op, size int) {
		reqs = append(reqs, trace.Request{Page: base + uint64(delta), Hint: h, Op: op})
		sizes = append(sizes, size)
	}
	const lim = 1 << (deltaBits - 1) // zig-zag 2·lim is the first delta past the short field
	for _, op := range []trace.Op{trace.Read, trace.Write, 2, 255} {
		add(0, 0, op, recordSize)
		add(1, 1, op, recordSize)
		add(-1, 2, op, recordSize)
		add(lim-1, 1<<15-1, op, recordSize)      // zig-zag 2^24 − 2: short
		add(-(lim - 1), 1<<15-1, op, recordSize) // zig-zag 2^24 − 3: short
		// Zig-zag 2^24 − 1: all ones in the delta field, which with the
		// largest short field and a write would be the escape word.
		add(-lim, 1<<15-1, op, long(1<<deltaBits-1, 1<<15-1))
		add(lim, 3, op, long(1<<deltaBits, 3))
		add(5, 1<<15, op, long(10, 1<<15))
		add(-5, math.MaxUint32, op, long(9, math.MaxUint32))
		add(math.MinInt64, 7, op, long(math.MaxUint64, 7))
		add(math.MaxInt64, 7, op, long(math.MaxUint64-1, 7))
	}
	return base, reqs, sizes
}

// TestBatchSeqRoundTrip holds the codec to its properties: every request
// list behind the seeds and the edge table comes back unchanged through
// both decoders, appended to destinations with no, too little and ample
// capacity; each edge record takes the length its fields call for, so the
// short form is chosen exactly when both fields fit; and an Op outside
// {Read, Write} comes back a read.
func TestBatchSeqRoundTrip(t *testing.T) {
	seqs, lists := batchLists()
	lists = append(lists, shortRun(300), nil)
	seqs = append(seqs, 6, 0)
	for i, reqs := range lists {
		for _, dst := range [][]byte{nil, make([]byte, 2, 7), make([]byte, 5, 1<<15)} {
			checkRoundTrip(t, dst, seqs[i], reqs)
		}
	}
	base, edges, sizes := edgeRecords()
	checkRoundTrip(t, nil, 1, edges)
	header := len(AppendBatchSeq(nil, 1, []trace.Request{{Page: base}}))
	for i, r := range edges {
		pair := []trace.Request{{Page: base}, r}
		if got := len(AppendBatchSeq(nil, 1, pair)) - header; got != sizes[i] {
			t.Errorf("edge %d (%+v after page %d): record of %d bytes, want %d", i, r, base, got, sizes[i])
		}
		checkRoundTrip(t, nil, 1, pair)
	}
}

// TestBatchSeqRefusesPrefixes: a frame cut anywhere short of its end is
// refused by both decoders, whether the cut falls in the header, in a
// short record or in a long one.
func TestBatchSeqRefusesPrefixes(t *testing.T) {
	_, edges, _ := edgeRecords()
	seeds := append(batchSeeds(), AppendBatchSeq(nil, 0, edges), AppendBatchSeq(nil, 0, nil))
	for i, seed := range seeds {
		if _, _, err := decodeBoth(t, seed); err != nil {
			continue // refused whole; its prefixes prove nothing
		}
		for cut := 0; cut < len(seed); cut++ {
			if _, reqs, err := decodeBoth(t, seed[:cut:cut]); err == nil {
				t.Errorf("seed %d: prefix of %d of %d bytes accepted with %d requests", i, cut, len(seed), len(reqs))
			}
		}
	}
}

// FuzzDecodeBatch holds the decoders to each other and the codec to its
// round trip over arbitrary bytes: no panic, DecodeBatch and the
// DecodeBatchStream adapter agree on the error and the requests, and what
// is accepted comes back unchanged through AppendBatchSeq and DecodeBatch.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, reqs, err := decodeBoth(t, p)
		if err != nil {
			return
		}
		seq2, again, err := DecodeBatch(AppendBatchSeq(nil, seq, reqs), nil)
		if err != nil || seq2 != seq || !slices.Equal(again, reqs) {
			t.Fatalf("round trip: seq %d→%d, %d→%d requests, err %v (frame % x)", seq, seq2, len(reqs), len(again), err, p)
		}
	})
}

// escapes counts the escaped records of a valid BatchSeq payload by
// walking its records as the decoder does.
func escapes(t *testing.T, p []byte) int {
	t.Helper()
	d, _, n, _, err := batchHeader(p)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for range n {
		var w [recordSize]byte
		copy(w[:], d.p[d.off:])
		d.off += recordSize
		if w == [recordSize]byte{0xff, 0xff, 0xff, 0xff, 0xff} {
			count++
			var r trace.Request
			var page uint64
			if err := d.longRecord(&r, &page); err != nil {
				t.Fatal(err)
			}
		}
	}
	return count
}

// TestRecordEscapeRate holds the field widths to the rule they were chosen
// by: on every preset and on the benchmark's two-client spec, cut into
// default-size frames per client as a replay sends them, fewer than 1 % of
// records escape to the long form. The presets run at a tenth of a million
// requests each here; the full-scale rates are in CHANGES.md.
func TestRecordEscapeRate(t *testing.T) {
	var specs []string
	for _, p := range workload.Presets() {
		specs = append(specs, p.Name+":100000")
	}
	specs = append(specs, "DB2_C60*2:200000@7")
	for _, s := range specs {
		spec, err := workload.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		it, err := spec.Source().Iter()
		if err != nil {
			t.Fatal(err)
		}
		perClient := map[uint8][]trace.Request{}
		var records, escaped int
		flush := func(c uint8) {
			escaped += escapes(t, AppendBatchSeq(nil, 0, perClient[c]))
			records += len(perClient[c])
			perClient[c] = perClient[c][:0]
		}
		for run := it.Next(); run != nil; run = it.Next() {
			for _, r := range run {
				c := r.Client
				if perClient[c] = append(perClient[c], r); len(perClient[c]) == DefaultBatch {
					flush(c)
				}
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		for c := range perClient {
			flush(c)
		}
		rate := 100 * float64(escaped) / float64(records)
		t.Logf("%s: %d of %d records escaped (%.3f %%)", s, escaped, records, rate)
		if rate >= 1 {
			t.Errorf("%s: %.3f %% of records escaped, want under 1 %%", s, rate)
		}
	}
}

var benchSink uint64

// tpccFrames returns n consecutive 512-request frames' worth of a DB2_C60
// request stream.
func tpccFrames(b *testing.B, n int) []trace.Request {
	preset, err := workload.PresetByName("DB2_C60")
	if err != nil {
		b.Fatal(err)
	}
	preset.Requests = n * DefaultBatch
	tr, err := workload.Generate(preset)
	if err != nil {
		b.Fatal(err)
	}
	return tr.Reqs
}

// BenchmarkDecodeBatch prices one 512-request TPC-C frame through the
// kernel and through the callback adapter the benchmark harness calls.
func BenchmarkDecodeBatch(b *testing.B) {
	reqs := tpccFrames(b, 8)
	frame := AppendBatchSeq(nil, 7, reqs[len(reqs)-DefaultBatch:])
	dst := make([]trace.Request, DefaultBatch)
	begin := func(int) error { return nil }
	emit := func(i int, r trace.Request) error { dst[i] = r; return nil }
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"kernel", func() (err error) { _, dst, err = DecodeBatch(frame, dst); return }},
		{"adapter", func() (err error) { _, _, err = DecodeBatchStream(frame, begin, emit); return }},
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

// BenchmarkAppendBatchSeq prices one 512-request TPC-C frame through the
// encoder, cycling through 64 frames of the stream.
func BenchmarkAppendBatchSeq(b *testing.B) {
	reqs := tpccFrames(b, 64)
	frames := len(reqs) / DefaultBatch
	var buf []byte
	for i := 0; i < b.N; i++ {
		off := i % frames * DefaultBatch
		buf = AppendBatchSeq(buf[:0], uint64(i), reqs[off:off+DefaultBatch])
	}
	benchSink += uint64(len(buf))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatch, "ns/request")
	b.ReportMetric(float64(len(buf))/DefaultBatch, "B/request")
}
