package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/trace"
	"repro/internal/wire"
)

// groupCfg is small enough that a few thousand requests evict, fill the
// outqueue and rotate the learner several times, so the window cuts
// AccessBatch makes fall inside groups.
var groupCfg = core.Config{Capacity: 64, Window: 200}

const groupShards = 4

// groupReqs returns n requests over 300 pages and the hint indices
// 0..hints-1, one in five a write.
func groupReqs(n, hints int, salt uint64) []trace.Request {
	reqs := make([]trace.Request, n)
	for i := range reqs {
		x := (uint64(i) + salt) * 0x9e3779b97f4a7c15
		reqs[i] = trace.Request{Page: x >> 32 % 300, Hint: hint.ID(int(x>>8) % hints)}
		if x%5 == 0 {
			reqs[i].Op = trace.Write
		}
	}
	return reqs
}

// pipeConn is a client on one end of a net.Pipe whose other end a
// connection handler serves. A pipe's write returns only once the server
// has read it, and the server's 64 KB read buffer takes a write of a few
// frames whole: the frames of one write are all buffered when the reader
// looks for more, so which frames share a group is known.
type pipeConn struct {
	t       *testing.T
	conn    net.Conn
	fr      *wire.FrameReader
	bw      *bufio.Writer
	handled chan struct{}
}

func dialPipe(t *testing.T, s *Server, keys []string) *pipeConn {
	t.Helper()
	client, srvEnd := net.Pipe()
	c := &pipeConn{
		t: t, conn: client, handled: make(chan struct{}),
		fr: wire.NewFrameReader(bufio.NewReader(client)),
		bw: bufio.NewWriterSize(client, 1<<16),
	}
	go func() {
		defer close(c.handled)
		s.handle(srvEnd)
	}()
	if err := client.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.write(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "grouped", Keys: keys}))
	if _, err := wire.DecodeHelloAck(c.recv()); err != nil {
		t.Fatal(err)
	}
	return c
}

// write sends the frames in one write.
func (c *pipeConn) write(frames ...[]byte) {
	c.t.Helper()
	for _, f := range frames {
		if err := wire.WriteFrame(c.bw, f); err != nil {
			c.t.Fatal(err)
		}
	}
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *pipeConn) recv() []byte {
	c.t.Helper()
	p, err := c.fr.Next()
	if err != nil {
		c.t.Fatal(err)
	}
	return p
}

// results reads the answers to the frames numbered from seq on, one per
// entry of sizes, and returns their verdicts back to back.
func (c *pipeConn) results(seq uint64, sizes ...int) []bool {
	c.t.Helper()
	var hits []bool
	for i, n := range sizes {
		got, res, err := wire.DecodeResultsSeq(c.recv(), wire.Results{})
		if err != nil || got != seq+uint64(i) || len(res.Hits) != n {
			c.t.Fatalf("results %d: seq %d with %d verdicts (err %v), want %d", seq+uint64(i), got, len(res.Hits), err, n)
		}
		hits = append(hits, res.Hits...)
	}
	return hits
}

func (c *pipeConn) close(s *Server) {
	c.conn.Close()
	<-c.handled
	s.Close()
}

// checkSerial replays reqs, hint indices as IDs (a fresh server interns
// distinct keys in announcement order), one Access at a time through a
// front like the server's, and requires the server's verdicts and Stats.
func checkSerial(t *testing.T, s *Server, reqs []trace.Request, hits []bool) {
	t.Helper()
	ref := core.NewSharded(groupCfg, groupShards)
	defer ref.Close()
	for i, r := range reqs {
		if got := ref.Access(r); got != hits[i] {
			t.Fatalf("request %d (%+v): server says hit=%v, serial replay %v", i, r, hits[i], got)
		}
	}
	if got, want := s.cache.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("server Stats %+v, serial replay %+v", got, want)
	}
}

// TestGroupedFramesMatchSerial: one connection writes k frames of n
// requests at a time, in one write each; the reader serves the frames
// that write buffered as groups of at most groupRequests requests, and
// the verdicts and the front's Stats are those of a serial replay.
func TestGroupedFramesMatchSerial(t *testing.T) {
	keys := []string{"a=1", "a=2", "a=3"}
	for _, k := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 7, 512} {
			s := New(Config{Cache: groupCfg, Shards: groupShards})
			c := dialPipe(t, s, keys)
			rounds := max(2, (1500+k*n-1)/(k*n))
			all := groupReqs(rounds*k*n, len(keys), uint64(k*n))
			var hits []bool
			for r := 0; r < rounds; r++ {
				frames := make([][]byte, k)
				sizes := make([]int, k)
				for i := range frames {
					seq := r*k + i
					frames[i] = wire.AppendBatchSeq(nil, uint64(seq), all[seq*n:(seq+1)*n])
					sizes[i] = n
				}
				c.write(frames...)
				hits = append(hits, c.results(uint64(r*k), sizes...)...)
			}
			c.close(s)
			perGroup := max(1, min(k, (groupRequests+n-1)/n))
			wantGroups := uint64(rounds * ((k + perGroup - 1) / perGroup))
			if g := s.groupFrames.Summary(); g.Count != wantGroups || g.Sum != uint64(rounds*k) {
				t.Errorf("k=%d n=%d: %d frames in %d groups, want %d frames in %d", k, n, g.Sum, g.Count, rounds*k, wantGroups)
			}
			checkSerial(t, s, all, hits)
		}
	}
}

// TestGroupInternBetweenFrames: an Intern frame between two batch frames
// of one write is taken in place, and the second batch frame, which names
// the key it announces, is served in the same group as the first.
func TestGroupInternBetweenFrames(t *testing.T) {
	s := New(Config{Cache: groupCfg, Shards: groupShards})
	c := dialPipe(t, s, []string{"a=1", "a=2"})
	first, second := groupReqs(300, 2, 1), groupReqs(300, 3, 2)
	c.write(
		wire.AppendBatchSeq(nil, 0, first),
		wire.AppendIntern(nil, []string{"a=3"}),
		wire.AppendBatchSeq(nil, 1, second),
	)
	hits := c.results(0, len(first), len(second))
	c.close(s)
	if g := s.groupFrames.Summary(); g.Count != 1 || g.Sum != 2 {
		t.Errorf("%d frames in %d groups, want both batch frames in one", g.Sum, g.Count)
	}
	checkSerial(t, s, append(first, second...), hits)
}

// TestGroupRefusesBadFrameWhole: a batch frame that does not decode,
// after two good ones in the same write, ends the group without reaching
// the cache. The good frames are answered in order, then one Error frame
// reports the bad one, and the cache has served the good frames only.
func TestGroupRefusesBadFrameWhole(t *testing.T) {
	s := New(Config{Cache: groupCfg, Shards: groupShards})
	c := dialPipe(t, s, []string{"a=1", "a=2"})
	const n = 400
	good := groupReqs(n, 2, 3)
	garbage := []byte{wire.TypeBatchSeq, 2, 5, 0xff} // five records promised, a byte sent
	if _, _, err := wire.DecodeBatch(garbage, nil); err == nil {
		t.Fatal("the garbage frame decodes")
	}
	c.write(wire.AppendBatchSeq(nil, 0, good), wire.AppendBatchSeq(nil, 1, good), garbage)
	c.results(0, n, n)
	p := c.recv()
	if typ, _ := wire.PayloadType(p); typ != wire.TypeError {
		t.Fatalf("frame type %d after the good frames' results, want an Error frame", typ)
	}
	if msg, err := wire.DecodeError(p); err != nil || !strings.Contains(msg, "wire:") {
		t.Errorf("refusal %q (err %v) does not carry the decoder's error", msg, err)
	}
	if _, err := c.fr.Next(); err == nil {
		t.Error("the connection stayed open after the refusal")
	}
	c.close(s)
	if got := s.cache.Stats().Requests; got != 2*n {
		t.Errorf("cache served %d requests, want exactly the two good frames' %d", got, 2*n)
	}
	if g := s.groupFrames.Summary(); g.Count != 1 || g.Sum != 2 {
		t.Errorf("%d frames in %d groups, want the two good frames in one", g.Sum, g.Count)
	}
}

// BenchmarkServeGroups prices the served path with the reader grouping:
// one loopback TCP connection writes 8 default-size frames at a time and
// reads their 8 results. It reports ns per request (client and server on
// this process's CPUs) and the mean batch frames per cache call.
func BenchmarkServeGroups(b *testing.B) {
	const k, n = 8, wire.DefaultBatch
	s := New(Config{Cache: core.Config{Capacity: 4000, Window: 20000}})
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	fr, bw := wire.NewFrameReader(bufio.NewReaderSize(conn, 1<<16)), bufio.NewWriterSize(conn, 1<<16)
	keys := []string{"a=1", "a=2", "a=3", "a=4"}
	if err := wire.WriteFrame(bw, wire.AppendHello(nil, wire.Hello{Version: wire.Version, Client: "bench", Keys: keys})); err != nil {
		b.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := fr.Next(); err != nil {
		b.Fatal(err)
	}
	// The same eight frames every time: the server echoes their numbers
	// and does not check them.
	reqs := groupReqs(k*n, len(keys), 0)
	for i := range reqs {
		reqs[i].Page = reqs[i].Page*97 + uint64(i)%8000
	}
	var write []byte
	for i := 0; i < k; i++ {
		write = append(write, encodeFrame(wire.AppendBatchSeq(nil, uint64(i), reqs[i*n:(i+1)*n]))...)
	}
	var res wire.Results
	g0 := s.groupFrames.Summary()
	for b.Loop() {
		if _, err := conn.Write(write); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < k; i++ {
			p, err := fr.Next()
			if err != nil {
				b.Fatal(err)
			}
			if _, res, err = wire.DecodeResultsSeq(p, res); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*n), "ns/req")
	g := s.groupFrames.Summary()
	if groups := g.Count - g0.Count; groups > 0 {
		b.ReportMetric(float64(g.Sum-g0.Sum)/float64(groups), "frames/group")
	}
}

// encodeFrame returns payload with its length prefix, as WriteFrame
// writes it.
func encodeFrame(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}
