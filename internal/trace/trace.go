// Package trace defines the block I/O request traces exchanged between the
// workload generators and the cache simulator, mirroring the paper's
// trace-driven methodology (§6): a trace is a sequence of (page, read/write,
// hint set) records plus the hint dictionary that interns the hint sets.
//
// The package also provides the two trace transformations the evaluation
// needs: the multi-client merge (§6.4) and synthetic noise-hint injection
// (§6.3). There is one merge rule, Merge: round-robin one request per
// client, hints namespaced by client and interned on first use; and one
// page-region rule: client i's pages live at i<<44 | page. Interleave is
// Merge over in-memory traces cut to the shortest; workload.Spec streams
// its clients through Merge.
//
// Traces have one serialised form, format v2 ("CLICTRC2", v2.go):
// block-framed records with incremental dictionary sections and a
// count/checksum trailer, writable and scannable in bounded memory at
// paper scale (hundreds of millions of requests). Writer encodes it,
// Scanner reads it back, and Save and Load do both for an in-memory Trace.
// The Sink/Iterator/Source interfaces (sink.go) let generators, transforms
// and replay paths pipe requests through it without materialising a
// []Request.
package trace

import (
	"fmt"

	"repro/internal/hint"
)

// Op is the request operation.
type Op uint8

const (
	// Read is a block read request.
	Read Op = iota
	// Write is a block write request.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one block I/O request as seen by the storage server. The
// request's sequence number is implicit: it is the request's index in the
// trace (the server tags requests with sequence numbers on arrival, §3).
type Request struct {
	// Page is the requested block number in the server's address space.
	Page uint64
	// Hint is the interned hint set attached by the client.
	Hint hint.ID
	// Op is Read or Write.
	Op Op
	// Client identifies the issuing client in interleaved traces (0 for
	// single-client traces).
	Client uint8
}

// Trace is an in-memory I/O request trace.
type Trace struct {
	// Name identifies the trace (e.g. "DB2_C60").
	Name string
	// PageSize is the block size in bytes (informational).
	PageSize int
	// Dict interns all hint sets referenced by Reqs.
	Dict *hint.Dict
	// Reqs is the request sequence.
	Reqs []Request
	// Clients names each client ID used in Reqs; len(Clients) >= 1.
	Clients []string
}

// New returns an empty trace with a fresh dictionary and a single client.
func New(name string, pageSize int) *Trace {
	return &Trace{
		Name:     name,
		PageSize: pageSize,
		Dict:     hint.NewDict(),
		Clients:  []string{name},
	}
}

// Append adds a request issued by client 0.
func (t *Trace) Append(page uint64, op Op, h hint.ID) {
	t.Reqs = append(t.Reqs, Request{Page: page, Hint: h, Op: op})
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Reqs) }

// Stats summarises a trace, providing the columns of the paper's Figure 5.
type Stats struct {
	Name          string
	Requests      int
	Reads         int
	Writes        int
	DistinctPages int
	DistinctHints int
	Clients       int
}

// Stats scans the trace and returns its summary.
func (t *Trace) Stats() Stats {
	pages := make(map[uint64]struct{})
	hints := make(map[hint.ID]struct{})
	s := Stats{Name: t.Name, Requests: len(t.Reqs), Clients: len(t.Clients)}
	for _, r := range t.Reqs {
		pages[r.Page] = struct{}{}
		hints[r.Hint] = struct{}{}
		if r.Op == Read {
			s.Reads++
		} else {
			s.Writes++
		}
	}
	s.DistinctPages = len(pages)
	s.DistinctHints = len(hints)
	return s
}

// Validate checks internal consistency: every referenced hint ID must be
// interned in Dict and every client ID must be named in Clients.
func (t *Trace) Validate() error {
	if t.Dict == nil {
		return fmt.Errorf("trace %q: nil dictionary", t.Name)
	}
	n := uint32(t.Dict.Len())
	for i, r := range t.Reqs {
		if r.Hint >= n {
			return fmt.Errorf("trace %q: request %d references hint %d outside dictionary (len %d)", t.Name, i, r.Hint, n)
		}
		if int(r.Client) >= len(t.Clients) {
			return fmt.Errorf("trace %q: request %d references client %d outside Clients (len %d)", t.Name, i, r.Client, len(t.Clients))
		}
	}
	return nil
}

// clientPageBits is the size of each client's private page region in a
// multi-client merge. Generated page numbers stay far below 2^44 (databases
// are tens of millions of pages at most), so regions never collide.
const clientPageBits = 44

// Interleave merges traces round-robin, one request from each in turn,
// truncating all inputs to the length of the shortest so no trace is biased
// by its length, exactly as the multi-client experiment prescribes (§6.4).
// It is Merge over the truncated inputs, so an in-memory merge and a
// streamed one (workload.Spec.GenerateTo) place pages and intern hints
// alike.
func Interleave(name string, traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: Interleave needs at least one input")
	}
	shortest := traces[0].Len()
	for _, t := range traces[1:] {
		shortest = min(shortest, t.Len())
	}
	out := New(name, traces[0].PageSize)
	out.Clients = make([]string, len(traces))
	out.Reqs = make([]Request, 0, shortest*len(traces))
	its := make([]Iterator, len(traces))
	for i, t := range traces {
		out.Clients[i] = t.Name
		its[i] = t.Truncate(shortest).Iter()
	}
	if err := Merge(out, out.Clients, its); err != nil {
		return nil, err
	}
	return out, nil
}

// Merge is the multi-client merge (§6.4): round-robin one request per
// client per turn (clients that run out drop out), client i's pages offset
// into the i-th private region (i<<clientPageBits), hint sets namespaced
// by the client name so the same hint type from two clients stays distinct
// (§2), and interned into the sink's dictionary on first use in merge
// order. Every downstream byte is a pure function of the input streams,
// never of goroutine scheduling. Client IDs are one byte, so at most 256
// inputs merge.
func Merge(sink Sink, names []string, its []Iterator) error {
	if len(its) > 256 {
		return fmt.Errorf("trace: Merge supports at most 256 clients, got %d", len(its))
	}
	const unset = ^hint.ID(0)
	remaps := make([][]hint.ID, len(its))
	done := make([]bool, len(its))
	alive := len(its)
	for alive > 0 {
		for i, it := range its {
			if done[i] {
				continue
			}
			if !it.Scan() {
				if err := it.Err(); err != nil {
					return fmt.Errorf("trace: client %s: %w", names[i], err)
				}
				done[i] = true
				alive--
				continue
			}
			r := it.Request()
			d := it.HintDict()
			for len(remaps[i]) < d.Len() {
				remaps[i] = append(remaps[i], unset)
			}
			id := remaps[i][r.Hint]
			if id == unset {
				set, err := hint.Parse(d.Key(r.Hint))
				if err != nil {
					return fmt.Errorf("trace: client %s: %w", names[i], err)
				}
				id = sink.HintDict().Intern(set.Namespace(names[i]))
				remaps[i][r.Hint] = id
			}
			sink.AppendReq(Request{
				Page:   uint64(i)<<clientPageBits | r.Page,
				Hint:   id,
				Op:     r.Op,
				Client: uint8(i),
			})
		}
	}
	return Err(sink)
}

// SplitClients partitions the request sequence into per-client streams,
// indexed by client ID and preserving each client's request order. It is
// the inverse of Interleave's merging: what a driver that holds the whole
// trace and feeds each client from its own goroutine starts from (the
// benchmark harness in bench/ does; the serve/replay paths split on the fly
// in engine.Dispatch instead).
func (t *Trace) SplitClients() [][]Request {
	streams := make([][]Request, len(t.Clients))
	for _, r := range t.Reqs {
		streams[r.Client] = append(streams[r.Client], r)
	}
	return streams
}

// Truncate returns a shallow copy of the trace limited to the first n
// requests (or the whole trace if n exceeds its length).
func (t *Trace) Truncate(n int) *Trace {
	if n > len(t.Reqs) {
		n = len(t.Reqs)
	}
	c := *t
	c.Reqs = t.Reqs[:n]
	return &c
}
