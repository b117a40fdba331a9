package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/hint"
)

// Scanner iterates the requests of a trace file one at a time, without ever
// materialising the request slice: memory stays constant no matter how long
// the trace is, which is what paper-scale traces (hundreds of millions of
// requests) and the network replay path need. It reads the v2 format
// (v2.go) and refuses any other input.
//
// The client list is complete before the first Scan; the dictionary grows
// as dict sections are scanned (always before the requests that reference
// them). Trace files come from outside the program, so every length and
// count the stream declares is checked against the bytes that back it
// before it is used.
//
// Steady-state scanning performs zero allocations: each block payload is
// slurped into one reused buffer and records decode from it in place.
type Scanner struct {
	closer io.Closer // non-nil when the Scanner owns the underlying file
	br     *bufio.Reader

	name     string
	pageSize int
	clients  []string
	dict     *hint.Dict

	payload  []byte // reused request-block payload buffer
	ppos     int    // decode offset into payload
	block    int    // request blocks loaded so far
	blockRem uint64 // records left in the current block
	prevPage int64
	seen     uint64 // records decoded so far
	crc      uint32 // running CRC over block payloads
	finished bool   // trailer seen and verified

	cur Request
	err error
}

// Open returns a Scanner over the trace file at path. Closing the Scanner
// closes the file.
func Open(path string) (*Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := NewScanner(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// NewScanner returns a Scanner over a v2 trace stream, reading its header.
// A stream that does not start with the v2 magic is refused with an error
// naming what it starts with.
func NewScanner(r io.Reader) (*Scanner, error) {
	s := &Scanner{br: bufio.NewReaderSize(r, 1<<20), dict: hint.NewDict()}
	head, err := s.br.Peek(len(binaryMagicV2))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != binaryMagicV2 {
		return nil, fmt.Errorf("trace: not a %s trace: stream starts with %q", binaryMagicV2, head)
	}
	s.br.Discard(len(binaryMagicV2))
	if s.name, err = s.readString(); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	pageSize, err := binary.ReadUvarint(s.br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading page size: %w", err)
	}
	s.pageSize = int(pageSize)
	nClients, err := binary.ReadUvarint(s.br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading client count: %w", err)
	}
	if nClients > 256 {
		return nil, fmt.Errorf("trace: header declares %d clients (a request names at most 256)", nClients)
	}
	s.clients = make([]string, nClients)
	for i := range s.clients {
		if s.clients[i], err = s.readString(); err != nil {
			return nil, fmt.Errorf("trace: reading client %d: %w", i, err)
		}
	}
	return s, nil
}

// readN appends the next n bytes of the stream to dst, growing it only as
// the bytes arrive: a declared length alone commits no memory, so a
// truncated or lying stream costs no more than its own length.
func (s *Scanner) readN(dst []byte, n uint64) ([]byte, error) {
	for n > 0 {
		if _, err := s.br.Peek(1); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return dst, err
		}
		chunk, _ := s.br.Peek(int(min(n, uint64(s.br.Buffered()))))
		dst = append(dst, chunk...)
		s.br.Discard(len(chunk))
		n -= uint64(len(chunk))
	}
	return dst, nil
}

func (s *Scanner) readString() (string, error) {
	n, err := binary.ReadUvarint(s.br)
	if err != nil {
		return "", err
	}
	b, err := s.readN(nil, n)
	return string(b), err
}

// Scan advances to the next request, returning false at end of trace or on
// error (distinguish with Err). Dict sections are absorbed transparently;
// records decode in place from the current block's payload.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.blockRem == 0 {
		if s.ppos != len(s.payload) {
			s.err = fmt.Errorf("trace: block %d: %d payload bytes follow its last record", s.block, len(s.payload)-s.ppos)
			return false
		}
		if s.finished || !s.nextSection() {
			return false
		}
	}
	// The shortest record is four bytes: flags, client and two one-byte
	// varints.
	if len(s.payload)-s.ppos < 4 {
		s.err = fmt.Errorf("trace: block %d: payload ends with %d of its records undecoded", s.block, s.blockRem)
		return false
	}
	flags := s.payload[s.ppos]
	client := s.payload[s.ppos+1]
	s.ppos += 2
	delta, n := binary.Varint(s.payload[s.ppos:])
	if n <= 0 {
		s.err = fmt.Errorf("trace: block %d: request %d: bad page delta", s.block, s.seen)
		return false
	}
	s.ppos += n
	s.prevPage += delta
	h, n := binary.Uvarint(s.payload[s.ppos:])
	if n <= 0 {
		s.err = fmt.Errorf("trace: block %d: request %d: bad hint ID", s.block, s.seen)
		return false
	}
	s.ppos += n
	if h >= uint64(s.dict.Len()) {
		s.err = fmt.Errorf("trace: request %d references hint %d outside dictionary (len %d)", s.seen, h, s.dict.Len())
		return false
	}
	if int(client) >= len(s.clients) {
		s.err = fmt.Errorf("trace: request %d references client %d outside Clients (len %d)", s.seen, client, len(s.clients))
		return false
	}
	op := Read
	if flags&1 != 0 {
		op = Write
	}
	s.cur = Request{Page: uint64(s.prevPage), Hint: hint.ID(h), Op: op, Client: client}
	s.blockRem--
	s.seen++
	return true
}

// nextSection advances past the next section. It returns true when a
// request block was loaded (s.blockRem > 0) or a dict section was absorbed
// (caller loops); false at the trailer or on error.
func (s *Scanner) nextSection() bool {
	tag, err := s.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			s.err = errTruncatedV2
		} else {
			s.err = fmt.Errorf("trace: reading section tag: %w", err)
		}
		return false
	}
	switch tag {
	case v2TagDict:
		count, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: reading dict section size: %w", err)
			return false
		}
		for i := uint64(0); i < count; i++ {
			k, err := s.readString()
			if err != nil {
				s.err = fmt.Errorf("trace: reading dict key: %w", err)
				return false
			}
			want := hint.ID(s.dict.Len())
			if got := s.dict.InternKey(k); got != want {
				s.err = fmt.Errorf("trace: duplicate hint key %q in dict section", k)
				return false
			}
		}
		return true
	case v2TagBlock:
		s.block++
		count, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: block %d: reading request count: %w", s.block, err)
			return false
		}
		size, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: block %d: reading payload size: %w", s.block, err)
			return false
		}
		if size > 1<<30 {
			s.err = fmt.Errorf("trace: block %d: payload size %d implausible", s.block, size)
			return false
		}
		if s.payload, err = s.readN(s.payload[:0], size); err != nil {
			s.err = fmt.Errorf("trace: block %d: reading payload: %w", s.block, err)
			return false
		}
		s.crc = crc32.Update(s.crc, crc32.IEEETable, s.payload)
		s.ppos = 0
		s.blockRem = count
		return true
	case v2TagTrailer:
		total, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: reading trailer request count: %w", err)
			return false
		}
		dictLen, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: reading trailer dict length: %w", err)
			return false
		}
		var crcb [4]byte
		if _, err := io.ReadFull(s.br, crcb[:]); err != nil {
			s.err = fmt.Errorf("trace: reading trailer checksum: %w", err)
			return false
		}
		if total != s.seen {
			s.err = fmt.Errorf("trace: trailer declares %d requests, stream carried %d", total, s.seen)
			return false
		}
		if dictLen != uint64(s.dict.Len()) {
			s.err = fmt.Errorf("trace: trailer declares %d dict entries, stream carried %d", dictLen, s.dict.Len())
			return false
		}
		if want := binary.BigEndian.Uint32(crcb[:]); want != s.crc {
			s.err = fmt.Errorf("trace: payload checksum mismatch: trailer %08x, computed %08x", want, s.crc)
			return false
		}
		if _, err := s.br.ReadByte(); err != io.EOF {
			s.err = fmt.Errorf("trace: trailing data after v2 trailer")
			return false
		}
		s.finished = true
		return false
	default:
		s.err = fmt.Errorf("trace: unknown v2 section tag 0x%02x at request %d", tag, s.seen)
		return false
	}
}

// Request returns the request produced by the last successful Scan.
func (s *Scanner) Request() Request { return s.cur }

// Err returns the first error encountered (nil at a clean end of trace).
func (s *Scanner) Err() error { return s.err }

// Name returns the trace name from the header.
func (s *Scanner) Name() string { return s.name }

// PageSize returns the block size in bytes from the header.
func (s *Scanner) PageSize() int { return s.pageSize }

// Clients returns the client names from the header. The returned slice is
// a copy.
func (s *Scanner) Clients() []string {
	out := make([]string, len(s.clients))
	copy(out, s.clients)
	return out
}

// HintDict returns the scanner's hint dictionary (Iterator). It grows as
// the stream is scanned, always ahead of the requests that reference it;
// the caller must not use it concurrently with Scan.
func (s *Scanner) HintDict() *hint.Dict { return s.dict }

// Close releases the underlying file when the Scanner was built by Open; it
// is a no-op for NewScanner.
func (s *Scanner) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}
