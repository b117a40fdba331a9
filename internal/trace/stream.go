package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/hint"
)

// Scanner iterates the requests of a trace file one at a time, without ever
// materialising the request slice: memory stays constant no matter how long
// the trace is, which is what paper-scale traces (hundreds of millions of
// requests) and the network replay path need. All three trace formats are
// supported (binary v1, streaming binary v2, text); the format is sniffed
// from the leading bytes.
//
// For binary v1 the header (name, page size, clients, hint dictionary,
// request count) is decoded eagerly by NewScanner, so Dict and Clients are
// complete before the first Scan. For v2 the client list is complete up
// front but the dictionary grows as dict sections are scanned (always
// before the requests that reference them); the request count is only known
// from the trailer, after the last Scan. For the text format the dictionary
// and client list grow as records are scanned, mirroring ReadText.
//
// Scanning v2 performs zero steady-state allocations: each block payload is
// slurped into one reused buffer and records decode from it in place.
type Scanner struct {
	closer io.Closer // non-nil when the Scanner owns the underlying file
	br     *bufio.Reader
	binary bool
	v2     bool

	name     string
	pageSize int
	clients  []string
	dict     *hint.Dict

	// Binary decoding state.
	total     uint64 // declared request count (v1: header, v2: trailer)
	remaining uint64
	prevPage  int64

	// v2 decoding state.
	payload  []byte // reused request-block payload buffer
	ppos     int    // decode offset into payload
	blockRem uint64 // records left in the current block
	seen     uint64 // records decoded so far
	crc      uint32 // running CRC over block payloads
	finished bool   // trailer seen and verified

	// Text decoding state.
	headerDone bool
	lineNo     int

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

// NewScanner returns a Scanner over a trace stream in either the binary or
// the text format (sniffed from the first bytes; binary starts with the
// magic string).
func NewScanner(r io.Reader) (*Scanner, error) {
	s := &Scanner{br: bufio.NewReaderSize(r, 1<<20), dict: hint.NewDict()}
	head, err := s.br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: sniffing format: %w", err)
	}
	switch string(head) {
	case binaryMagic:
		s.binary = true
		if err := s.readBinaryHeader(); err != nil {
			return nil, err
		}
		return s, nil
	case binaryMagicV2:
		s.binary = true
		s.v2 = true
		if err := s.readBinaryHeaderV2(); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Text traces start from defaults and refine from header lines.
	s.name = "trace"
	s.pageSize = 4096
	return s, nil
}

func (s *Scanner) readBinaryHeader() error {
	if _, err := s.br.Discard(len(binaryMagic)); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(s.br)
		if err != nil {
			return "", err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(s.br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	var err error
	if s.name, err = readString(); err != nil {
		return fmt.Errorf("trace: reading name: %w", err)
	}
	pageSize, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("trace: reading page size: %w", err)
	}
	s.pageSize = int(pageSize)
	nClients, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("trace: reading client count: %w", err)
	}
	s.clients = make([]string, nClients)
	for i := range s.clients {
		if s.clients[i], err = readString(); err != nil {
			return fmt.Errorf("trace: reading client %d: %w", i, err)
		}
	}
	nKeys, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("trace: reading dict size: %w", err)
	}
	for i := uint64(0); i < nKeys; i++ {
		k, err := readString()
		if err != nil {
			return fmt.Errorf("trace: reading hint key %d: %w", i, err)
		}
		if got := s.dict.InternKey(k); got != hint.ID(i) {
			return fmt.Errorf("trace: duplicate hint key %q in dictionary", k)
		}
	}
	if s.total, err = binary.ReadUvarint(s.br); err != nil {
		return fmt.Errorf("trace: reading request count: %w", err)
	}
	s.remaining = s.total
	return nil
}

func (s *Scanner) readString() (string, error) {
	n, err := binary.ReadUvarint(s.br)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(s.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (s *Scanner) readBinaryHeaderV2() error {
	if _, err := s.br.Discard(len(binaryMagicV2)); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	var err error
	if s.name, err = s.readString(); err != nil {
		return fmt.Errorf("trace: reading name: %w", err)
	}
	pageSize, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("trace: reading page size: %w", err)
	}
	s.pageSize = int(pageSize)
	nClients, err := binary.ReadUvarint(s.br)
	if err != nil {
		return fmt.Errorf("trace: reading client count: %w", err)
	}
	s.clients = make([]string, nClients)
	for i := range s.clients {
		if s.clients[i], err = s.readString(); err != nil {
			return fmt.Errorf("trace: reading client %d: %w", i, err)
		}
	}
	return nil
}

// Scan advances to the next request, returning false at end of trace or on
// error (distinguish with Err).
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	if s.v2 {
		return s.scanBinaryV2()
	}
	if s.binary {
		return s.scanBinary()
	}
	return s.scanText()
}

// scanBinaryV2 decodes the next request of a v2 stream. Dict sections are
// absorbed transparently; block payloads are read whole into one reused
// buffer and decoded in place, so steady-state scanning allocates nothing.
func (s *Scanner) scanBinaryV2() bool {
	for s.blockRem == 0 {
		if s.finished {
			return false
		}
		if !s.nextSectionV2() {
			return false
		}
	}
	flags := s.payload[s.ppos]
	client := s.payload[s.ppos+1]
	s.ppos += 2
	delta, n := binary.Varint(s.payload[s.ppos:])
	if n <= 0 {
		s.err = fmt.Errorf("trace: request %d: bad page delta", s.seen)
		return false
	}
	s.ppos += n
	s.prevPage += delta
	h, n := binary.Uvarint(s.payload[s.ppos:])
	if n <= 0 {
		s.err = fmt.Errorf("trace: request %d: bad hint ID", s.seen)
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

// nextSectionV2 advances past the next v2 section. It returns true when a
// request block was loaded (s.blockRem > 0) or a dict section was absorbed
// (caller loops); false at the trailer or on error.
func (s *Scanner) nextSectionV2() bool {
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
		count, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: reading block request count: %w", err)
			return false
		}
		size, err := binary.ReadUvarint(s.br)
		if err != nil {
			s.err = fmt.Errorf("trace: reading block payload size: %w", err)
			return false
		}
		if size > 1<<30 {
			s.err = fmt.Errorf("trace: block payload size %d implausible", size)
			return false
		}
		if uint64(cap(s.payload)) < size {
			s.payload = make([]byte, size)
		}
		s.payload = s.payload[:size]
		if _, err := io.ReadFull(s.br, s.payload); err != nil {
			s.err = fmt.Errorf("trace: reading block payload: %w", err)
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
		s.total = total
		s.finished = true
		return false
	default:
		s.err = fmt.Errorf("trace: unknown v2 section tag 0x%02x at request %d", tag, s.seen)
		return false
	}
}

func (s *Scanner) scanBinary() bool {
	if s.remaining == 0 {
		return false
	}
	i := s.total - s.remaining
	flags, err := s.br.ReadByte()
	if err != nil {
		s.err = fmt.Errorf("trace: reading request %d flags: %w", i, err)
		return false
	}
	client, err := s.br.ReadByte()
	if err != nil {
		s.err = fmt.Errorf("trace: reading request %d client: %w", i, err)
		return false
	}
	delta, err := binary.ReadVarint(s.br)
	if err != nil {
		s.err = fmt.Errorf("trace: reading request %d page: %w", i, err)
		return false
	}
	s.prevPage += delta
	h, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.err = fmt.Errorf("trace: reading request %d hint: %w", i, err)
		return false
	}
	if h >= uint64(s.dict.Len()) {
		s.err = fmt.Errorf("trace: request %d references hint %d outside dictionary (len %d)", i, h, s.dict.Len())
		return false
	}
	if int(client) >= len(s.clients) {
		s.err = fmt.Errorf("trace: request %d references client %d outside Clients (len %d)", i, client, len(s.clients))
		return false
	}
	op := Read
	if flags&1 != 0 {
		op = Write
	}
	s.cur = Request{Page: uint64(s.prevPage), Hint: hint.ID(h), Op: op, Client: client}
	s.remaining--
	return true
}

func (s *Scanner) scanText() bool {
	for {
		line, err := s.br.ReadString('\n')
		if err == io.EOF && line == "" {
			return false
		}
		if err != nil && err != io.EOF {
			s.err = err
			return false
		}
		s.lineNo++
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			s.textHeaderLine(line)
			continue
		}
		s.headerDone = true
		fields := strings.SplitN(line, " ", 4)
		if len(fields) < 3 {
			s.err = fmt.Errorf("trace: line %d: malformed record %q", s.lineNo, line)
			return false
		}
		var op Op
		switch fields[0] {
		case "R":
			op = Read
		case "W":
			op = Write
		default:
			s.err = fmt.Errorf("trace: line %d: bad op %q", s.lineNo, fields[0])
			return false
		}
		page, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			s.err = fmt.Errorf("trace: line %d: bad page: %w", s.lineNo, err)
			return false
		}
		client, err := strconv.ParseUint(fields[2], 10, 8)
		if err != nil {
			s.err = fmt.Errorf("trace: line %d: bad client: %w", s.lineNo, err)
			return false
		}
		key := ""
		if len(fields) == 4 {
			key = fields[3]
		}
		for int(client) >= len(s.clients) {
			s.clients = append(s.clients, fmt.Sprintf("client%d", len(s.clients)))
		}
		s.cur = Request{
			Page:   page,
			Hint:   s.dict.InternKey(key),
			Op:     op,
			Client: uint8(client),
		}
		return true
	}
}

func (s *Scanner) textHeaderLine(line string) {
	if s.headerDone {
		return // comments after the first record are ignored, as in ReadText
	}
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	switch {
	case len(fields) >= 2 && fields[0] == "trace":
		s.name = fields[1]
		if len(fields) >= 4 && fields[2] == "pagesize" {
			if ps, err := strconv.Atoi(fields[3]); err == nil {
				s.pageSize = ps
			}
		}
	case len(fields) >= 2 && fields[0] == "clients":
		s.clients = strings.Split(fields[1], ",")
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

// Clients returns the client names known so far. For binary traces the list
// is complete before the first Scan; for text traces it may grow as records
// referencing new clients are scanned. The returned slice is a copy.
func (s *Scanner) Clients() []string {
	out := make([]string, len(s.clients))
	copy(out, s.clients)
	return out
}

// Dict returns the scanner's hint dictionary. For binary v1 traces it is
// complete before the first Scan; for v2 and text traces it grows as the
// stream is scanned (always ahead of the requests that reference it). The
// caller must not use it concurrently with Scan.
func (s *Scanner) Dict() *hint.Dict { return s.dict }

// HintDict returns the scanner's hint dictionary (Iterator).
func (s *Scanner) HintDict() *hint.Dict { return s.dict }

// Count returns the trace's declared request count when the format has
// recorded one at the current position: v1 knows it from the header, v2
// only once the trailer has been scanned, text never.
func (s *Scanner) Count() (n int, ok bool) {
	if s.binary && (!s.v2 || s.finished) {
		return int(s.total), true
	}
	return 0, false
}

// Close releases the underlying file when the Scanner was built by Open; it
// is a no-op for NewScanner.
func (s *Scanner) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}
