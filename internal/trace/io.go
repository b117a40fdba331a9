package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// Binary trace format (all integers varint-encoded unless noted):
//
//	magic      "CLICTRC1" (8 bytes)
//	nameLen, name
//	pageSize
//	clientCount, then each client name (len, bytes)
//	dictLen, then each hint key (len, bytes) in ID order
//	reqCount
//	reqCount records of: flags byte (bit0 = write), client byte,
//	                     page delta (zig-zag varint vs previous page),
//	                     hint ID varint
//
// Page numbers are delta-encoded because workload generators emit runs of
// sequential pages (scans, prefetch), which compresses well.

const binaryMagic = "CLICTRC1"

// WriteBinary serialises the trace.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	writeString := func(s string) {
		writeUvarint(bw, uint64(len(s)))
		bw.WriteString(s)
	}
	writeString(t.Name)
	writeUvarint(bw, uint64(t.PageSize))
	writeUvarint(bw, uint64(len(t.Clients)))
	for _, c := range t.Clients {
		writeString(c)
	}
	keys := t.Dict.Keys()
	writeUvarint(bw, uint64(len(keys)))
	for _, k := range keys {
		writeString(k)
	}
	writeUvarint(bw, uint64(len(t.Reqs)))
	prev := uint64(0)
	for _, r := range t.Reqs {
		flags := byte(0)
		if r.Op == Write {
			flags |= 1
		}
		bw.WriteByte(flags)
		bw.WriteByte(r.Client)
		writeVarint(bw, int64(r.Page)-int64(prev))
		prev = r.Page
		writeUvarint(bw, uint64(r.Hint))
	}
	return bw.Flush()
}

// WriteText serialises the trace in a human-readable line format:
// one "op page client hintkey" record per line, preceded by header lines.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "# trace %s pagesize %d\n", t.Name, t.PageSize)
	fmt.Fprintf(bw, "# clients %s\n", strings.Join(t.Clients, ","))
	for _, r := range t.Reqs {
		op := "R"
		if r.Op == Write {
			op = "W"
		}
		fmt.Fprintf(bw, "%s %d %d %s\n", op, r.Page, r.Client, t.Dict.Key(r.Hint))
	}
	return bw.Flush()
}

// Save writes the trace to path in binary format.
func Save(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a trace from path in any format (binary v1, binary v2, text),
// sniffed from the leading bytes.
func Load(path string) (*Trace, error) {
	s, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return Collect(s)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}
