package trace

import (
	"bufio"
	"encoding/binary"
)

// Save writes the trace to path in the trace file format (v2.go).
func Save(path string, t *Trace) error {
	w, err := Create(path, t.Name, t.PageSize, t.Clients, WriterOptions{})
	if err != nil {
		return err
	}
	return w.writeAll(t)
}

// Load reads a trace file into memory.
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
