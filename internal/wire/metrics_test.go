package wire

import (
	"bufio"
	"bytes"
	"testing"
)

func TestUvarintLen(t *testing.T) {
	cases := []struct {
		n    uint64
		want uint64
	}{
		{0, 1}, {0x7f, 1}, {0x80, 2}, {0x3fff, 2}, {0x4000, 3}, {1 << 24, 4},
	}
	for _, c := range cases {
		if got := uvarintLen(c.n); got != c.want {
			t.Errorf("uvarintLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestFrameMetrics checks the codec counters account every frame and every
// on-the-wire byte, prefix included.
func TestFrameMetrics(t *testing.T) {
	encF0, encB0 := Metrics.FramesEncoded.Value(), Metrics.BytesEncoded.Value()
	decF0, decB0 := Metrics.FramesDecoded.Value(), Metrics.BytesDecoded.Value()

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payloads := [][]byte{
		make([]byte, 1),   // 1-byte prefix
		make([]byte, 200), // 2-byte prefix
	}
	wireBytes := uint64(0)
	for _, p := range payloads {
		if err := WriteFrame(w, p); err != nil {
			t.Fatal(err)
		}
		wireBytes += uvarintLen(uint64(len(p))) + uint64(len(p))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if uint64(buf.Len()) != wireBytes {
		t.Fatalf("encoded %d bytes on the wire, accounting says %d", buf.Len(), wireBytes)
	}
	r := NewFrameReader(bufio.NewReader(&buf))
	for range payloads {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}

	if got := Metrics.FramesEncoded.Value() - encF0; got != 2 {
		t.Errorf("FramesEncoded delta = %d, want 2", got)
	}
	if got := Metrics.BytesEncoded.Value() - encB0; got != wireBytes {
		t.Errorf("BytesEncoded delta = %d, want %d", got, wireBytes)
	}
	if got := Metrics.FramesDecoded.Value() - decF0; got != 2 {
		t.Errorf("FramesDecoded delta = %d, want 2", got)
	}
	if got := Metrics.BytesDecoded.Value() - decB0; got != wireBytes {
		t.Errorf("BytesDecoded delta = %d, want %d", got, wireBytes)
	}
}
