package server

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netclient"
	"repro/internal/wire"
)

// TestSummaryHintKeyBound: the keys a connection's summaries add to the
// server dictionary count against MaxHintKeys, the bound its Hello and
// Intern frames share. Two summaries of MaxHintKeys/2+1 fresh keys each:
// the first is absorbed, the second would pass the bound and is refused
// with an Error frame before any of its keys is interned, so the
// dictionary stays within the bound.
func TestSummaryHintKeyBound(t *testing.T) {
	const maxKeys = 8
	s := New(Config{
		Cache:       core.Config{Capacity: 100, Window: 100},
		Shards:      1,
		MaxHintKeys: maxKeys,
	})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := netclient.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Hello("peer", nil); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"a", "b"} {
		sum := wire.Summary{Node: "peer", Round: 1}
		for i := 0; i < maxKeys/2+1; i++ {
			sum.Entries = append(sum.Entries, wire.SummaryEntry{Key: fmt.Sprintf("%s=%d", prefix, i), N: 1})
		}
		if err := conn.SendSummary(sum); err != nil {
			t.Fatal(err)
		}
	}
	// The refusal arrives as the next frame the client reads, in place of
	// the empty batch's results.
	pl := conn.Pipeline(1, func(any, []bool, wire.Results, int64) error { return nil })
	if err := pl.Submit(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := pl.Drain(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("limit %d", maxKeys)) {
		t.Errorf("err = %v, want the second summary refused at the hint-key limit", err)
	}
	s.mu.Lock()
	n := s.dict.Len()
	s.mu.Unlock()
	if n != maxKeys/2+1 {
		t.Errorf("dictionary holds %d keys, want the first summary's %d", n, maxKeys/2+1)
	}
	if got := s.cache.Global().Absorbed(); got != 1 {
		t.Errorf("absorbed %d summaries, want 1", got)
	}
}
