package workload

import (
	"strings"
	"testing"
)

// smallPreset shrinks a named preset for test runtimes.
func smallPreset(t *testing.T, name string, requests int) Preset {
	t.Helper()
	p, err := PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Requests = requests
	return p
}

func TestPresetsComplete(t *testing.T) {
	want := []string{"DB2_C60", "DB2_C300", "DB2_C540", "DB2_H80", "DB2_H400", "DB2_H720", "MY_H65", "MY_H98"}
	ps := Presets()
	if len(ps) != len(want) {
		t.Fatalf("got %d presets", len(ps))
	}
	for i, p := range ps {
		if p.Name != want[i] {
			t.Errorf("preset %d = %q, want %q", i, p.Name, want[i])
		}
		if p.DBPages <= 0 || p.ClientBuffer <= 0 || p.Requests <= 0 || len(p.ServerSizes) == 0 {
			t.Errorf("preset %s incomplete: %+v", p.Name, p)
		}
		if p.ClientBuffer >= p.DBPages {
			t.Errorf("preset %s: client buffer %d >= DB %d", p.Name, p.ClientBuffer, p.DBPages)
		}
	}
	if _, err := PresetByName("NOPE"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if _, err := Generate(Preset{Kind: "bogus"}); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestTPCCGenerate(t *testing.T) {
	p := smallPreset(t, "DB2_C60", 250000)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != p.Requests {
		t.Fatalf("generated %d requests, want %d", tr.Len(), p.Requests)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Reads == 0 || s.Writes == 0 {
		t.Errorf("degenerate trace: %+v", s)
	}
	// The DB2 hint vocabulary must be present.
	domains := tr.Dict.Domains()
	for _, typ := range []string{"pool", "object", "objtype", "reqtype", "prio"} {
		if len(domains[typ]) == 0 {
			t.Errorf("hint type %q missing", typ)
		}
	}
	// TPC-C pools: exactly 2 (Figure 2).
	if got := len(domains["pool"]); got != 2 {
		t.Errorf("pool domain = %d, want 2", got)
	}
	// Write hints must include all three kinds.
	rt := strings.Join(domains["reqtype"], ",")
	for _, v := range []string{"read", "repl-write", "rec-write", "sync-write"} {
		if !strings.Contains(rt, v) {
			t.Errorf("reqtype domain %q missing %q", rt, v)
		}
	}
}

func TestTPCCDatabaseGrows(t *testing.T) {
	p := smallPreset(t, "DB2_C60", 400000)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().DistinctPages; got <= p.DBPages/2 {
		// With 150K requests the trace should already touch many pages;
		// growth pushes the page space beyond the initial allocation over
		// longer runs (Figure 5's TPC-C note).
		t.Logf("distinct pages %d of %d initial", got, p.DBPages)
	}
	maxPage := uint64(0)
	for _, r := range tr.Reqs {
		if r.Page > maxPage {
			maxPage = r.Page
		}
	}
	if maxPage < uint64(p.DBPages) {
		t.Errorf("no growth: max page %d within initial %d", maxPage, p.DBPages)
	}
}

func TestTPCCDeterministic(t *testing.T) {
	p := smallPreset(t, "DB2_C60", 40000)
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Reqs[i], b.Reqs[i])
		}
	}
	p2 := p
	p2.Seed++
	c, err := Generate(p2)
	if err != nil {
		t.Fatal(err)
	}
	same := c.Len() == a.Len()
	if same {
		for i := range a.Reqs {
			if a.Reqs[i] != c.Reqs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seed produced an identical trace")
	}
}

func TestTPCHDB2Generate(t *testing.T) {
	p := smallPreset(t, "DB2_H80", 120000)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != p.Requests {
		t.Fatalf("generated %d requests", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	domains := tr.Dict.Domains()
	// TPC-H DB2 pools: 5 (Figure 2).
	if got := len(domains["pool"]); got != 5 {
		t.Errorf("pool domain = %d, want 5", got)
	}
	// Prefetch reads must dominate in a scan-heavy workload.
	counts := map[string]int{}
	for _, r := range tr.Reqs {
		key := tr.Dict.Key(r.Hint)
		if strings.Contains(key, "reqtype=prefetch") {
			counts["prefetch"]++
		}
	}
	if counts["prefetch"] < tr.Len()/4 {
		t.Errorf("only %d prefetch reads in %d requests", counts["prefetch"], tr.Len())
	}
}

func TestTPCHMySQLGenerate(t *testing.T) {
	p := smallPreset(t, "MY_H65", 120000)
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	domains := tr.Dict.Domains()
	// MySQL hint vocabulary (Figure 2): thread, reqtype (3 values), file, fix.
	for _, typ := range []string{"thread", "reqtype", "file", "fix"} {
		if len(domains[typ]) == 0 {
			t.Errorf("hint type %q missing", typ)
		}
	}
	if got := len(domains["reqtype"]); got > 3 {
		t.Errorf("MySQL reqtype domain has %d values, want <= 3: %v", got, domains["reqtype"])
	}
	if got := len(domains["thread"]); got > 5 {
		t.Errorf("thread domain has %d values, want <= 5", got)
	}
	if got := len(domains["fix"]); got > 2 {
		t.Errorf("fix domain has %d values, want <= 2", got)
	}
	// MySQL files: 9 (each table with its indexes in one file).
	if got := len(domains["file"]); got != 9 {
		t.Errorf("file domain has %d values, want 9: %v", got, domains["file"])
	}
	// No DB2-style hints.
	if len(domains["pool"]) != 0 || len(domains["objtype"]) != 0 {
		t.Error("MySQL trace carries DB2 hint types")
	}
}

func TestClientBufferAffectsLocality(t *testing.T) {
	// The same workload behind a larger client buffer must leave less
	// temporal locality for the server: compare read fractions.
	small := smallPreset(t, "DB2_C60", 80000)
	large := smallPreset(t, "DB2_C300", 80000)
	ts, err := Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Generate(large)
	if err != nil {
		t.Fatal(err)
	}
	rs := float64(ts.Stats().Reads) / float64(ts.Len())
	rl := float64(tl.Stats().Reads) / float64(tl.Len())
	if rl >= rs {
		t.Errorf("larger client buffer should absorb reads: C60 reads %.2f, C300 reads %.2f", rs, rl)
	}
}
