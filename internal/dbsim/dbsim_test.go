package dbsim

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func newTestClient(t *testing.T, style HintStyle, poolSize int) (*Client, *Database, *trace.Trace) {
	t.Helper()
	out := trace.New("test", 4096)
	db := NewDatabase(4096)
	c := NewClient(db, out, Config{
		Style:           style,
		PoolSizes:       []int{poolSize},
		CheckpointEvery: -1, // manual checkpoints only
		Seed:            1,
	})
	return c, db, out
}

func reqTypes(out *trace.Trace) map[string]int {
	counts := map[string]int{}
	for _, r := range out.Reqs {
		key := out.Dict.Key(r.Hint)
		for _, f := range strings.Split(key, "|") {
			if strings.HasPrefix(f, "reqtype=") {
				counts[strings.TrimPrefix(f, "reqtype=")]++
			}
		}
	}
	return counts
}

func TestDatabaseAllocation(t *testing.T) {
	db := NewDatabase(4096)
	a := db.NewObject("A", "table", 0, 0, 0, 10)
	b := db.NewObject("B", "index", 0, 0, 0, 5)
	if a.Pages() != 10 || b.Pages() != 5 {
		t.Fatalf("sizes: %d, %d", a.Pages(), b.Pages())
	}
	if db.TotalPages() != 15 {
		t.Fatalf("TotalPages = %d", db.TotalPages())
	}
	// Page spaces are disjoint and initially contiguous.
	seen := map[uint64]bool{}
	for i := 0; i < a.Pages(); i++ {
		seen[a.Page(i)] = true
	}
	for i := 0; i < b.Pages(); i++ {
		if seen[b.Page(i)] {
			t.Fatal("objects share pages")
		}
	}
	if a.Page(1) != a.Page(0)+1 {
		t.Error("initial allocation not contiguous")
	}
	db.Extend(a, 3)
	if a.Pages() != 13 || db.TotalPages() != 18 {
		t.Errorf("after Extend: %d pages, %d total", a.Pages(), db.TotalPages())
	}
	if db.Object("A") != a || db.Object("missing") != nil {
		t.Error("Object lookup broken")
	}
	if len(db.Objects()) != 2 {
		t.Error("Objects() wrong")
	}
}

func TestObjectPagePanics(t *testing.T) {
	db := NewDatabase(4096)
	a := db.NewObject("A", "table", 0, 0, 0, 3)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Page should panic")
		}
	}()
	a.Page(3)
}

func TestClientHitsAreAbsorbed(t *testing.T) {
	c, db, out := newTestClient(t, DB2Style{}, 10)
	obj := db.NewObject("T", "table", 0, 0, 0, 5)
	c.Read(obj, 0)
	c.Read(obj, 0) // hit in client pool: no server I/O
	if out.Len() != 1 {
		t.Fatalf("emitted %d requests, want 1 (second read absorbed)", out.Len())
	}
	if out.Reqs[0].Op != trace.Read || out.Reqs[0].Page != obj.Page(0) {
		t.Errorf("emitted %+v", out.Reqs[0])
	}
}

func TestEvictionOfDirtyPageEmitsSyncWrite(t *testing.T) {
	c, db, out := newTestClient(t, DB2Style{}, 2)
	obj := db.NewObject("T", "table", 0, 0, 0, 5)
	c.Update(obj, 0) // dirty
	c.Read(obj, 1)
	c.Read(obj, 2) // evicts page 0 (dirty) → sync write
	counts := reqTypes(out)
	if counts["sync-write"] != 1 {
		t.Fatalf("sync-writes = %d, want 1 (types: %v)", counts["sync-write"], counts)
	}
	if counts["read"] != 3 {
		t.Errorf("reads = %d, want 3", counts["read"])
	}
	// The sync write must reference the victim's page.
	for _, r := range out.Reqs {
		if r.Op == trace.Write && r.Page != obj.Page(0) {
			t.Errorf("sync write to page %d, want %d", r.Page, obj.Page(0))
		}
	}
}

func TestCleanerEmitsReplacementWrites(t *testing.T) {
	out := trace.New("test", 4096)
	db := NewDatabase(4096)
	c := NewClient(db, out, Config{
		Style:            DB2Style{},
		PoolSizes:        []int{10},
		CleanerThreshold: 0.3,
		CleanerBatch:     4,
		CleanerPeriod:    1,
		CleanerGap:       NoCleanerGap,
		CheckpointEvery:  -1,
		Seed:             1,
	})
	obj := db.NewObject("T", "table", 0, 0, 0, 10)
	for i := 0; i < 5; i++ {
		c.Update(obj, i)
	}
	if c.PoolDirty(0) != 5 {
		t.Fatalf("dirty = %d", c.PoolDirty(0))
	}
	c.Op() // 5 > 0.3×10 → cleaner writes 4 (batch), LRU-first
	counts := reqTypes(out)
	if counts["repl-write"] != 4 {
		t.Fatalf("repl-writes = %d, want 4 (types: %v)", counts["repl-write"], counts)
	}
	if c.PoolDirty(0) != 1 {
		t.Errorf("dirty after cleaning = %d, want 1", c.PoolDirty(0))
	}
	// Cleaned pages stay cached.
	if c.PoolLen(0) != 5 {
		t.Errorf("pool len = %d, want 5", c.PoolLen(0))
	}
}

func TestCheckpointEmitsRecoveryWrites(t *testing.T) {
	c, db, out := newTestClient(t, DB2Style{}, 10)
	obj := db.NewObject("T", "table", 0, 0, 0, 10)
	c.Update(obj, 0)
	c.Update(obj, 1)
	c.Checkpoint()
	counts := reqTypes(out)
	if counts["rec-write"] != 2 {
		t.Fatalf("rec-writes = %d (types: %v)", counts["rec-write"], counts)
	}
	if c.PoolDirty(0) != 0 {
		t.Errorf("dirty after checkpoint = %d", c.PoolDirty(0))
	}
	// Checkpointed pages stay cached (this is what makes recovery writes
	// poor server caching candidates).
	if c.PoolLen(0) != 2 {
		t.Errorf("pool len = %d", c.PoolLen(0))
	}
}

func TestScanEmitsPrefetchReads(t *testing.T) {
	c, db, out := newTestClient(t, DB2Style{}, 20)
	obj := db.NewObject("T", "table", 0, 0, 0, 10)
	c.Scan(obj, 0, 10, false)
	counts := reqTypes(out)
	if counts["prefetch"] != 10 {
		t.Fatalf("prefetch reads = %d (types: %v)", counts["prefetch"], counts)
	}
	// Scanning past the end is clamped.
	c.Scan(obj, 8, 10, false)
	if out.Len() != 10 { // pages 8,9 were already pooled
		t.Errorf("emitted %d, want 10", out.Len())
	}
}

func TestInsertGrowsObject(t *testing.T) {
	c, db, _ := newTestClient(t, DB2Style{}, 10)
	obj := db.NewObject("T", "table", 0, 0, 0, 1)
	before := obj.Pages()
	for i := 0; i < 10; i++ {
		c.Insert(obj, 3) // a page fills after 3 rows
	}
	if obj.Pages() <= before {
		t.Error("Insert never extended the object")
	}
	// 10 rows at 3 rows/page ≈ 3 new pages.
	if got := obj.Pages() - before; got < 2 || got > 4 {
		t.Errorf("grew by %d pages, want ≈3", got)
	}
}

func TestDB2HintShape(t *testing.T) {
	c, db, out := newTestClient(t, DB2Style{}, 5)
	obj := db.NewObject("STOCK", "table", 0, 3, 0, 5)
	c.Read(obj, 0)
	set := out.Dict.Set(out.Reqs[0].Hint)
	if len(set) != 5 {
		t.Fatalf("DB2 hint set has %d fields, want 5: %v", len(set), set)
	}
	wantTypes := []string{"pool", "object", "objtype", "reqtype", "prio"}
	for i, f := range set {
		if f.Type != wantTypes[i] {
			t.Errorf("field %d is %q, want %q", i, f.Type, wantTypes[i])
		}
	}
	if v, _ := set.Value("objtype"); v != "table" {
		t.Errorf("objtype = %q", v)
	}
	if v, _ := set.Value("prio"); v != "3" {
		t.Errorf("prio = %q", v)
	}
	if v, _ := set.Value("reqtype"); v != "read" {
		t.Errorf("reqtype = %q", v)
	}
}

func TestMySQLHintShape(t *testing.T) {
	c, db, out := newTestClient(t, MySQLStyle{}, 5)
	obj := db.NewObject("LINEITEM", "table", 0, 1, 7, 5)
	c.Read(obj, 0)
	set := out.Dict.Set(out.Reqs[0].Hint)
	if len(set) != 4 {
		t.Fatalf("MySQL hint set has %d fields, want 4: %v", len(set), set)
	}
	wantTypes := []string{"thread", "reqtype", "file", "fix"}
	for i, f := range set {
		if f.Type != wantTypes[i] {
			t.Errorf("field %d is %q, want %q", i, f.Type, wantTypes[i])
		}
	}
	if v, _ := set.Value("file"); v != "f7" {
		t.Errorf("file = %q", v)
	}
}

func TestMySQLRequestTypeCollapse(t *testing.T) {
	// MySQL reports only 3 request types: prefetch → read, sync → repl.
	var s MySQLStyle
	obj := &Object{ID: 0, Name: "T", TypeName: "table", FileID: 0}
	cases := map[ReqType]string{
		ReadReq:     "read",
		PrefetchReq: "read",
		ReplWrite:   "repl-write",
		SyncWrite:   "repl-write",
		RecWrite:    "rec-write",
	}
	for rt, want := range cases {
		set := s.Hints(obj, rt, HintCtx{Thread: 1, FixCount: 1})
		if v, _ := set.Value("reqtype"); v != want {
			t.Errorf("MySQL reqtype for %v = %q, want %q", rt, v, want)
		}
	}
}

func TestReqTypeStrings(t *testing.T) {
	cases := map[ReqType]string{
		ReadReq:     "read",
		PrefetchReq: "prefetch",
		ReplWrite:   "repl-write",
		RecWrite:    "rec-write",
		SyncWrite:   "sync-write",
	}
	for rt, want := range cases {
		if rt.String() != want {
			t.Errorf("%v.String() = %q", rt, rt.String())
		}
	}
	if !ReplWrite.IsWrite() || !RecWrite.IsWrite() || !SyncWrite.IsWrite() {
		t.Error("write types misclassified")
	}
	if ReadReq.IsWrite() || PrefetchReq.IsWrite() {
		t.Error("read types misclassified")
	}
}

func TestPoolLRUOrder(t *testing.T) {
	c, db, out := newTestClient(t, DB2Style{}, 3)
	obj := db.NewObject("T", "table", 0, 0, 0, 10)
	c.Read(obj, 0)
	c.Read(obj, 1)
	c.Read(obj, 2)
	c.Read(obj, 0) // refresh 0; LRU is now 1
	c.Read(obj, 3) // evicts 1
	before := out.Len()
	c.Read(obj, 0) // still cached: no emission
	c.Read(obj, 2) // still cached
	if out.Len() != before {
		t.Error("pool evicted the wrong page (LRU order broken)")
	}
	c.Read(obj, 1) // must miss
	if out.Len() != before+1 {
		t.Error("page 1 should have been evicted")
	}
}

func TestConfigValidation(t *testing.T) {
	db := NewDatabase(4096)
	out := trace.New("t", 4096)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("missing style should panic")
			}
		}()
		NewClient(db, out, Config{PoolSizes: []int{1}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("missing pools should panic")
			}
		}()
		NewClient(db, out, Config{Style: DB2Style{}})
	}()
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "PoolSizes[1]") {
				t.Errorf("empty pool 1 should panic naming it, got %q", msg)
			}
		}()
		NewClient(db, out, Config{Style: DB2Style{}, PoolSizes: []int{4, 0}})
	}()
	c := NewClient(db, out, Config{Style: DB2Style{}, PoolSizes: []int{1}})
	bad := db.NewObject("X", "table", 5, 0, 0, 1) // pool 5 does not exist
	defer func() {
		if recover() == nil {
			t.Error("unknown pool should panic")
		}
	}()
	c.Read(bad, 0)
}
