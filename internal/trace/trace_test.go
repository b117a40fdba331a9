package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hint"
	"repro/internal/randx"
)

// buildTrace makes a small deterministic trace for tests.
func buildTrace(name string, n int, seed int64) *Trace {
	t := New(name, 4096)
	rng := rand.New(rand.NewSource(seed))
	ids := []hint.ID{
		t.Dict.Intern(hint.Make("reqtype", "read")),
		t.Dict.Intern(hint.Make("reqtype", "repl-write")),
		t.Dict.Intern(hint.Make("reqtype", "rec-write")),
	}
	for i := 0; i < n; i++ {
		op := Read
		h := ids[0]
		if rng.Intn(3) == 0 {
			op = Write
			h = ids[1+rng.Intn(2)]
		}
		t.Append(uint64(rng.Intn(50)), op, h)
	}
	return t
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Op.String basic values wrong")
	}
	if Op(9).String() != "op(9)" {
		t.Errorf("unknown op: %q", Op(9).String())
	}
}

func TestStats(t *testing.T) {
	tr := New("t", 4096)
	h := tr.Dict.Intern(hint.Make("a", "1"))
	h2 := tr.Dict.Intern(hint.Make("a", "2"))
	tr.Append(1, Read, h)
	tr.Append(2, Write, h2)
	tr.Append(1, Read, h)
	s := tr.Stats()
	if s.Requests != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Errorf("Stats counts = %+v", s)
	}
	if s.DistinctPages != 2 || s.DistinctHints != 2 {
		t.Errorf("Stats distinct = %+v", s)
	}
}

func TestValidate(t *testing.T) {
	tr := buildTrace("ok", 100, 1)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := buildTrace("bad", 10, 1)
	bad.Reqs[3].Hint = 999
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range hint not caught")
	}
	bad2 := buildTrace("bad2", 10, 1)
	bad2.Reqs[0].Client = 7
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range client not caught")
	}
	bad3 := buildTrace("bad3", 1, 1)
	bad3.Dict = nil
	if err := bad3.Validate(); err == nil {
		t.Error("nil dict not caught")
	}
}

func TestTruncate(t *testing.T) {
	tr := buildTrace("t", 100, 1)
	short := tr.Truncate(10)
	if short.Len() != 10 {
		t.Errorf("Truncate(10).Len = %d", short.Len())
	}
	if tr.Len() != 100 {
		t.Error("Truncate mutated original")
	}
	over := tr.Truncate(1000)
	if over.Len() != 100 {
		t.Errorf("Truncate beyond length: %d", over.Len())
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := New("A", 4096)
	b := New("B", 4096)
	ha := a.Dict.Intern(hint.Make("x", "1"))
	hb := b.Dict.Intern(hint.Make("x", "1"))
	for i := 0; i < 5; i++ {
		a.Append(uint64(i), Read, ha)
	}
	for i := 0; i < 3; i++ {
		b.Append(uint64(i), Write, hb)
	}
	m, err := Interleave("M", a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated to the shortest (3) × 2 clients.
	if m.Len() != 6 {
		t.Fatalf("interleaved length = %d, want 6", m.Len())
	}
	for i, r := range m.Reqs {
		wantClient := uint8(i % 2)
		if r.Client != wantClient {
			t.Errorf("request %d from client %d, want %d", i, r.Client, wantClient)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveNamespacesHints(t *testing.T) {
	a := New("A", 4096)
	b := New("B", 4096)
	// Identical hint vocabularies must remain distinct after interleaving.
	a.Append(0, Read, a.Dict.Intern(hint.Make("reqtype", "read")))
	b.Append(0, Read, b.Dict.Intern(hint.Make("reqtype", "read")))
	m, err := Interleave("M", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dict.Len() != 2 {
		t.Fatalf("namespaced dict has %d entries, want 2", m.Dict.Len())
	}
	k0 := m.Dict.Key(m.Reqs[0].Hint)
	k1 := m.Dict.Key(m.Reqs[1].Hint)
	if k0 == k1 {
		t.Errorf("hints from different clients collide: %q", k0)
	}
	if k0 != "A/reqtype=read" || k1 != "B/reqtype=read" {
		t.Errorf("unexpected namespacing: %q, %q", k0, k1)
	}
}

func TestInterleaveDisjointPages(t *testing.T) {
	a := buildTrace("A", 200, 1)
	b := buildTrace("B", 200, 2)
	m, err := Interleave("M", a, b)
	if err != nil {
		t.Fatal(err)
	}
	pagesByClient := map[uint8]map[uint64]bool{0: {}, 1: {}}
	for _, r := range m.Reqs {
		pagesByClient[r.Client][r.Page] = true
	}
	for p := range pagesByClient[0] {
		if pagesByClient[1][p] {
			t.Fatalf("page %d shared between clients", p)
		}
	}
}

func TestInterleaveErrors(t *testing.T) {
	if _, err := Interleave("x"); err == nil {
		t.Error("zero inputs should error")
	}
}

func TestWithNoiseZeroTypes(t *testing.T) {
	base := buildTrace("base", 300, 3)
	out, err := WithNoise(base, DefaultNoise(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != base.Len() {
		t.Fatalf("length changed: %d", out.Len())
	}
	for i := range out.Reqs {
		if out.Dict.Key(out.Reqs[i].Hint) != base.Dict.Key(base.Reqs[i].Hint) {
			t.Fatal("T=0 noise must preserve hint keys")
		}
	}
	// The output must own its dictionary.
	out.Dict.InternKey("zz=1")
	if _, ok := base.Dict.Lookup(hint.Make("zz", "1")); ok {
		t.Error("output dictionary aliases the input's")
	}
}

func TestWithNoiseExtendsHintSets(t *testing.T) {
	base := buildTrace("base", 500, 3)
	baseHints := base.Stats().DistinctHints
	out, err := WithNoise(base, DefaultNoise(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	s := out.Stats()
	if s.DistinctHints <= baseHints {
		t.Errorf("noise did not increase distinct hint sets: %d -> %d", baseHints, s.DistinctHints)
	}
	for i, r := range out.Reqs {
		set := out.Dict.Set(r.Hint)
		if _, ok := set.Value("noise0"); !ok {
			t.Fatalf("request %d missing noise0 hint: %v", i, set)
		}
		if _, ok := set.Value("noise1"); !ok {
			t.Fatalf("request %d missing noise1 hint: %v", i, set)
		}
		// Page, op, client must be untouched.
		if r.Page != base.Reqs[i].Page || r.Op != base.Reqs[i].Op {
			t.Fatal("noise injection altered the request stream")
		}
	}
}

// serialWithNoise is the straightforward one-pass rewrite over the request
// slice; WithNoise must reproduce it bit for bit.
func serialWithNoise(t *Trace, cfg NoiseConfig) *Trace {
	out := New(fmt.Sprintf("%s+noise%d", t.Name, cfg.Types), t.PageSize)
	out.Clients = append([]string(nil), t.Clients...)
	out.Reqs = make([]Request, len(t.Reqs))
	rng := randx.New(cfg.Seed)
	zipf := randx.NewZipf(rng, cfg.Domain, cfg.ZipfS)
	baseSets := make([]hint.Set, t.Dict.Len())
	for id, key := range t.Dict.Keys() {
		s, err := hint.Parse(key)
		if err != nil {
			panic(err)
		}
		baseSets[id] = s
	}
	names := make([]string, cfg.Types)
	for j := range names {
		names[j] = fmt.Sprintf("noise%d", j)
	}
	vals := make([]string, cfg.Types)
	for i, r := range t.Reqs {
		for j := 0; j < cfg.Types; j++ {
			vals[j] = fmt.Sprintf("v%d", zipf.Next())
		}
		s := baseSets[r.Hint]
		ext := make(hint.Set, 0, len(s)+cfg.Types)
		ext = append(ext, s...)
		for j := 0; j < cfg.Types; j++ {
			ext = append(ext, hint.Field{Type: names[j], Value: vals[j]})
		}
		r.Hint = out.Dict.Intern(ext)
		out.Reqs[i] = r
	}
	return out
}

// TestWithNoiseMatchesSerial checks WithNoise against the serial reference,
// dictionary ID assignment order included.
func TestWithNoiseMatchesSerial(t *testing.T) {
	base := buildTrace("big", 50000, 5)
	cfg := NoiseConfig{Types: 2, Domain: 6, ZipfS: 1, Seed: 99}
	got, err := WithNoise(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serialWithNoise(base, cfg)
	if got.Len() != want.Len() {
		t.Fatalf("length %d, want %d", got.Len(), want.Len())
	}
	for i := range got.Reqs {
		if got.Reqs[i] != want.Reqs[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got.Reqs[i], want.Reqs[i])
		}
	}
	gk, wk := got.Dict.Keys(), want.Dict.Keys()
	if len(gk) != len(wk) {
		t.Fatalf("dictionary has %d keys, want %d", len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("dictionary key %d = %q, want %q (ID assignment order diverged)", i, gk[i], wk[i])
		}
	}
}

func TestWithNoiseDeterministic(t *testing.T) {
	base := buildTrace("base", 400, 3)
	a, err := WithNoise(base, DefaultNoise(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := WithNoise(base, DefaultNoise(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Reqs {
		if a.Dict.Key(a.Reqs[i].Hint) != b.Dict.Key(b.Reqs[i].Hint) {
			t.Fatal("same seed must give identical noise")
		}
	}
	c, err := WithNoise(base, DefaultNoise(3, 12))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Reqs {
		if a.Dict.Key(a.Reqs[i].Hint) != c.Dict.Key(c.Reqs[i].Hint) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical noise")
	}
}

func TestWithNoiseBadConfig(t *testing.T) {
	base := buildTrace("base", 10, 3)
	if _, err := WithNoise(base, NoiseConfig{Types: -1, Domain: 10}); err == nil {
		t.Error("negative Types should error")
	}
	if _, err := WithNoise(base, NoiseConfig{Types: 1, Domain: 0}); err == nil {
		t.Error("zero Domain should error")
	}
}

// TestNoiseDilutionQuick property-tests that T noise types over domain D
// never produce more than baseHints * D^T distinct hint sets.
func TestNoiseDilutionQuick(t *testing.T) {
	f := func(seed int64, tRaw uint8) bool {
		T := int(tRaw % 3)
		base := buildTrace("b", 200, seed)
		out, err := WithNoise(base, NoiseConfig{Types: T, Domain: 4, ZipfS: 1, Seed: seed})
		if err != nil {
			return false
		}
		bound := base.Stats().DistinctHints
		for i := 0; i < T; i++ {
			bound *= 4
		}
		return out.Stats().DistinctHints <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndClients(t *testing.T) {
	tr := New("solo", 512)
	if len(tr.Clients) != 1 || tr.Clients[0] != "solo" {
		t.Errorf("Clients = %v", tr.Clients)
	}
	h := tr.Dict.Intern(hint.Make("k", "v"))
	tr.Append(42, Write, h)
	if tr.Len() != 1 || tr.Reqs[0].Page != 42 || tr.Reqs[0].Op != Write {
		t.Errorf("Append stored %+v", tr.Reqs[0])
	}
}

func TestInterleaveTooManyClients(t *testing.T) {
	traces := make([]*Trace, 257)
	for i := range traces {
		traces[i] = buildTrace(fmt.Sprintf("t%d", i), 1, int64(i))
	}
	if _, err := Interleave("m", traces...); err == nil {
		t.Error("more than 256 clients should error")
	}
}

// TestInterleaveIsMergeOfShortest pins Interleave to Merge: interleaving
// inputs of unequal length is Merge over the inputs cut to the shortest,
// request for request and hint ID for hint ID, with client i's pages in the
// i-th region.
func TestInterleaveIsMergeOfShortest(t *testing.T) {
	a, b, c := buildTrace("A", 300, 1), buildTrace("B", 170, 2), buildTrace("C", 240, 3)
	got, err := Interleave("M", a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	want := New("M", 4096)
	want.Clients = []string{"A", "B", "C"}
	its := []Iterator{a.Truncate(170).Iter(), b.Iter(), c.Truncate(170).Iter()}
	if err := Merge(want, want.Clients, its); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3*170 || !slices.Equal(got.Reqs, want.Reqs) ||
		!slices.Equal(got.Dict.Keys(), want.Dict.Keys()) || !slices.Equal(got.Clients, want.Clients) {
		t.Fatalf("Interleave (%d requests, dict %v) differs from Merge of the cut inputs (%d requests, dict %v)",
			got.Len(), got.Dict.Keys(), want.Len(), want.Dict.Keys())
	}
	for i, r := range got.Reqs {
		if src := []*Trace{a, b, c}[r.Client].Reqs[i/3]; r.Page != uint64(r.Client)<<44|src.Page {
			t.Fatalf("request %d: page %#x, want client %d's page %d in region %d", i, r.Page, r.Client, src.Page, r.Client)
		}
	}
}

// TestMergeTooManyClients: client IDs are one byte, so Merge refuses a
// 257th input instead of wrapping its ID onto client 0.
func TestMergeTooManyClients(t *testing.T) {
	names := make([]string, 257)
	its := make([]Iterator, 257)
	for i := range its {
		names[i] = fmt.Sprintf("t%d", i)
		its[i] = buildTrace(names[i], 1, int64(i)).Iter()
	}
	out := New("m", 4096)
	if err := Merge(out, names, its); err == nil {
		t.Error("Merge over 257 clients should error")
	}
	if out.Len() != 0 {
		t.Errorf("Merge appended %d requests before refusing", out.Len())
	}
}
