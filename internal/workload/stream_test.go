package workload

import (
	"bytes"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
)

// requireTracesIdentical asserts byte-level equality: same requests in the
// same order, same dictionary with the same IDs, same clients.
func requireTracesIdentical(t *testing.T, label string, got, want *trace.Trace) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d requests, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Reqs {
		if got.Reqs[i] != want.Reqs[i] {
			t.Fatalf("%s: request %d: %+v, want %+v", label, i, got.Reqs[i], want.Reqs[i])
		}
	}
	if got.Dict.Len() != want.Dict.Len() {
		t.Fatalf("%s: dict sizes %d vs %d", label, got.Dict.Len(), want.Dict.Len())
	}
	for id := 0; id < want.Dict.Len(); id++ {
		if got.Dict.Key(hint.ID(id)) != want.Dict.Key(hint.ID(id)) {
			t.Fatalf("%s: hint %d: %q vs %q", label, id, got.Dict.Key(hint.ID(id)), want.Dict.Key(hint.ID(id)))
		}
	}
	if len(got.Clients) != len(want.Clients) {
		t.Fatalf("%s: clients %v vs %v", label, got.Clients, want.Clients)
	}
	for i := range want.Clients {
		if got.Clients[i] != want.Clients[i] {
			t.Fatalf("%s: client %d: %q vs %q", label, i, got.Clients[i], want.Clients[i])
		}
	}
}

// TestStreamedGenerationBitIdentical is the golden test of the streaming
// pipeline: for every preset at its pinned seed, generating through the v2
// streaming writer (serial and parallel encoders) and scanning the bytes
// back yields exactly the in-RAM Generate output.
func TestStreamedGenerationBitIdentical(t *testing.T) {
	for _, base := range Presets() {
		p := base
		p.Requests = 20000
		t.Run(p.Name, func(t *testing.T) {
			want, err := Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				var buf bytes.Buffer
				w := trace.NewWriter(&buf, p.Name, p.PageSize, []string{p.Name},
					trace.WriterOptions{BlockSize: 1024, Workers: workers})
				if err := GenerateTo(p, w); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				sc, err := trace.NewScanner(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := trace.Collect(sc)
				if err != nil {
					t.Fatal(err)
				}
				requireTracesIdentical(t, p.Name, got, want)
			}
		})
	}
}

// serialTrace is the serial reference for multi-client specs: generate each
// client in memory, one after another, then run trace.Merge over the
// in-memory iterators. Spec.Trace generates the clients in parallel; this is
// what its bytes must equal.
func serialTrace(s Spec) (*trace.Trace, error) {
	presets := s.clientPresets()
	its := make([]trace.Iterator, len(presets))
	for i, p := range presets {
		t, err := Generate(p)
		if err != nil {
			return nil, err
		}
		its[i] = t.Iter()
	}
	out := trace.New(s.Preset.Name, s.Preset.PageSize)
	out.Clients = s.ClientNames()
	if err := trace.Merge(out, out.Clients, its); err != nil {
		return nil, err
	}
	return out, out.Validate()
}

// serialSpecs are the multi-client specs the parallel paths are held to the
// serial reference on: 2 and 3 clients, a DB2 and a MySQL preset.
func serialSpecs(t *testing.T) []Spec {
	return []Spec{
		{Preset: smallPreset(t, "DB2_C60", 30000), Clients: 2},
		{Preset: smallPreset(t, "DB2_C60", 30000), Clients: 3},
		{Preset: smallPreset(t, "MY_H65", 24000), Clients: 2},
		{Preset: smallPreset(t, "MY_H65", 24000), Clients: 3},
	}
}

// TestSpecParallelMatchesSerial pins the multi-client merge: the concurrent
// pipe-fed generation, streamed (GenerateTo) and in memory (Trace), must be
// bit-identical to the serial reference, run to run and regardless of
// scheduling.
func TestSpecParallelMatchesSerial(t *testing.T) {
	for _, spec := range serialSpecs(t) {
		want, err := serialTrace(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Clients) != spec.Clients || want.Len() != spec.Preset.Requests {
			t.Fatalf("%s: reference trace: %d clients, %d requests", spec, len(want.Clients), want.Len())
		}
		// Run the parallel paths several times to shake scheduling.
		for round := 0; round < 3; round++ {
			got := trace.New(spec.Preset.Name, spec.Preset.PageSize)
			got.Clients = spec.ClientNames()
			if err := spec.GenerateTo(got); err != nil {
				t.Fatal(err)
			}
			requireTracesIdentical(t, spec.String()+" GenerateTo", got, want)
			if got, err = spec.Trace(); err != nil {
				t.Fatal(err)
			}
			requireTracesIdentical(t, spec.String()+" Trace", got, want)
		}
	}
}

// TestSpecSingleClientMatchesGenerate checks the degenerate spec reproduces
// plain Generate exactly.
func TestSpecSingleClientMatchesGenerate(t *testing.T) {
	p := smallPreset(t, "MY_H65", 15000)
	want, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Spec{Preset: p, Clients: 1}.Trace()
	if err != nil {
		t.Fatal(err)
	}
	requireTracesIdentical(t, "single-client spec", got, want)
}

// TestSpecSource checks the Source adapter streams the serial reference's
// requests.
func TestSpecSource(t *testing.T) {
	for _, spec := range serialSpecs(t) {
		want, err := serialTrace(spec)
		if err != nil {
			t.Fatal(err)
		}
		src := spec.Source()
		if src.Label() != spec.String() {
			t.Fatalf("label = %q, want %q", src.Label(), spec.String())
		}
		it, err := src.Iter()
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.Collect(it)
		it.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireTracesIdentical(t, spec.String()+" source", got, want)
	}
	if label := (Spec{Preset: smallPreset(t, "DB2_H80", 12000), Clients: 2}).Source().Label(); label != "DB2_H80*2:12000" {
		t.Fatalf("label = %q", label)
	}
}

// TestSpecPagesDisjoint checks the private page regions and client tags.
func TestSpecPagesDisjoint(t *testing.T) {
	spec := Spec{Preset: smallPreset(t, "DB2_C60", 9000), Clients: 3}
	tr, err := spec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Reqs {
		if region := r.Page >> 44; region != uint64(r.Client) {
			t.Fatalf("request %d: page %d in region %d but client %d", i, r.Page, region, r.Client)
		}
	}
	// Hints must be namespaced per client.
	for id := 0; id < tr.Dict.Len(); id++ {
		set, err := hint.Parse(tr.Dict.Key(hint.ID(id)))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range set {
			if !hasClientPrefix(f.Type, tr.Clients) {
				t.Fatalf("hint type %q not namespaced by any client", f.Type)
			}
		}
	}
}

func hasClientPrefix(typ string, clients []string) bool {
	for _, c := range clients {
		if len(typ) > len(c) && typ[:len(c)] == c && typ[len(c)] == '/' {
			return true
		}
	}
	return false
}

// TestParseSpec covers the NAME[*clients][:requests][@seed] grammar.
func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("DB2_C60*4:1000000@7")
	if err != nil {
		t.Fatal(err)
	}
	if s.Preset.Name != "DB2_C60" || s.Clients != 4 || s.Preset.Requests != 1000000 || s.Preset.Seed != 7 {
		t.Fatalf("parsed %+v", s)
	}
	if s.String() != "DB2_C60*4:1000000@7" {
		t.Fatalf("String() = %q", s.String())
	}
	s, err = ParseSpec("MY_H98")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := PresetByName("MY_H98")
	if s.Clients != 1 || s.Preset.Requests != base.Requests || s.Preset.Seed != base.Seed {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range []string{"", "NOPE", "DB2_C60*0", "DB2_C60:-5", "DB2_C60@x", "DB2_C60*999"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

// TestSplitSeedDistinct checks child seeds don't collide over a wide range.
func TestSplitSeedDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		s := SplitSeed(10601, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between children %d and %d", i, j)
		}
		seen[s] = i
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different bases produced the same child seed")
	}
}

// BenchmarkSpecTrace prices generating a two-client TPC-C spec, the shape
// of the repository benchmark's input, at a fifth of its length.
func BenchmarkSpecTrace(b *testing.B) {
	s, err := ParseSpec("DB2_C60*2:200000@7")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tr, err := s.Trace()
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Reqs) != s.Preset.Requests {
			b.Fatalf("%d requests, want %d", len(tr.Reqs), s.Preset.Requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Preset.Requests), "ns/request")
}
