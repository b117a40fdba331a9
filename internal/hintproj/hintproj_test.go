package hintproj

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/sim"
	"repro/internal/trace"
)

// signalTrace builds a trace where the "kind" hint type perfectly predicts
// caching value (kind=hot pages re-read quickly, kind=cold never) and the
// "junk" hint type is uniform noise.
func signalTrace(seed int64, n int) *trace.Trace {
	t := trace.New("signal", 4096)
	rng := rand.New(rand.NewSource(seed))
	ids := make(map[string]hint.ID)
	get := func(kind, junk string) hint.ID {
		key := kind + "/" + junk
		if id, ok := ids[key]; ok {
			return id
		}
		id := t.Dict.Intern(hint.Make("kind", kind, "junk", junk))
		ids[key] = id
		return id
	}
	coldPage := uint64(10_000)
	for t.Len() < n {
		junk := string(rune('a' + rng.Intn(8)))
		if rng.Intn(2) == 0 {
			p := uint64(rng.Intn(64))
			t.Append(p, trace.Write, get("hot", junk))
			t.Append(p, trace.Read, get("hot", junk))
		} else {
			t.Append(coldPage, trace.Write, get("cold", junk))
			coldPage++
		}
	}
	return t
}

func TestAnalyzeScoresSignalAboveNoise(t *testing.T) {
	tr := signalTrace(1, 40000)
	a := Analyze(tr, 128, 0)
	if len(a.Scores) != 2 {
		t.Fatalf("scores for %d types, want 2", len(a.Scores))
	}
	if a.Scores[0].Type != "kind" {
		t.Fatalf("top type = %q, want kind (scores: %+v)", a.Scores[0].Type, a.Scores)
	}
	if a.Scores[0].Score <= a.Scores[1].Score {
		t.Errorf("signal score %v not above noise score %v", a.Scores[0].Score, a.Scores[1].Score)
	}
	// Field stats must include both kind values with hot >> cold priority.
	var hot, cold FieldStat
	for _, f := range a.Fields {
		switch f.Field {
		case hint.Field{Type: "kind", Value: "hot"}:
			hot = f
		case hint.Field{Type: "kind", Value: "cold"}:
			cold = f
		}
	}
	if hot.Pr <= cold.Pr {
		t.Errorf("hot Pr %v <= cold Pr %v", hot.Pr, cold.Pr)
	}
}

func TestSelectTypes(t *testing.T) {
	a := Analysis{Scores: []TypeScore{
		{Type: "x", Score: 3},
		{Type: "y", Score: 1},
		{Type: "z", Score: 0},
	}}
	if got := a.SelectTypes(5); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("SelectTypes(5) = %v", got)
	}
	if got := a.SelectTypes(1); len(got) != 1 || got[0] != "x" {
		t.Errorf("SelectTypes(1) = %v", got)
	}
}

func TestProjectCollapsesHintSpace(t *testing.T) {
	tr := signalTrace(2, 20000)
	before := tr.Stats().DistinctHints
	proj := Project(tr, []string{"kind"})
	after := proj.Stats().DistinctHints
	if after >= before {
		t.Fatalf("projection did not shrink hint space: %d -> %d", before, after)
	}
	if after != 2 {
		t.Errorf("projected hint sets = %d, want 2 (hot/cold)", after)
	}
	// Pages, ops, clients unchanged.
	for i := range tr.Reqs {
		if tr.Reqs[i].Page != proj.Reqs[i].Page || tr.Reqs[i].Op != proj.Reqs[i].Op {
			t.Fatal("projection altered the request stream")
		}
	}
	// Original untouched.
	if tr.Stats().DistinctHints != before {
		t.Error("Project mutated its input")
	}
}

func TestGeneralizeRestoresNoiseRobustness(t *testing.T) {
	// This is the §8 claim, tested end to end: dilute a trace with noise
	// hint types, then show that generalization recovers (almost all of)
	// the clean-trace hit ratio under a small top-k budget.
	base := signalTrace(3, 60000)
	noisy, err := trace.WithNoise(base, trace.DefaultNoise(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *trace.Trace) float64 {
		cfg := core.Config{Capacity: sim.ClicCapacity(128), Window: 10000, TopK: 4}
		return sim.Run(core.New(cfg), tr).HitRatio()
	}
	clean := run(base)
	diluted := run(noisy)
	generalized, types := Generalize(noisy, 128, 20000, 2)
	recovered := run(generalized)

	if clean <= 0.5 {
		t.Fatalf("degenerate baseline: %v", clean)
	}
	if len(types) == 0 || types[0] != "kind" {
		t.Fatalf("generalization selected %v, want kind first", types)
	}
	if recovered < clean*0.9 {
		t.Errorf("generalized hit ratio %.3f did not recover the clean %.3f (diluted: %.3f)",
			recovered, clean, diluted)
	}
}

func TestGeneralizeNoSignal(t *testing.T) {
	// A trace whose hints carry no information: Generalize must fall back
	// to the original trace rather than collapsing the hint space.
	tr := trace.New("flat", 4096)
	h := tr.Dict.Intern(hint.Make("only", "value"))
	for p := uint64(0); p < 1000; p++ {
		tr.Append(p, trace.Write, h) // never re-read: all priorities zero
	}
	out, types := Generalize(tr, 16, 0, 3)
	if out != tr || types != nil {
		t.Errorf("expected passthrough, got types %v", types)
	}
}

// TestProjectStreamMatchesProject pins Project to the chunked parallel
// rewrite it replaced (refProject): same requests, same dictionary, same
// IDs.
func TestProjectStreamMatchesProject(t *testing.T) {
	tr := signalTrace(3, 20000)
	types := []string{"kind"}
	want := refProject(tr, types)
	got := Project(tr, types)
	if got.Len() != want.Len() || got.Dict.Len() != want.Dict.Len() {
		t.Fatalf("len %d/%d, dict %d/%d", got.Len(), want.Len(), got.Dict.Len(), want.Dict.Len())
	}
	for i := range want.Reqs {
		if got.Reqs[i] != want.Reqs[i] {
			t.Fatalf("request %d: %+v vs %+v", i, got.Reqs[i], want.Reqs[i])
		}
	}
	for id := 0; id < want.Dict.Len(); id++ {
		if got.Dict.Key(hint.ID(id)) != want.Dict.Key(hint.ID(id)) {
			t.Fatalf("hint %d: %q vs %q", id, got.Dict.Key(hint.ID(id)), want.Dict.Key(hint.ID(id)))
		}
	}
}
