// Package hintproj implements the hint-set generalization the paper leaves
// as future work (§8): "grouping related hint sets together into a common
// class" so that CLIC keeps working when clients supply many low-value
// hint types (the §6.3 dilution problem).
//
// The approach is a one-level decision-tree analysis over hint *types*:
//
//  1. Run a sampling pass that gathers CLIC's own per-hint-set statistics
//     (N, Nr, D) over a prefix of the request stream.
//  2. For every (type=value) pair, aggregate the statistics of the hint
//     sets carrying it, and compute the pair's standalone priority.
//  3. Score each hint type by the N-weighted variance of priority across
//     its values: a type whose values all predict the same priority (a
//     noise type) scores ~0; a type that separates good from bad caching
//     candidates (e.g. "reqtype") scores high.
//  4. Keep the top-scoring types and project every hint set onto them,
//     collapsing the hint-set space from the product of all domains to
//     the product of the informative ones.
//
// The projected trace is then served by an unmodified CLIC cache, so the
// extension composes with the frequency-based top-k mechanism exactly as
// §8 anticipates.
package hintproj

import (
	"sort"

	"repro/internal/clicstats"
	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/trace"
)

// FieldStat aggregates hint statistics for a single (type, value) pair.
type FieldStat struct {
	Field hint.Field
	N     uint64
	Nr    uint64
	Dsum  float64
	Pr    float64 // standalone priority of the pair (Equation 2)
}

// TypeScore is the informativeness score of one hint type.
type TypeScore struct {
	Type  string
	Score float64 // N-weighted variance of Pr across the type's values
}

// Analysis is the result of a sampling pass.
type Analysis struct {
	Fields []FieldStat
	Scores []TypeScore // descending
}

// Analyze runs a CLIC statistics pass over the first sampleLen requests of
// the trace (capacity pages, outqueue at the usual 5×) and scores every
// hint type. sampleLen <= 0 samples the whole trace.
func Analyze(t *trace.Trace, capacity, sampleLen int) Analysis {
	if sampleLen <= 0 || sampleLen > t.Len() {
		sampleLen = t.Len()
	}
	c := core.New(core.Config{Capacity: capacity, Window: sampleLen + 1})
	for _, r := range t.Reqs[:sampleLen] {
		c.Access(r)
	}

	// Aggregate per (type, value) over the full hint-set statistics.
	type agg struct {
		n    uint64
		nr   uint64
		dsum float64
	}
	fields := make(map[hint.Field]*agg)
	for _, hs := range c.WindowStats() {
		set := t.Dict.Set(hs.Hint)
		for _, f := range set {
			a, ok := fields[f]
			if !ok {
				a = &agg{}
				fields[f] = a
			}
			a.n += hs.N
			a.nr += hs.Nr
			a.dsum += hs.D * float64(hs.Nr)
		}
	}

	var out Analysis
	byType := make(map[string][]FieldStat)
	for f, a := range fields {
		fs := FieldStat{Field: f, N: a.n, Nr: a.nr, Dsum: a.dsum}
		fs.Pr = clicstats.WindowPriority(a.n, a.nr, a.dsum)
		out.Fields = append(out.Fields, fs)
		byType[f.Type] = append(byType[f.Type], fs)
	}
	sort.Slice(out.Fields, func(i, j int) bool {
		if out.Fields[i].Field.Type != out.Fields[j].Field.Type {
			return out.Fields[i].Field.Type < out.Fields[j].Field.Type
		}
		return out.Fields[i].Field.Value < out.Fields[j].Field.Value
	})

	for typ, stats := range byType {
		out.Scores = append(out.Scores, TypeScore{Type: typ, Score: variance(stats)})
	}
	sort.Slice(out.Scores, func(i, j int) bool {
		if out.Scores[i].Score != out.Scores[j].Score {
			return out.Scores[i].Score > out.Scores[j].Score
		}
		return out.Scores[i].Type < out.Scores[j].Type
	})
	return out
}

// variance returns the N-weighted variance of standalone priorities across
// one hint type's values.
func variance(stats []FieldStat) float64 {
	var totalN uint64
	mean := 0.0
	for _, s := range stats {
		totalN += s.N
		mean += float64(s.N) * s.Pr
	}
	if totalN == 0 {
		return 0
	}
	mean /= float64(totalN)
	v := 0.0
	for _, s := range stats {
		d := s.Pr - mean
		v += float64(s.N) * d * d
	}
	return v / float64(totalN)
}

// SelectTypes returns the up-to-maxTypes highest-scoring hint types with a
// strictly positive score.
func (a Analysis) SelectTypes(maxTypes int) []string {
	var out []string
	for _, s := range a.Scores {
		if len(out) >= maxTypes || s.Score <= 0 {
			break
		}
		out = append(out, s.Type)
	}
	return out
}

// Project rewrites the trace so every hint set keeps only the given types
// (in their original field order): ProjectStream over the trace's requests
// into a fresh trace. The input trace is not modified.
func Project(t *trace.Trace, types []string) *trace.Trace {
	out := trace.New(t.Name+"+proj", t.PageSize)
	out.Clients = append([]string(nil), t.Clients...)
	out.Reqs = make([]trace.Request, 0, len(t.Reqs))
	// An in-memory iterator and trace never fail, so neither can the rewrite.
	_ = ProjectStream(t.Iter(), out, types)
	return out
}

// ProjectStream pipes requests from it into sink, keeping only the given
// hint types in every hint set (in their original field order), in bounded
// memory at any trace length. Hint sets that collapse to the same
// projection share one interned ID, shrinking the hint-set space the server
// must track. Projected sets are interned in input dictionary ID order as
// the input dictionary becomes visible, so the output is a pure function of
// the input stream.
func ProjectStream(it trace.Iterator, sink trace.Sink, types []string) error {
	keep := make(map[string]bool, len(types))
	for _, typ := range types {
		keep[typ] = true
	}
	inDict, outDict := it.HintDict(), sink.HintDict()
	var remap []hint.ID
	sync := func() {
		for id := len(remap); id < inDict.Len(); id++ {
			set, err := hint.Parse(inDict.Key(hint.ID(id)))
			if err != nil {
				// Dictionary keys are canonical by construction; a parse
				// error means corruption, and projecting to the empty set
				// is the safest degradation.
				remap = append(remap, outDict.Intern(nil))
				continue
			}
			proj := make(hint.Set, 0, len(types))
			for _, f := range set {
				if keep[f.Type] {
					proj = append(proj, f)
				}
			}
			remap = append(remap, outDict.Intern(proj))
		}
	}
	for run := it.Next(); len(run) > 0; run = it.Next() {
		sync()
		for _, r := range run {
			r.Hint = remap[r.Hint]
			sink.AppendReq(r)
		}
	}
	sync() // trailing dict growth (v2 dict sections after the last block)
	if err := it.Err(); err != nil {
		return err
	}
	return trace.Err(sink)
}

// Generalize is the end-to-end helper: analyze a sample of the trace,
// select the maxTypes most informative hint types, and return the
// projected trace together with the chosen types.
func Generalize(t *trace.Trace, capacity, sampleLen, maxTypes int) (*trace.Trace, []string) {
	analysis := Analyze(t, capacity, sampleLen)
	types := analysis.SelectTypes(maxTypes)
	if len(types) == 0 {
		// Nothing informative found (e.g. a hint-free trace): keep the
		// original hint space rather than collapsing everything to one set.
		return t, nil
	}
	return Project(t, types), types
}
