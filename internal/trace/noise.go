package trace

import (
	"fmt"

	"repro/internal/hint"
	"repro/internal/randx"
)

// NoiseConfig parameterises synthetic useless-hint injection (paper §6.3).
type NoiseConfig struct {
	// Types is T, the number of synthetic hint types to append to every
	// request's hint set.
	Types int
	// Domain is D, the number of possible values per synthetic type
	// (paper: D = 10).
	Domain int
	// ZipfS is the skew of the value distribution (paper: z = 1).
	ZipfS float64
	// Seed drives the injection deterministically.
	Seed int64
}

// DefaultNoise returns the paper's §6.3 configuration for a given T.
func DefaultNoise(t int, seed int64) NoiseConfig {
	return NoiseConfig{Types: t, Domain: 10, ZipfS: 1, Seed: seed}
}

// WithNoise returns a new trace in which every request's hint set has been
// extended with cfg.Types synthetic hint types: StreamNoise over the trace's
// requests into a fresh trace. The input trace is not modified.
func WithNoise(t *Trace, cfg NoiseConfig) (*Trace, error) {
	out := New(fmt.Sprintf("%s+noise%d", t.Name, cfg.Types), t.PageSize)
	out.Clients = append([]string(nil), t.Clients...)
	out.Reqs = make([]Request, 0, len(t.Reqs))
	if err := StreamNoise(t.Iter(), out, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// StreamNoise pipes requests from it into sink, extending every hint set
// with cfg.Types synthetic hint types. Each injected value is drawn
// independently from a Zipf(cfg.ZipfS) distribution over cfg.Domain values,
// as in §6.3; the injected hints therefore carry no information useful to
// the server cache. Values are drawn in request order and extended hint
// sets are interned in first-occurrence order, so the output is a pure
// function of the input stream and cfg. The trace is never held in memory:
// scanner→transform→writer runs in bounded space at any trace length.
//
// With cfg.Types == 0 every input dictionary key is re-interned in ID order
// as it becomes visible, so the output owns an equal, independent
// dictionary.
func StreamNoise(it Iterator, sink Sink, cfg NoiseConfig) error {
	if cfg.Types < 0 || cfg.Domain <= 0 {
		return fmt.Errorf("trace: invalid noise config %+v", cfg)
	}
	inDict, outDict := it.HintDict(), sink.HintDict()

	if cfg.Types == 0 {
		var remap []hint.ID
		sync := func() {
			for id := len(remap); id < inDict.Len(); id++ {
				remap = append(remap, outDict.InternKey(inDict.Key(hint.ID(id))))
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
		return Err(sink)
	}

	rng := randx.New(cfg.Seed)
	zipf := randx.NewZipf(rng, cfg.Domain, cfg.ZipfS)
	names := make([]string, cfg.Types)
	for j := range names {
		names[j] = fmt.Sprintf("noise%d", j)
	}
	valStrs := make([]string, cfg.Domain)
	for v := range valStrs {
		valStrs[v] = fmt.Sprintf("v%d", v)
	}

	var baseSets []hint.Set
	ext := make(hint.Set, 0, 8+cfg.Types)
	for run := it.Next(); len(run) > 0; run = it.Next() {
		for id := len(baseSets); id < inDict.Len(); id++ {
			s, err := hint.Parse(inDict.Key(hint.ID(id)))
			if err != nil {
				return fmt.Errorf("trace: noise injection on %q: %w", it.Name(), err)
			}
			baseSets = append(baseSets, s)
		}
		for _, r := range run {
			ext = append(ext[:0], baseSets[r.Hint]...)
			for j := 0; j < cfg.Types; j++ {
				ext = append(ext, hint.Field{Type: names[j], Value: valStrs[zipf.Next()]})
			}
			r.Hint = outDict.Intern(ext)
			sink.AppendReq(r)
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return Err(sink)
}
