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
// extended with cfg.Types synthetic hint types. Each injected value is drawn
// independently from a Zipf(cfg.ZipfS) distribution over cfg.Domain values,
// as in §6.3; the injected hints therefore carry no information useful to
// the server cache. Values are drawn in request order and extended hint
// sets are interned in first-occurrence order, so the output is a pure
// function of the input trace and cfg. The input trace is not modified.
//
// With cfg.Types == 0 every input dictionary key is re-interned in ID order,
// so the output owns an equal, independent dictionary.
func WithNoise(t *Trace, cfg NoiseConfig) (*Trace, error) {
	if cfg.Types < 0 || cfg.Domain <= 0 {
		return nil, fmt.Errorf("trace: invalid noise config %+v", cfg)
	}
	out := New(fmt.Sprintf("%s+noise%d", t.Name, cfg.Types), t.PageSize)
	out.Clients = append([]string(nil), t.Clients...)
	out.Reqs = make([]Request, len(t.Reqs))

	if cfg.Types == 0 {
		remap := make([]hint.ID, t.Dict.Len())
		for id := range remap {
			remap[id] = out.Dict.InternKey(t.Dict.Key(hint.ID(id)))
		}
		for i, r := range t.Reqs {
			r.Hint = remap[r.Hint]
			out.Reqs[i] = r
		}
		return out, nil
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
	baseSets := make([]hint.Set, t.Dict.Len())
	for id := range baseSets {
		s, err := hint.Parse(t.Dict.Key(hint.ID(id)))
		if err != nil {
			return nil, fmt.Errorf("trace: noise injection on %q: %w", t.Name, err)
		}
		baseSets[id] = s
	}

	ext := make(hint.Set, 0, 8+cfg.Types)
	for i, r := range t.Reqs {
		ext = append(ext[:0], baseSets[r.Hint]...)
		for j := 0; j < cfg.Types; j++ {
			ext = append(ext, hint.Field{Type: names[j], Value: valStrs[zipf.Next()]})
		}
		r.Hint = out.Dict.Intern(ext)
		out.Reqs[i] = r
	}
	return out, nil
}
