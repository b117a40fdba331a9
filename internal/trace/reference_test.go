package trace

// The chunked parallel noise injection that WithNoise was before it became
// a serial rewrite, kept verbatim (names prefixed "ref") as the oracle
// TestStreamNoiseMatchesWithNoise holds WithNoise to.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/hint"
	"repro/internal/randx"
)

// refNoiseChunk is the fixed request count per parallel work unit. Fixing it
// (instead of dividing by GOMAXPROCS) keeps the output independent of the
// machine: chunk boundaries, and therefore hint-set first-occurrence order,
// never move.
const refNoiseChunk = 1 << 16

// refWithNoise returns a new trace in which every request's hint set has been
// extended with cfg.Types synthetic hint types. Each injected value is drawn
// independently from a Zipf(cfg.ZipfS) distribution over cfg.Domain values,
// as in §6.3; the injected hints therefore carry no information useful to
// the server cache. The input trace is not modified.
//
// The request rewrite fans out across GOMAXPROCS (it was the serial
// bottleneck of cmd/experiments' noise figures): the dispatcher makes the
// Zipf draws serially, one fixed-size chunk at a time, workers extend each
// chunk's hint sets into chunk-local dictionaries in parallel, and a
// serial merge re-interns the chunk dictionaries in order. Extra memory is
// bounded by the chunks in flight (workers × chunk × Types draws), and the
// output — request sequence, dictionary keys and IDs — is bit-identical to
// the serial rewrite at any core count.
func refWithNoise(t *Trace, cfg NoiseConfig) (*Trace, error) {
	if cfg.Types < 0 || cfg.Domain <= 0 {
		return nil, fmt.Errorf("trace: invalid noise config %+v", cfg)
	}
	out := New(fmt.Sprintf("%s+noise%d", t.Name, cfg.Types), t.PageSize)
	out.Clients = append([]string(nil), t.Clients...)
	out.Reqs = make([]Request, len(t.Reqs))
	if cfg.Types == 0 {
		// Still re-intern so the output owns an independent dictionary.
		remap := make([]hint.ID, t.Dict.Len())
		for id, key := range t.Dict.Keys() {
			remap[id] = out.Dict.InternKey(key)
		}
		for i, r := range t.Reqs {
			r.Hint = remap[r.Hint]
			out.Reqs[i] = r
		}
		return out, nil
	}

	// Serial prologue: decode the base hint sets and precompute the
	// synthetic field strings.
	rng := randx.New(cfg.Seed)
	zipf := randx.NewZipf(rng, cfg.Domain, cfg.ZipfS)
	baseSets := make([]hint.Set, t.Dict.Len())
	for id, key := range t.Dict.Keys() {
		s, err := hint.Parse(key)
		if err != nil {
			return nil, fmt.Errorf("trace: noise injection on %q: %w", t.Name, err)
		}
		baseSets[id] = s
	}
	names := make([]string, cfg.Types)
	for j := range names {
		names[j] = fmt.Sprintf("noise%d", j)
	}
	valStrs := make([]string, cfg.Domain)
	for v := range valStrs {
		valStrs[v] = fmt.Sprintf("v%d", v)
	}

	// Parallel rewrite: the dispatcher draws each chunk's Zipf values in
	// request order (randomness stays serial, memory stays bounded by the
	// chunks in flight), and each worker extends its chunk's hint sets
	// into a chunk-local dictionary, storing local IDs in out.Reqs.
	type chunkWork struct {
		ci    int
		draws []int32 // (hi-lo)*Types values, in request-major order
	}
	nChunks := (len(t.Reqs) + refNoiseChunk - 1) / refNoiseChunk
	locals := make([]*hint.Dict, nChunks)
	var wg sync.WaitGroup
	ch := make(chan chunkWork)
	workers := runtime.GOMAXPROCS(0)
	if workers > nChunks {
		workers = nChunks
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for work := range ch {
				local := hint.NewDict()
				lo, hi := work.ci*refNoiseChunk, (work.ci+1)*refNoiseChunk
				if hi > len(t.Reqs) {
					hi = len(t.Reqs)
				}
				for i := lo; i < hi; i++ {
					r := t.Reqs[i]
					s := baseSets[r.Hint]
					ext := make(hint.Set, 0, len(s)+cfg.Types)
					ext = append(ext, s...)
					for j := 0; j < cfg.Types; j++ {
						ext = append(ext, hint.Field{Type: names[j], Value: valStrs[work.draws[(i-lo)*cfg.Types+j]]})
					}
					r.Hint = local.Intern(ext)
					out.Reqs[i] = r
				}
				locals[work.ci] = local
			}
		}()
	}
	for ci := 0; ci < nChunks; ci++ {
		lo, hi := ci*refNoiseChunk, (ci+1)*refNoiseChunk
		if hi > len(t.Reqs) {
			hi = len(t.Reqs)
		}
		draws := make([]int32, (hi-lo)*cfg.Types)
		for i := range draws {
			draws[i] = int32(zipf.Next())
		}
		ch <- chunkWork{ci: ci, draws: draws}
	}
	close(ch)
	wg.Wait()

	// Serial merge: interning each chunk's keys in chunk order assigns the
	// output dictionary IDs in global first-occurrence order — the order
	// the serial loop would have produced.
	for ci, local := range locals {
		remap := make([]hint.ID, local.Len())
		for id, key := range local.Keys() {
			remap[id] = out.Dict.InternKey(key)
		}
		lo, hi := ci*refNoiseChunk, (ci+1)*refNoiseChunk
		if hi > len(t.Reqs) {
			hi = len(t.Reqs)
		}
		for i := lo; i < hi; i++ {
			out.Reqs[i].Hint = remap[out.Reqs[i].Hint]
		}
	}
	return out, nil
}
