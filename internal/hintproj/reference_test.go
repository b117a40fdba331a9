package hintproj

// The chunked parallel projection that Project was before it became a
// serial rewrite, kept verbatim (renamed refProject) as the oracle
// TestProjectStreamMatchesProject holds Project to.

import (
	"runtime"
	"sync"

	"repro/internal/hint"
	"repro/internal/trace"
)

// refProject rewrites the trace so every hint set keeps only the given types
// (in their original field order). Hint sets that collapse to the same
// projection share one interned ID, shrinking the hint-set space the
// server must track. The input trace is not modified.
//
// The remap table is built serially (it is dictionary-sized); the
// request-stream rewrite, which dominates on long traces, fans out across
// GOMAXPROCS. Chunking cannot change the output — the rewrite is a pure
// per-request table lookup — so Project stays deterministic.
func refProject(t *trace.Trace, types []string) *trace.Trace {
	keep := make(map[string]bool, len(types))
	for _, typ := range types {
		keep[typ] = true
	}
	out := trace.New(t.Name+"+proj", t.PageSize)
	out.Clients = append([]string(nil), t.Clients...)
	out.Reqs = make([]trace.Request, len(t.Reqs))

	remap := make([]hint.ID, t.Dict.Len())
	for id, key := range t.Dict.Keys() {
		set, err := hint.Parse(key)
		if err != nil {
			// Dictionary keys are canonical by construction; a parse error
			// means corruption, and projecting to the empty set is the
			// safest degradation.
			remap[id] = out.Dict.Intern(nil)
			continue
		}
		proj := make(hint.Set, 0, len(types))
		for _, f := range set {
			if keep[f.Type] {
				proj = append(proj, f)
			}
		}
		remap[id] = out.Dict.Intern(proj)
	}

	workers := runtime.GOMAXPROCS(0)
	chunk := (len(t.Reqs) + workers - 1) / workers
	if chunk < 1 {
		return out
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(t.Reqs); lo += chunk {
		hi := lo + chunk
		if hi > len(t.Reqs) {
			hi = len(t.Reqs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				r := t.Reqs[i]
				r.Hint = remap[r.Hint]
				out.Reqs[i] = r
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
