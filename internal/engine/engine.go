// Package engine runs experiment grids in parallel. Every cell of the
// evaluation grid — one policy instance driven over one trace — is an
// independent, deterministic simulation, so the full policy × cache-size ×
// trace product splits perfectly across cores (parallel splitting of
// independent subproblems). The runner fans cells out over a worker pool
// (Each, which also generates internal/experiments' traces) and
// returns results in submission order, byte-identical at any pool size:
// parallelism changes only the wall clock, never the numbers.
//
// The package also hosts the concurrent counterpart of sim.Run: Dispatch,
// the one scan → per-client worker loop that feeds every client's requests
// through its own Session, and ServeSource/ServeIterator, which run it
// against an in-process concurrency-safe cache (core.Sharded) — a storage
// server under simultaneous load rather than a round-robin replay.
// internal/netclient and internal/cluster run the same loop with sessions
// that reach the cache over TCP.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Job is one grid cell: a policy (built fresh by New, inside the worker)
// simulated over a trace. The trace is shared read-only across cells.
type Job struct {
	New   func() policy.Policy
	Trace *trace.Trace
}

// Options configure a parallel run.
type Options struct {
	// Workers is the pool size; 0 or negative selects GOMAXPROCS. Results
	// are identical at any size.
	Workers int
	// Progress, when non-nil, is called after each cell completes with the
	// number of cells done so far, the total, and the cell's result. Calls
	// are serialized but arrive in completion order, not submission order.
	Progress func(done, total int, r sim.Result)
}

// Each calls fn(i) for every i in [0, n) on a pool of workers goroutines
// (0 or negative selects GOMAXPROCS, never more than n) and returns once
// every call has. The calls must be independent: which goroutine runs
// which index, and in what order, is unspecified.
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Run executes every job and returns the results indexed like jobs —
// deterministic, serial-identical ordering regardless of worker count.
func Run(jobs []Job, opt Options) []sim.Result {
	results := make([]sim.Result, len(jobs))
	var (
		mu   sync.Mutex // serializes Progress and the done counter
		done int
	)
	Each(len(jobs), opt.Workers, func(i int) {
		results[i] = sim.Run(jobs[i].New(), jobs[i].Trace)
		if opt.Progress != nil {
			mu.Lock()
			done++
			opt.Progress(done, len(jobs), results[i])
			mu.Unlock()
		}
	})
	return results
}

// Grid fans the full policy × cache-size product over one trace and returns
// the per-policy sweeps keyed by policy name, each in size order. Unknown
// policy names are rejected up front, before any worker starts.
func Grid(policies []string, sizes []int, t *trace.Trace, clicCfg core.Config, opt Options) (map[string][]sim.Result, error) {
	jobs := make([]Job, 0, len(policies)*len(sizes))
	for _, name := range policies {
		if _, err := sim.NewPolicy(name, 1, t, clicCfg); err != nil {
			return nil, err
		}
		mk := sim.Constructor(name, t, clicCfg)
		for _, size := range sizes {
			size := size
			jobs = append(jobs, Job{New: func() policy.Policy { return mk(size) }, Trace: t})
		}
	}
	flat := Run(jobs, opt)
	out := make(map[string][]sim.Result, len(policies))
	for pi, name := range policies {
		out[name] = flat[pi*len(sizes) : (pi+1)*len(sizes)]
	}
	return out, nil
}
