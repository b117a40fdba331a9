// Package experiments regenerates every table and figure of the paper's
// evaluation (§6), plus the ablations beyond it. Figures is the one list of
// them: cmd/experiments runs its entries, and TestFigures runs each one at
// small scale.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Env generates and caches workload traces for the experiment functions.
type Env struct {
	// Dir, when non-empty, persists generated traces as binary files so
	// repeated runs skip regeneration.
	Dir string
	// Scale multiplies every preset's request count; 1 (or 0) reproduces
	// the full scaled experiments, smaller values give quick runs and
	// tests.
	Scale float64
	// Window and R override CLIC's parameters when non-zero (paper: the
	// full-size W = 1e6 with r = 1; our scaled default is W = 1e5).
	Window int
	R      float64
	// Workers is the pool size for each experiment's grid of independent
	// simulations and for Prefetch's trace generations; 0 selects
	// GOMAXPROCS, 1 forces the serial path. Results are identical at any
	// setting.
	Workers int
	// Progress, when non-nil, observes each completed grid cell (forwarded
	// to engine.Options.Progress).
	Progress func(done, total int, r sim.Result)

	traces map[string]*trace.Trace
}

// opts returns the engine options for this environment.
func (e *Env) opts() engine.Options {
	return engine.Options{Workers: e.Workers, Progress: e.Progress}
}

// NewEnv returns an experiment environment caching traces under dir
// ("" disables the disk cache).
func NewEnv(dir string) *Env {
	return &Env{Dir: dir, Scale: 1, traces: make(map[string]*trace.Trace)}
}

func (e *Env) scale() float64 {
	if e.Scale <= 0 {
		return 1
	}
	return e.Scale
}

// clicConfig returns the CLIC configuration template for comparison runs.
func (e *Env) clicConfig() core.Config {
	cfg := core.Config{Window: e.Window, R: e.R}
	if cfg.Window == 0 && e.scale() < 1 {
		// Keep several windows per trace even in quick runs.
		cfg.Window = int(float64(core.DefaultWindow) * e.scale())
		if cfg.Window < 1000 {
			cfg.Window = 1000
		}
	}
	return cfg
}

// Preset returns the named workload preset with the environment's scale
// applied to its request budget.
func (e *Env) Preset(name string) (workload.Preset, error) {
	p, err := workload.PresetByName(name)
	if err != nil {
		return p, err
	}
	if s := e.scale(); s != 1 {
		p.Requests = int(float64(p.Requests) * s)
		if p.Requests < 10000 {
			p.Requests = 10000
		}
	}
	return p, nil
}

// Prefetch generates every named trace that is not already in memory or
// on disk, fanning the generations across a pool of Workers goroutines.
// Each generation is an independent deterministic simulation of one
// database client, so this cross-trace fan-out is what removes generation
// as the serial bottleneck of a multi-figure run, and the traces are
// bit-identical to on-demand Trace calls. Duplicate and already-cached
// names are skipped; on error the first failure in name order is returned.
func (e *Env) Prefetch(names []string) error {
	seen := make(map[string]bool, len(names))
	var missing []workload.Preset
	for _, name := range names {
		if seen[name] || e.traces[name] != nil {
			continue
		}
		seen[name] = true
		p, err := e.Preset(name)
		if err != nil {
			return err
		}
		if t, ok := e.loadCached(p); ok {
			e.traces[name] = t
			continue
		}
		missing = append(missing, p)
	}
	traces := make([]*trace.Trace, len(missing))
	errs := make([]error, len(missing))
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for n := 0; n < min(w, len(missing)); n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				traces[i], errs[i] = workload.Generate(missing[i])
			}
		}()
	}
	for i := range missing {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, p := range missing {
		if errs[i] != nil {
			return fmt.Errorf("experiments: generating %s: %w", p.Name, errs[i])
		}
		e.storeCached(p, traces[i])
		e.traces[p.Name] = traces[i]
	}
	return nil
}

// loadCached loads a preset's trace from the disk cache if it is present
// and matches the preset's request budget.
func (e *Env) loadCached(p workload.Preset) (*trace.Trace, bool) {
	if e.Dir == "" {
		return nil, false
	}
	t, err := trace.Load(e.cachePath(p))
	if err != nil || t.Len() != p.Requests {
		return nil, false
	}
	return t, true
}

// storeCached writes a generated trace to the disk cache. Failures are
// non-fatal: regeneration always works.
func (e *Env) storeCached(p workload.Preset, t *trace.Trace) {
	if e.Dir == "" {
		return
	}
	if err := os.MkdirAll(e.Dir, 0o755); err == nil {
		_ = trace.Save(e.cachePath(p), t)
	}
}

// Trace returns the named trace, generating (and disk-caching) on demand.
func (e *Env) Trace(name string) (*trace.Trace, error) {
	if t, ok := e.traces[name]; ok {
		return t, nil
	}
	p, err := e.Preset(name)
	if err != nil {
		return nil, err
	}
	if t, ok := e.loadCached(p); ok {
		e.traces[name] = t
		return t, nil
	}
	t, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", name, err)
	}
	e.storeCached(p, t)
	e.traces[name] = t
	return t, nil
}

func (e *Env) cachePath(p workload.Preset) string {
	return filepath.Join(e.Dir, fmt.Sprintf("%s-%d.trc", p.Name, p.Requests))
}

// ServerSizes returns the preset's server-cache sweep. It is not scaled:
// -scale shortens the traces, but the cache sizes stay the preset's.
func (e *Env) ServerSizes(name string) ([]int, error) {
	p, err := workload.PresetByName(name)
	if err != nil {
		return nil, err
	}
	return p.ServerSizes, nil
}

// midCacheSize is the scaled equivalent of the paper's 180K-page server
// cache used by Figures 9–11 (18K pages at our 10× scale-down).
const midCacheSize = 18000
