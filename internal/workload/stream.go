package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Spec describes a generated workload as data: a preset, optionally scaled
// to several concurrent clients, a total request budget, and a seed. The
// textual syntax is
//
//	NAME[*clients][:requests][@seed]
//
// e.g. "DB2_C60", "DB2_C60:10000000", "DB2_C60*4:100000000@7". It is the
// streaming counterpart of a trace path: anywhere a replay accepts a trace
// file it can accept a spec instead, and the requests are generated on the
// fly in bounded memory — a 100M-request run needs no 100M-request file.
type Spec struct {
	// Preset is the base preset with Requests and Seed already adjusted to
	// the spec (for multi-client specs, Requests is the total across
	// clients).
	Preset Preset
	// Clients is the number of concurrent simulated clients (>= 1). Each
	// client runs the preset's workload with a split seed, a private page
	// region, and client-namespaced hints; their streams are merged
	// round-robin.
	Clients int
}

// ParseSpec parses the NAME[*clients][:requests][@seed] syntax against the
// known presets.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Clients: 1}
	rest := s
	var seed *int64
	var requests *int
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		v, err := strconv.ParseInt(rest[i+1:], 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("workload: spec %q: bad seed: %v", s, err)
		}
		rest = rest[:i]
		seed = &v
	}
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n <= 0 {
			return Spec{}, fmt.Errorf("workload: spec %q: bad request count", s)
		}
		rest = rest[:i]
		requests = &n
	}
	if i := strings.IndexByte(rest, '*'); i >= 0 {
		n, err := strconv.Atoi(rest[i+1:])
		if err != nil || n < 1 || n > 256 {
			return Spec{}, fmt.Errorf("workload: spec %q: bad client count (1..256)", s)
		}
		rest = rest[:i]
		spec.Clients = n
	}
	p, err := PresetByName(rest)
	if err != nil {
		return Spec{}, fmt.Errorf("workload: spec %q: %w", s, err)
	}
	spec.Preset = p
	if requests != nil {
		spec.Preset.Requests = *requests
	}
	if seed != nil {
		spec.Preset.Seed = *seed
	}
	return spec, nil
}

// String renders the spec in the ParseSpec syntax.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Preset.Name)
	if s.Clients > 1 {
		fmt.Fprintf(&b, "*%d", s.Clients)
	}
	fmt.Fprintf(&b, ":%d", s.Preset.Requests)
	if base, _ := PresetByName(s.Preset.Name); s.Preset.Seed != base.Seed {
		fmt.Fprintf(&b, "@%d", s.Preset.Seed)
	}
	return b.String()
}

// SplitSeed derives the i-th child seed from a base seed, splitmix64-style:
// well-mixed, collision-free for distinct i, and machine-independent —
// the foundation of deterministic parallel generation.
func SplitSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// clientPresets returns the per-client presets of a multi-client spec: each
// client runs the same workload with a split seed and an even share of the
// total request budget (earlier clients absorb the remainder).
func (s Spec) clientPresets() []Preset {
	ps := make([]Preset, s.Clients)
	base, rem := s.Preset.Requests/s.Clients, s.Preset.Requests%s.Clients
	for i := range ps {
		p := s.Preset
		p.Name = fmt.Sprintf("%s#%d", s.Preset.Name, i)
		p.Seed = SplitSeed(s.Preset.Seed, i)
		p.Requests = base
		if i < rem {
			p.Requests++
		}
		ps[i] = p
	}
	return ps
}

// ClientNames returns the merged trace's client list (what a trace.Writer
// for this spec should carry in its header).
func (s Spec) ClientNames() []string {
	if s.Clients <= 1 {
		return []string{s.Preset.Name}
	}
	names := make([]string, s.Clients)
	for i, p := range s.clientPresets() {
		names[i] = p.Name
	}
	return names
}

// GenerateTo streams the spec's requests into sink. Single-client specs run
// the plain generator (bit-identical to Generate). Multi-client specs run
// every client concurrently on its own goroutine, each feeding a bounded
// pipe, and merge the streams in canonical order — the output is
// bit-identical regardless of scheduling because the merge, not the
// goroutines, decides every byte.
func (s Spec) GenerateTo(sink trace.Sink) error {
	if s.Clients <= 1 {
		return GenerateTo(s.Preset, sink)
	}
	presets := s.clientPresets()
	its := make([]trace.Iterator, len(presets))
	for i, p := range presets {
		pw, pr := trace.NewPipe(p.Name, p.PageSize, []string{p.Name}, 0)
		its[i] = pr
		go func(p Preset, pw *trace.PipeWriter) {
			pw.CloseWithError(GenerateTo(p, pw))
		}(p, pw)
	}
	defer func() {
		for _, it := range its {
			it.Close()
		}
	}()
	return trace.Merge(sink, s.ClientNames(), its)
}

// Trace generates the spec in memory: GenerateTo into a trace pre-sized to
// the request budget, so a multi-client spec generates its clients in
// parallel, and the bytes are those of every other path by construction.
func (s Spec) Trace() (*trace.Trace, error) {
	out := trace.New(s.Preset.Name, s.Preset.PageSize)
	out.Clients = s.ClientNames()
	out.Reqs = make([]trace.Request, 0, s.Preset.Requests)
	if err := s.GenerateTo(out); err != nil {
		return nil, err
	}
	return out, out.Validate()
}

// Source exposes the spec as a trace.Source: each Iter spawns the (possibly
// parallel) generation behind a pipe, so replay paths consume generated
// requests exactly like scanned ones — without a trace file or an in-RAM
// trace anywhere.
func (s Spec) Source() trace.Source { return specSource{s} }

type specSource struct{ s Spec }

func (ss specSource) Label() string { return ss.s.String() }

func (ss specSource) Iter() (trace.Iterator, error) {
	pw, pr := trace.NewPipe(ss.s.Preset.Name, ss.s.Preset.PageSize, ss.s.ClientNames(), 0)
	go func() {
		pw.CloseWithError(ss.s.GenerateTo(pw))
	}()
	return pr, nil
}
