package core

import "fmt"

// EngineMode selects the concurrency architecture of a Sharded front's
// request path.
type EngineMode int

const (
	// EngineMutex guards every shard with its own sync.Mutex: callers run
	// the cache code themselves under the shard lock. This is the historical
	// architecture and the default. Requests for different shards proceed in
	// parallel; requests for one shard serialize on its lock, and every
	// access pays the lock plus the per-shard atomic snapshot counters.
	EngineMutex EngineMode = iota
	// EngineOwner gives each shard one owner at a time: the goroutine holding
	// its try-lock. Producers (one per client goroutine or connection) post
	// reusable request frames to the shards; the producer that finds a shard
	// free runs its frame there itself, together with any frames other
	// producers posted meanwhile, so the cache code runs with no per-request
	// lock or atomics — synchronization happens once per frame, not once per
	// request — and no goroutine exists that is not a caller. Fronts in this
	// mode are driven through Producer handles (Access still works, as a
	// one-request frame through an internal producer shared by all callers).
	EngineOwner
)

// String returns the flag spelling of the mode.
func (m EngineMode) String() string {
	switch m {
	case EngineMutex:
		return "mutex"
	case EngineOwner:
		return "owner"
	default:
		return fmt.Sprintf("EngineMode(%d)", int(m))
	}
}

// ParseEngineMode parses the flag spelling of an engine mode.
func ParseEngineMode(s string) (EngineMode, error) {
	switch s {
	case "mutex", "":
		return EngineMutex, nil
	case "owner", "single-owner":
		return EngineOwner, nil
	default:
		return 0, fmt.Errorf("core: unknown engine mode %q (want mutex or owner)", s)
	}
}
