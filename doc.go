// Package repro is a from-scratch reproduction of "CLIC: CLient-Informed
// Caching for Storage Servers" (Liu, Aboulnaga, Salem, Li — FAST 2009).
//
// Start with README.md: it maps the package layout, the policy set, and
// the scaling substitutions made for artifacts we do not have (the
// instrumented DB2/MySQL I/O traces). Every table and figure of the
// paper's evaluation can be regenerated with cmd/experiments, from the one
// list of them in internal/experiments (Figures).
//
// Beyond the paper's trace replay, the reproduction also runs CLIC as an
// actual storage server (cmd/clicserve): clients stream page requests with
// hints over a length-prefixed binary TCP protocol and get hit/miss
// verdicts back. Each frame is a uvarint length plus a typed payload —
// hello (client name + hint vocabulary), intern (hints discovered
// mid-stream), sequence-tagged batch (flags, delta-encoded page, hint index
// per request) and results (hit bitmap + server outqueue depth), error. See internal/wire
// for the exact layout, internal/server and internal/netclient for the two
// endpoints, and README.md ("Running the cache as a server") for a
// walkthrough.
//
// CLIC's hint-statistics learning — window accounting, decay blending,
// the priority table, and the Space-Saving top-k bound (internal/spacesaving:
// flat counters, two stores per request, the replacement victim from a
// lazily repaired heap) — is its own layer (internal/clicstats): one
// concrete learner type whose per-request calls inline into the cache. The
// sharded concurrent front learns one coherent priority model while page
// placement stays hash-partitioned: all shards feed one shared learner
// over the full window W, each through a tap that counts in a window of
// its own, summed with the others' once per window. README.md ("How a
// sharded front learns") states what that keeps exact and what
// concurrency relaxes.
package repro
