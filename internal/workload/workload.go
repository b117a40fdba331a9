// Package workload generates the paper's eight I/O request traces
// (Figure 5) by running TPC-C-like and TPC-H-like workloads against the
// simulated database clients of package dbsim. The traces carry the exact
// hint vocabularies of the paper's Figure 2.
//
// All sizes are scaled ~10× down from the paper (see README.md): every
// ratio that drives the caching behaviour — client buffer / database size,
// server cache / database size — is preserved.
package workload

import (
	"fmt"

	"repro/internal/trace"
)

// Kind selects a workload generator.
type Kind string

const (
	// TPCCDB2 is the TPC-C-like workload with DB2-style hints.
	TPCCDB2 Kind = "tpcc-db2"
	// TPCHDB2 is the TPC-H-like workload with DB2-style hints.
	TPCHDB2 Kind = "tpch-db2"
	// TPCHMySQL is the TPC-H-like workload with MySQL-style hints
	// (21 queries, no refresh, single buffer pool).
	TPCHMySQL Kind = "tpch-mysql"
)

// Preset describes one generated trace.
type Preset struct {
	// Name is the paper's trace name, e.g. "DB2_C60".
	Name string
	// Kind selects the generator.
	Kind Kind
	// DBPages is the initial database size in pages.
	DBPages int
	// ClientBuffer is the total client buffer size in pages.
	ClientBuffer int
	// Requests is the number of requests to generate.
	Requests int
	// PageSize is the block size in bytes (informational).
	PageSize int
	// Seed drives all workload randomness.
	Seed int64
	// ServerSizes is the server-cache sweep used in the paper's figure for
	// this trace.
	ServerSizes []int
}

// Presets returns the eight traces of Figure 5, scaled per README.md.
// The paper's server cache sweeps are 60K–300K pages for DB2 traces and
// 50K–100K for MySQL; scaled tenfold down they become 6K–30K and 5K–10K.
func Presets() []Preset {
	db2Sweep := []int{6000, 12000, 18000, 24000, 30000}
	mySweep := []int{5000, 7500, 10000}
	return []Preset{
		{Name: "DB2_C60", Kind: TPCCDB2, DBPages: 60000, ClientBuffer: 6000, Requests: 2000000, PageSize: 4096, Seed: 10601, ServerSizes: db2Sweep},
		{Name: "DB2_C300", Kind: TPCCDB2, DBPages: 60000, ClientBuffer: 30000, Requests: 1600000, PageSize: 4096, Seed: 10601, ServerSizes: db2Sweep},
		{Name: "DB2_C540", Kind: TPCCDB2, DBPages: 60000, ClientBuffer: 54000, Requests: 1200000, PageSize: 4096, Seed: 10601, ServerSizes: db2Sweep},
		{Name: "DB2_H80", Kind: TPCHDB2, DBPages: 80000, ClientBuffer: 8000, Requests: 2400000, PageSize: 4096, Seed: 20801, ServerSizes: db2Sweep},
		{Name: "DB2_H400", Kind: TPCHDB2, DBPages: 80000, ClientBuffer: 40000, Requests: 1200000, PageSize: 4096, Seed: 20801, ServerSizes: db2Sweep},
		{Name: "DB2_H720", Kind: TPCHDB2, DBPages: 80000, ClientBuffer: 72000, Requests: 500000, PageSize: 4096, Seed: 20801, ServerSizes: db2Sweep},
		{Name: "MY_H65", Kind: TPCHMySQL, DBPages: 32800, ClientBuffer: 6500, Requests: 1200000, PageSize: 16384, Seed: 30651, ServerSizes: mySweep},
		{Name: "MY_H98", Kind: TPCHMySQL, DBPages: 32800, ClientBuffer: 9800, Requests: 800000, PageSize: 16384, Seed: 30651, ServerSizes: mySweep},
	}
}

// PresetByName returns the named preset.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("workload: unknown preset %q", name)
}

// Generate runs the preset's workload and returns its trace in memory. It
// is GenerateTo into a fresh *Trace pre-sized to p.Requests — streamed and
// in-RAM generation share one code path, so they are bit-identical by
// construction.
func Generate(p Preset) (*trace.Trace, error) {
	t := trace.New(p.Name, p.PageSize)
	t.Reqs = make([]trace.Request, 0, p.Requests)
	if err := GenerateTo(p, t); err != nil {
		return nil, err
	}
	return t, t.Validate()
}

// GenerateTo runs the preset's workload, emitting each request into sink as
// it is produced: with a streaming sink (trace.Writer, trace.PipeWriter)
// memory stays bounded no matter how many requests the preset asks for.
// Exactly p.Requests requests are appended (the last transaction's
// overshoot is cut, like the historical truncate; hint keys the cut
// requests interned stay in the dictionary, also like the historical
// behavior).
func GenerateTo(p Preset, sink trace.Sink) error {
	lim := trace.Limit(sink, p.Requests)
	var err error
	switch p.Kind {
	case TPCCDB2:
		err = generateTPCC(p, lim)
	case TPCHDB2:
		err = generateTPCH(p, lim, false)
	case TPCHMySQL:
		err = generateTPCH(p, lim, true)
	default:
		return fmt.Errorf("workload: unknown kind %q", p.Kind)
	}
	if err != nil {
		return err
	}
	return trace.Err(sink)
}
