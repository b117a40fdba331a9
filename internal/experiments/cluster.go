package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// clusterNodes is the cluster size of the distributed-CLIC ablation.
const clusterNodes = 3

// clusterTrace drives the cluster ablation: the TPC-C workload with the
// most second-tier locality, so fragmenting the hint statistics shows up
// clearly.
const clusterTrace = "DB2_C60"

// ablationCluster measures what distributing CLIC across clusterNodes
// cache nodes costs, and how much cross-node merged learning buys back.
// Three configurations replay the same trace with the same TOTAL
// resources (capacity, outqueue and statistics window all split across the
// nodes):
//
//   - single: one node — the baseline every distributed run is judged
//     against;
//   - cluster unmerged: consistent-hash placement over clusterNodes nodes,
//     each learning hint priorities only from its own ~1/N slice of the
//     stream;
//   - cluster merged: the same placement, but nodes exchange window
//     summaries and fold them into their rotations, so each node's
//     priorities approximate cluster-wide learning.
//
// Every replay goes through the real router over loopback TCP in the
// deterministic serial mode, so the numbers are golden-testable. The gap
// notes report aggregate hit-ratio differences versus the single node in
// percentage points: merging should hold the cluster within a point of
// the single node while unmerged learning falls further behind.
func (e *Env) ablationCluster() ([]*report.Table, error) {
	t, err := e.Trace(clusterTrace)
	if err != nil {
		return nil, err
	}
	sizes, err := e.ServerSizes(clusterTrace)
	if err != nil {
		return nil, err
	}
	// Ends of the sweep: the small cache stresses victim selection, the
	// large one admission.
	sizes = []int{sizes[0], sizes[len(sizes)-1]}

	tbl := report.NewTable(
		fmt.Sprintf("Ablation — single node vs %d-node cluster, %s", clusterNodes, clusterTrace),
		"cache (pages)", "single hit ratio", "cluster unmerged", "cluster merged")

	type mode struct {
		nodes   int
		merging bool
	}
	modes := []mode{{1, false}, {clusterNodes, false}, {clusterNodes, true}}
	totals := make([]sim.Result, len(modes))
	for _, size := range sizes {
		row := []string{report.Num(size)}
		for mi, m := range modes {
			cfg := e.clicConfig()
			cfg.Capacity = sim.ClicCapacity(size)
			res, err := e.runCluster(t, cfg, m.nodes, m.merging)
			if err != nil {
				return nil, err
			}
			totals[mi].Reads += res.Reads
			totals[mi].ReadHits += res.ReadHits
			row = append(row, report.Pct(res.HitRatio()))
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("same total capacity/outqueue/window in every column, split across nodes by consistent-hash placement; serial replay through the router over loopback TCP")
	// Machine-greppable totals and gaps: TestAblationCluster pins the
	// totals and asserts the merged cluster stays within a point of the
	// single node.
	tbl.AddNote("smoke totals: cluster_single_hits=%d cluster_unmerged_hits=%d cluster_merged_hits=%d",
		totals[0].ReadHits, totals[1].ReadHits, totals[2].ReadHits)
	tbl.AddNote("gaps vs single node: unmerged_gap_pts=%.2f merged_gap_pts=%.2f",
		100*(totals[0].HitRatio()-totals[1].HitRatio()),
		100*(totals[0].HitRatio()-totals[2].HitRatio()))
	return []*report.Table{tbl}, nil
}

// runCluster boots an in-process cluster and replays the trace through it
// deterministically.
func (e *Env) runCluster(t *trace.Trace, cfg core.Config, nodes int, merging bool) (sim.Result, error) {
	h, err := cluster.StartHarness(cluster.HarnessConfig{
		Nodes:   nodes,
		Cache:   cfg,
		Merging: merging,
	})
	if err != nil {
		return sim.Result{}, err
	}
	defer h.Close()
	return h.ReplaySerial(t)
}
