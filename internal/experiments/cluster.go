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

// clusterTraces drive the cluster ablation: one trace per workload family
// and the TPC-C trace with the largest client buffer, where fragmenting
// the hint statistics moved the hit ratio most.
var clusterTraces = []string{"DB2_C60", "DB2_C300", "DB2_H80", "MY_H65"}

// ablationCluster measures what distributing CLIC across clusterNodes
// cache nodes costs, one table per trace. Two configurations replay the
// same trace with the same TOTAL resources (capacity, outqueue and
// statistics window all split across the nodes):
//
//   - single: one node, the baseline every distributed run is judged
//     against;
//   - cluster: consistent-hash placement over clusterNodes nodes, each
//     learning hint priorities only from its own ~1/N slice of the stream.
//
// Every replay goes through the real router over loopback TCP as one
// client in trace order, so the numbers are golden-testable. The totals
// note sums both sizes; its gap is the single node's hit ratio
// minus the cluster's, in percentage points.
func (e *Env) ablationCluster() ([]*report.Table, error) {
	var out []*report.Table
	for _, name := range clusterTraces {
		tbl, err := e.clusterTable(name)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

// clusterTable is one trace's table of the cluster ablation, at the ends
// of its size sweep: the small cache stresses victim selection, the large
// one admission.
func (e *Env) clusterTable(name string) (*report.Table, error) {
	t, err := e.Trace(name)
	if err != nil {
		return nil, err
	}
	sizes, err := e.ServerSizes(name)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Ablation — single node vs %d-node cluster, %s", clusterNodes, name),
		"cache (pages)", "single hit ratio", "cluster hit ratio")
	var totals [2]sim.Result
	for _, size := range []int{sizes[0], sizes[len(sizes)-1]} {
		row := []string{report.Num(size)}
		for i, nodes := range []int{1, clusterNodes} {
			cfg := e.clicConfig()
			cfg.Capacity = sim.ClicCapacity(size)
			res, err := e.runCluster(t, cfg, nodes)
			if err != nil {
				return nil, err
			}
			totals[i].Reads += res.Reads
			totals[i].ReadHits += res.ReadHits
			row = append(row, report.Pct(res.HitRatio()))
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("same total capacity/outqueue/window in every column, split across nodes by consistent-hash placement; serial replay through the router over loopback TCP")
	// Machine-greppable: TestAblationCluster pins these totals.
	tbl.AddNote("totals: single_hits=%d cluster_hits=%d gap_pts=%.2f",
		totals[0].ReadHits, totals[1].ReadHits, 100*(totals[0].HitRatio()-totals[1].HitRatio()))
	return tbl, nil
}

// runCluster boots an in-process cluster and replays the trace through it
// with cluster.ReplaySource. The replay is deterministic: the cluster
// presets are single-client, and nodes learn alone, so each node sees its
// sub-stream in trace order whatever the pipeline depth.
func (e *Env) runCluster(t *trace.Trace, cfg core.Config, nodes int) (sim.Result, error) {
	h, err := cluster.StartHarness(cluster.HarnessConfig{Nodes: nodes, Cache: cfg})
	if err != nil {
		return sim.Result{}, err
	}
	defer h.Close()
	return cluster.ReplaySource(h.Nodes(), t.Source(), cluster.ReplayOptions{})
}
