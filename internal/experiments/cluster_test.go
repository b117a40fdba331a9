package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestAblationCluster is the golden test of the distributed-CLIC ablation:
// the serial router replay is deterministic end to end (single driver,
// canonical summary-exchange order), so the aggregate hit counts of all
// three configurations are pinned exactly. A change to placement, the
// exchange, or the merged learner that moves any number shows up here.
func TestAblationCluster(t *testing.T) {
	tables, err := testEnv().ablationCluster()
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != 2 { // small and large cache
		t.Fatalf("got %d rows, want 2", len(tbl.Rows))
	}
	const golden = "smoke totals: cluster_single_hits=5021 cluster_unmerged_hits=4972 cluster_merged_hits=5014"
	var totals string
	for _, n := range tbl.Notes {
		if strings.Contains(n, "smoke totals:") {
			totals = n
		}
	}
	if totals != golden {
		t.Errorf("golden totals drifted:\n  got  %q\n  want %q", totals, golden)
	}

	// The headline property: with the same total resources, merging holds
	// the 3-node cluster within a point of the single node and beats the
	// unmerged cluster.
	var unmergedGap, mergedGap float64
	found := false
	for _, n := range tbl.Notes {
		if _, err := fmt.Sscanf(n, "gaps vs single node: unmerged_gap_pts=%f merged_gap_pts=%f", &unmergedGap, &mergedGap); err == nil {
			found = true
		}
	}
	if !found {
		t.Fatal("gap note missing")
	}
	if mergedGap > 1.0 {
		t.Errorf("merged cluster %.2f points behind the single node, want within 1", mergedGap)
	}
	if mergedGap > unmergedGap {
		t.Errorf("merging made the cluster worse: merged gap %.2f, unmerged gap %.2f", mergedGap, unmergedGap)
	}
}
