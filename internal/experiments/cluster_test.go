package experiments

import (
	"strings"
	"testing"
)

// TestAblationCluster is the golden test of the distributed-CLIC ablation:
// the serial router replay is deterministic end to end (single driver, one
// router), so each trace's single-node and cluster hit totals are pinned
// exactly. A change to placement, the router or the learner that moves
// any number shows up here.
func TestAblationCluster(t *testing.T) {
	tables, err := testEnv().ablationCluster()
	if err != nil {
		t.Fatal(err)
	}
	// C300 hits nothing at this scale (a larger client buffer needs a
	// longer trace); its row still pins that the replay runs.
	golden := []string{
		"totals: single_hits=5021 cluster_hits=4996 gap_pts=0.09",
		"totals: single_hits=0 cluster_hits=0 gap_pts=0.00",
		"totals: single_hits=2517 cluster_hits=2517 gap_pts=0.00",
		"totals: single_hits=764 cluster_hits=764 gap_pts=0.00",
	}
	if len(tables) != len(clusterTraces) {
		t.Fatalf("got %d tables, want one per trace of %v", len(tables), clusterTraces)
	}
	for i, tbl := range tables {
		if !strings.HasSuffix(tbl.Title, clusterTraces[i]) {
			t.Errorf("table %d is %q, want %s", i, tbl.Title, clusterTraces[i])
		}
		if len(tbl.Rows) != 2 { // small and large cache
			t.Errorf("%s: got %d rows, want 2", clusterTraces[i], len(tbl.Rows))
		}
		var totals string
		for _, n := range tbl.Notes {
			if strings.HasPrefix(n, "totals:") {
				totals = n
			}
		}
		if totals != golden[i] {
			t.Errorf("%s: golden totals drifted:\n  got  %q\n  want %q", clusterTraces[i], totals, golden[i])
		}
	}
}
