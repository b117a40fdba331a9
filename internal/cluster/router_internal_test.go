package cluster

import (
	"testing"

	"repro/internal/netclient"
)

// TestDefaultDepth: the default per-node window keeps a router within one
// direct connection's frames in flight and every node pipelined — at
// least 2 frames per node, DefaultDepth on one node (a one-node router is
// a direct connection), and nodes × depth ≤ DefaultDepth wherever
// DefaultDepth/nodes allows 2 per node — while an explicit Depth passes
// through at any node count.
func TestDefaultDepth(t *testing.T) {
	for nodes := 1; nodes <= 8; nodes++ {
		d := ReplayOptions{}.depth(nodes)
		if d < 2 {
			t.Errorf("%d nodes: default depth %d, want at least 2", nodes, d)
		}
		if nodes == 1 && d != netclient.DefaultDepth {
			t.Errorf("1 node: default depth %d, want DefaultDepth %d", d, netclient.DefaultDepth)
		}
		if netclient.DefaultDepth/nodes >= 2 && nodes*d > netclient.DefaultDepth {
			t.Errorf("%d nodes: default depth %d keeps %d frames in flight, want at most DefaultDepth %d",
				nodes, d, nodes*d, netclient.DefaultDepth)
		}
		for _, explicit := range []int{1, 3, 16} {
			if got := (ReplayOptions{Depth: explicit}).depth(nodes); got != explicit {
				t.Errorf("%d nodes: Depth %d gives %d", nodes, explicit, got)
			}
		}
	}
}
