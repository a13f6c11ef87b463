package figures

import (
	"fmt"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/tune"
)

// ClusterTopology builds the multi-node evaluation platform for the §VI
// extension: 2 switches × 2 nodes, each node an "IG-lite" (2 sockets × 6
// cores, NUMA per socket) — 48 cores total, so the job size matches the
// single-node experiments.
func ClusterTopology() (*hwtopo.Topology, error) {
	return hwtopo.BuildCluster(hwtopo.ClusterSpec{
		Name:           "igcluster",
		Switches:       2,
		NodesPerSwitch: 2,
		Node: hwtopo.Spec{
			Name:             "iglite",
			Boards:           1,
			SocketsPerBoard:  2,
			DiesPerSocket:    1,
			CoresPerDie:      6,
			SharedCacheLevel: 3,
			SharedCacheSize:  5 << 20,
			PrivateL2:        512 << 10,
			PrivateL1:        64 << 10,
			NUMAPerSocket:    true,
			MemPerNUMA:       16 << 30,
			OSNumbering:      hwtopo.OSPhysical,
		},
	})
}

// ExtCluster reproduces the paper's thesis at cluster scale (§VI: "not
// just intra-node … but also clusters of multi-core mixing inter-node and
// intra-node communication together"): broadcast over 48 processes on a
// 4-node, 2-switch cluster. The distance-aware tree crosses the trunk
// once and each NIC once; the rank-based binomial tree under a scattered
// binding floods the network.
func ExtCluster(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	topo, err := ClusterTopology()
	if err != nil {
		return nil, err
	}
	params := machine.ClusterParams(machine.IGParams())
	const n, root = 48, 0
	cont, err := binding.Contiguous(topo, n)
	if err != nil {
		return nil, err
	}
	scattered, err := binding.CrossSocket(topo, n) // round-robins all 8 sockets → all 4 nodes
	if err != nil {
		return nil, err
	}
	ms, err := models(params, cont, scattered)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		// The tree the knemcoll curves below compile over (the same rule
		// on the same view) must cross the trunk exactly once.
		tree, err := core.TreeFor(view(m), root)
		if err != nil {
			return nil, err
		}
		if got := tree.EdgesAtWeight(distance.CrossSwitch); got != 1 {
			return nil, fmt.Errorf("cluster tree has %d trunk edges, want 1", got)
		}
	}
	fig := &Figure{ID: "cluster", Title: "Broadcast on a 4-node/2-switch cluster (48 processes): tuned vs distance-aware", Procs: n}
	err = fig.sweep(sizes, imb.BcastBandwidth,
		curve{"tuned_contiguous", decided(ms[0], tune.CollBcast, tuned, root, 0)},
		curve{"tuned_scattered", decided(ms[1], tune.CollBcast, tuned, root, 0)},
		curve{"distaware_contiguous", decided(ms[0], tune.CollBcast, knem, root, 0)},
		curve{"distaware_scattered", decided(ms[1], tune.CollBcast, knem, root, 0)})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
