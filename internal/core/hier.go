package core

import (
	"fmt"

	"distcoll/internal/distance"
)

// This file implements cluster-scale construction (ROADMAP item 1, the
// multilevel grids approach of Karonis & de Supinski): the same two-phase
// structure the flat fast builders produce — per-node leader subtrees
// under an inter-node leader tree — but built from a sparse
// distance.Clustered view, never materializing the O(n²) rank-pair
// matrix.
//
// The key observation is that on the hierarchical distance metric the
// ultrametric cluster decomposition is *structural*: "distance ≤ 8" is
// exactly "same rack", "≤ 7" is "same switch", "≤ 6" is "same machine".
// So the network levels of the cluster hierarchy fall out of the per-rank
// rack/switch/machine coordinates in O(n), and only the intra-machine
// levels need pairwise scans — O(Σ k²) over per-node group sizes k, not
// O(n²) over ranks. The resulting hierarchy (fast.go) is handed to the exact
// walks the flat builders use — treeWalk.attach for the tree, the
// hierarchy's own permutation for the ring — which makes the
// hierarchical output *identical* — member for member, parent for parent
// — to BuildBroadcastTreeFast / BuildAllgatherRingFast over the
// flattened matrix (asserted by the oracle-equivalence property tests),
// and therefore identical to the literal Algorithms 1 and 2.
//
// Leader election is emergent rather than a separate phase: the entry
// vertex treeWalk.attach computes for each machine's sub-cluster *is* that
// node's elected leader — the root on its own machine, elsewhere the
// deterministic champion (deepest subtree, ties to the smallest rank).
// Every inter-node edge of the tree connects two such leaders.

// netTiers are the coordinates of the structural decomposition, from the
// coarsest tier: ranks with equal keys at one tier are split by the next.
var netTiers = []func(cv *distance.Clustered, rank int) int{
	(*distance.Clustered).RackIndex,
	(*distance.Clustered).SwitchIndex,
	(*distance.Clustered).MachineIndex,
}

// BuildBroadcastTreeHier constructs the hierarchical two-phase broadcast
// tree from a distance view: per-machine distance-aware subtrees rooted
// at deterministically elected leaders, joined by an inter-node leader
// tree over the switch/rack tiers. The output is identical to
// BuildBroadcastTreeFast over the flattened matrix; the construction is
// O(n + Σ k²) for per-node group sizes k when v is a distance.Clustered
// view. Level transforms collapse the network tiers the structural walk
// relies on, so opts.Levels routes through the dense fast path.
func BuildBroadcastTreeHier(v distance.View, root int, opts TreeOptions) (*Tree, error) {
	if opts.Levels != nil {
		return BuildBroadcastTreeFast(distance.Materialize(v), root, opts)
	}
	n := v.Size()
	if n == 0 {
		return nil, fmt.Errorf("core: empty communicator")
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, n)
	}
	t := newTree(n, root)
	if n == 1 {
		return t, nil
	}
	h, scratch := buildHierarchy(v)
	w := treeWalk{t: t, m: v, h: h, root: root, order: scratch[: 0 : n-1], subs: make([]subEntry, 0, 32)}
	w.attach(0)
	t.adopt(w.order, scratch[n-1:2*n-1])
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("core: cluster-walk tree construction invalid: %w", err)
	}
	return t, nil
}

// BuildAllgatherRingHier constructs the hierarchical allgather ring from
// a distance view: every machine, switch and rack occupies one
// contiguous arc, so each slow link is crossed the minimal number of
// times. The output is identical to BuildAllgatherRingFast over the
// flattened matrix, at the same sparse cost as BuildBroadcastTreeHier.
func BuildAllgatherRingHier(v distance.View, opts RingOptions) (*Ring, error) {
	if opts.Levels != nil {
		return BuildAllgatherRingFast(distance.Materialize(v), opts)
	}
	n := v.Size()
	if n == 0 {
		return nil, fmt.Errorf("core: empty communicator")
	}
	r := &Ring{
		Right:       make([]int, n),
		Left:        make([]int, n),
		RightWeight: make([]int, n),
	}
	if n == 1 {
		r.Right[0], r.Left[0] = 0, 0
		return r, nil
	}
	// Members of each finest cluster in ascending rank order, sibling
	// clusters in leader order: the hierarchy's own permutation.
	h, _ := buildHierarchy(v)
	seq := h.perm
	for i, v2 := range seq {
		next := seq[(i+1)%n]
		r.Right[v2] = next
		r.Left[next] = v2
		r.RightWeight[v2] = v.At(v2, next)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("core: cluster-layout ring construction invalid: %w", err)
	}
	return r, nil
}

// TreeLeaders returns the ranks acting as inter-node leaders in a
// hierarchical tree under the given placement: ranks whose parent sits
// on a different machine, plus the root itself when the tree spans more
// than one machine. These are the processes whose death forces a
// re-election (the chaos leader-crash cells target them).
func TreeLeaders(t *Tree, cv *distance.Clustered) []int {
	if !cv.MultiMachine() {
		return nil
	}
	var leaders []int
	for r := 0; r < t.Size(); r++ {
		p := t.Parent[r]
		if r == t.Root || (p >= 0 && cv.MachineIndex(p) != cv.MachineIndex(r)) {
			leaders = append(leaders, r)
		}
	}
	return leaders
}
