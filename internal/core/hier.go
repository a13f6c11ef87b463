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
// O(n²) over ranks. The resulting cluster tree is handed to the exact
// attachTree / layoutRing walks the flat builders use, which makes the
// hierarchical output *identical* — member for member, parent for parent
// — to BuildBroadcastTreeFast / BuildAllgatherRingFast over the
// flattened matrix (asserted by the oracle-equivalence property tests),
// and therefore identical to the literal Algorithms 1 and 2.
//
// Leader election is emergent rather than a separate phase: the entry
// vertex attachTree computes for each machine's sub-cluster *is* that
// node's elected leader — the root on its own machine, elsewhere the
// deterministic champion (deepest subtree, ties to the smallest rank).
// Every inter-node edge of the tree connects two such leaders.

// netTiers are the network levels of the structural decomposition, from
// the coarsest: ranks with equal keys at one tier are split by the next.
var netTiers = []struct {
	level int
	key   func(cv *distance.Clustered, rank int) int
}{
	{distance.CrossRack, (*distance.Clustered).RackIndex},
	{distance.CrossSwitch, (*distance.Clustered).SwitchIndex},
	{distance.SameSwitch, (*distance.Clustered).MachineIndex},
}

// hierClusterTree builds the full ultrametric cluster hierarchy for a
// view. Clustered views use the sparse structural walk; anything else
// (including a dense Matrix) falls back to the pairwise decomposition of
// the flat builders, which produces the same tree.
func hierClusterTree(v distance.View) *clusterNode {
	all := make([]int, v.Size())
	for i := range all {
		all[i] = i
	}
	if cv, ok := v.(*distance.Clustered); ok {
		return netClusterNode(cv, all, 0)
	}
	return buildClusterTree(v, all, distinctLevels(v, nil))
}

// netClusterNode decomposes members tier by tier: the first network tier
// where the set splits becomes a cluster node (single-key tiers are
// skipped, exactly like absent distance values in the flat
// decomposition), and sets that reach the machine tier undecomposed are
// refined by the intra-node pairwise walk over their — small — member
// sets.
func netClusterNode(cv *distance.Clustered, members []int, tier int) *clusterNode {
	for ; tier < len(netTiers); tier++ {
		groups := groupMembers(members, cv, netTiers[tier].key)
		if len(groups) > 1 {
			node := &clusterNode{members: members, level: netTiers[tier].level}
			for _, g := range groups {
				node.children = append(node.children, netClusterNode(cv, g, tier+1))
			}
			return node
		}
	}
	// One machine: pairwise decomposition over its own distance levels.
	return buildClusterTree(cv, members, distinctLevelsAmong(cv, members))
}

// groupMembers partitions members by key, preserving member order inside
// groups (members arrive ascending, so each group is ascending and
// groups are ordered by their smallest member). A tier that does not split
// the set — every network tier, on one machine — yields nil without
// allocating.
func groupMembers(members []int, cv *distance.Clustered, key func(*distance.Clustered, int) int) [][]int {
	split := false
	for _, r := range members[1:] {
		if key(cv, r) != key(cv, members[0]) {
			split = true
			break
		}
	}
	if !split {
		return nil
	}
	idx := make(map[int]int, 4)
	var groups [][]int
	for _, r := range members {
		k := key(cv, r)
		g, ok := idx[k]
		if !ok {
			g = len(groups)
			idx[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// distinctLevelsAmong lists the distinct pairwise distances within a
// member subset, ascending.
func distinctLevelsAmong(v distance.View, members []int) []int {
	seen := [distance.Max + 1]bool{}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			seen[v.At(members[i], members[j])] = true
		}
	}
	var out []int
	for d, ok := range seen {
		if ok {
			out = append(out, d)
		}
	}
	return out
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
	t := &Tree{
		Root:         root,
		Parent:       make([]int, n),
		Children:     make([][]int, n),
		ParentWeight: make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	if n == 1 {
		return t, nil
	}
	attachTree(t, v, hierClusterTree(v), root)
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
	seq := layoutRing(hierClusterTree(v))
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
