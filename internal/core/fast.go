package core

import (
	"sort"

	"distcoll/internal/distance"
)

// This file implements the scalability plan of §V-B: "it's difficult for
// these greedy algorithms to scale well with fully-connected graphs.
// Actually, only directly connected processes are helpful to construct
// topologies." Because the process-distance metric is an ultrametric on
// hierarchical machines, the minimum spanning structure is determined by
// the distance *clusters* alone — no O(n² log n) edge sort is needed. The
// fast builders walk the cluster hierarchy directly in O(n²·L) matrix
// scans (L ≤ 6 levels) with O(n) construction work, and produce exactly
// the same topology as the literal Algorithms 1 and 2 (asserted by the
// equivalence tests).

// clusterTree recursively refines rank sets by distance level.
type clusterNode struct {
	members  []int // ascending
	level    int   // distance bound within this cluster
	children []*clusterNode
}

// buildClusterTree decomposes ranks into the ultrametric hierarchy,
// splitting at the coarsest level first: a node's children are the
// maximal sub-clusters whose internal distances stay below the level that
// separates them. levels lists the distinct distances in increasing
// order.
func buildClusterTree(m distance.View, members []int, levels []int) *clusterNode {
	node := &clusterNode{members: members}
	if len(members) <= 1 || len(levels) <= 1 {
		// All members within the finest remaining level: a flat cluster.
		if len(levels) == 1 {
			node.level = levels[0]
		}
		return node
	}
	// Partition below the coarsest level: groups with pairwise distance
	// ≤ levels[len-2] (transitive, since the metric is an ultrametric).
	thr := levels[len(levels)-2]
	var groups [][]int
	assigned := make(map[int]bool, len(members))
	for _, x := range members {
		if assigned[x] {
			continue
		}
		g := []int{x}
		assigned[x] = true
		for _, y := range members {
			if !assigned[y] && m.At(x, y) <= thr {
				g = append(g, y)
				assigned[y] = true
			}
		}
		sort.Ints(g)
		groups = append(groups, g)
	}
	if len(groups) == 1 {
		// The coarsest level does not occur inside this cluster.
		return buildClusterTree(m, members, levels[:len(levels)-1])
	}
	node.level = levels[len(levels)-1]
	for _, g := range groups {
		node.children = append(node.children, buildClusterTree(m, g, levels[:len(levels)-1]))
	}
	return node
}

func distinctLevels(m distance.View, levels Levels) []int {
	if levels == nil {
		levels = IdentityLevels
	}
	seen := make(map[int]bool)
	n := m.Size()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			seen[levels(m.At(i, j))] = true
		}
	}
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// transformedMatrix applies a Levels transform to a matrix copy.
func transformedMatrix(m distance.Matrix, levels Levels) distance.Matrix {
	if levels == nil {
		return m
	}
	n := m.Size()
	out := make(distance.Matrix, n)
	for i := range out {
		out[i] = make([]int, n)
		for j := range out[i] {
			if i != j {
				out[i][j] = levels(m.At(i, j))
			}
		}
	}
	return out
}

// BuildBroadcastTreeFast constructs the same tree as BuildBroadcastTree
// without sorting edges: stars around leaf-cluster leaders, each cluster's
// entry vertex hung under the champion entry of the enclosing cluster (the
// root's cluster when present, else the deepest), the root leading every
// cluster that contains it. It is the cluster walk of
// BuildBroadcastTreeHier over the transformed dense matrix.
func BuildBroadcastTreeFast(m distance.Matrix, root int, opts TreeOptions) (*Tree, error) {
	return BuildBroadcastTreeHier(transformedMatrix(m, opts.Levels), root, TreeOptions{})
}

// leaderOf returns the designated leader of a member set: the root if
// present, else the minimum.
func leaderOf(members []int, root int) int {
	leader := members[0]
	for _, x := range members {
		if x == root {
			return root
		}
		if x < leader {
			leader = x
		}
	}
	return leader
}

// attachTree wires a cluster node and returns its entry vertex and the
// node's depth when oriented away from it. It mirrors Algorithm 1's
// level-grouped attachment: the champion sub-cluster — the one containing
// the root, otherwise the deepest (ties to the smallest entry rank) —
// keeps its entry, and every other sub-cluster hangs its entry directly
// under the champion's, in ascending entry order.
func attachTree(t *Tree, m distance.View, node *clusterNode, root int) (entry, depth int) {
	if len(node.children) == 0 {
		leader := leaderOf(node.members, root)
		for _, x := range node.members {
			if x != leader {
				t.Parent[x] = leader
				t.ParentWeight[x] = m.At(leader, x)
				t.Children[leader] = append(t.Children[leader], x)
			}
		}
		if len(node.members) == 1 {
			return leader, 0
		}
		return leader, 1
	}
	type sub struct {
		entry, depth int
	}
	subs := make([]sub, 0, len(node.children))
	for _, c := range node.children {
		e, d := attachTree(t, m, c, root)
		subs = append(subs, sub{entry: e, depth: d})
	}
	sort.Slice(subs, func(a, b int) bool { return subs[a].entry < subs[b].entry })
	champ := 0
	for i := 1; i < len(subs); i++ {
		if subs[champ].entry == root {
			break
		}
		if subs[i].entry == root || subs[i].depth > subs[champ].depth {
			champ = i
		}
	}
	entry, depth = subs[champ].entry, subs[champ].depth
	for _, sb := range subs {
		if sb.entry == entry {
			continue
		}
		t.Parent[sb.entry] = entry
		t.ParentWeight[sb.entry] = m.At(entry, sb.entry)
		t.Children[entry] = append(t.Children[entry], sb.entry)
		if sb.depth+1 > depth {
			depth = sb.depth + 1
		}
	}
	return entry, depth
}

// BuildAllgatherRingFast constructs a distance-aware ring without edge
// sorting by laying the cluster hierarchy out recursively: members of each
// finest cluster in ascending rank order, sibling clusters concatenated in
// leader order, and the whole sequence closed into a ring. It guarantees
// the same level structure as Algorithm 2 (each cluster occupies one
// contiguous arc, so slow-link crossings are minimal), though the
// member-level orientation may differ from the greedy's. It is the layout
// of BuildAllgatherRingHier over the transformed dense matrix.
func BuildAllgatherRingFast(m distance.Matrix, opts RingOptions) (*Ring, error) {
	return BuildAllgatherRingHier(transformedMatrix(m, opts.Levels), RingOptions{})
}

// layoutRing flattens the cluster tree: leaves in ascending order,
// siblings in leader order.
func layoutRing(node *clusterNode) []int {
	if len(node.children) == 0 {
		out := make([]int, len(node.members))
		copy(out, node.members)
		sort.Ints(out)
		return out
	}
	subs := make([]*clusterNode, len(node.children))
	copy(subs, node.children)
	sort.Slice(subs, func(a, b int) bool { return subs[a].members[0] < subs[b].members[0] })
	var out []int
	for _, s := range subs {
		out = append(out, layoutRing(s)...)
	}
	return out
}
