package core

import (
	"slices"

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

// hierarchy is the ultrametric cluster decomposition of a view in two flat
// arrays: a pure function of the view, cheap enough to rebuild per tree
// (nothing memoises it).
type hierarchy struct {
	// perm lists the ranks so that every cluster is one contiguous range:
	// ascending inside a finest cluster, sibling clusters in the order of
	// their smallest member.
	perm []int
	// nodes are the clusters in pre-order; nodes[0] is the whole set.
	nodes []hierNode
}

// hierNode is one cluster: its members are perm[lo:hi], its sub-clusters
// the nodes i+1, nodes[i+1].end, … below end (none: a finest cluster).
type hierNode struct{ lo, hi, end int }

// hierBuilder refines perm range by range. Its scratch is shared by every
// split: a split is over before its sub-ranges are visited.
type hierBuilder struct {
	hierarchy
	v      distance.View
	label  []int // by rank: its group within the range being split
	tmp    []int // the range, regrouped
	start  []int // by group: where it goes in tmp
	levels []int // the distinct distances of the machine being refined
	keys   map[int]int
}

// buildHierarchy decomposes v, splitting at the coarsest level first: a
// cluster's children are the maximal sub-clusters whose internal distances
// stay below the level that separates them (transitive, since the metric
// is an ultrametric). A Clustered view splits its network tiers by
// coordinate — "distance ≤ 8" is exactly "same rack" — and only the ranks
// of one machine pairwise; any other view is pairwise throughout. It also
// returns 3n+1 ints of spent scratch for the caller's own walk.
func buildHierarchy(v distance.View) (hierarchy, []int) {
	n := v.Size()
	// One slab: perm, the three scratch arrays, and room for the levels of
	// the scale (an overlay can show more: Insert then reallocates).
	ints := make([]int, 4*n+1, 4*n+1+distance.Max+1)
	b := hierBuilder{v: v, label: ints[n : 2*n], tmp: ints[2*n : 3*n], start: ints[3*n:], levels: ints[len(ints):]}
	b.perm = ints[:n:n]
	for i := range b.perm {
		b.perm[i] = i
	}
	b.nodes = make([]hierNode, 0, 2*n-1)
	tier := len(netTiers)
	if cv, ok := v.(*distance.Clustered); ok && cv.MultiMachine() {
		tier = 0
	}
	b.split(0, n, tier, nil)
	return b.hierarchy, ints[n:]
}

// split decomposes perm[lo:hi]. tier counts the refinements tried so far:
// the network tiers first (skipped where coordinates cannot split the
// view), then, inside one machine, the distinct distances found there,
// coarsest first. A refinement that leaves the range whole is skipped,
// exactly like an absent distance value.
func (b *hierBuilder) split(lo, hi, tier int, levels []int) {
refine:
	for ; hi-lo > 1; tier++ {
		groups := 1
		switch {
		case tier < len(netTiers):
			groups = b.groupByKey(lo, hi, netTiers[tier])
		case tier == len(netTiers):
			levels = b.distinctLevels(lo, hi)
		case len(levels) > 1:
			groups = b.groupBelow(lo, hi, levels[len(levels)-2])
			levels = levels[:len(levels)-1]
		default:
			break refine
		}
		if groups == 1 {
			continue
		}
		b.regroup(lo, hi, groups)
		i := len(b.nodes)
		b.nodes = append(b.nodes, hierNode{lo: lo, hi: hi})
		for lo < hi {
			end := lo + 1
			for end < hi && b.label[b.perm[end]] == b.label[b.perm[lo]] {
				end++
			}
			b.split(lo, end, tier+1, levels)
			lo = end
		}
		b.nodes[i].end = len(b.nodes)
		return
	}
	b.nodes = append(b.nodes, hierNode{lo, hi, len(b.nodes) + 1})
}

// groupByKey labels perm[lo:hi] by coordinate at one network tier, groups
// numbered in order of first appearance, and returns their count.
func (b *hierBuilder) groupByKey(lo, hi int, key func(*distance.Clustered, int) int) int {
	cv := b.v.(*distance.Clustered)
	if b.keys == nil {
		b.keys = make(map[int]int, 8)
	}
	clear(b.keys)
	for _, r := range b.perm[lo:hi] {
		k := key(cv, r)
		g, ok := b.keys[k]
		if !ok {
			g = len(b.keys)
			b.keys[k] = g
		}
		b.label[r] = g
	}
	return len(b.keys)
}

// groupBelow labels perm[lo:hi] by the clusters with pairwise distance
// ≤ thr, numbered in order of first appearance, and returns their count.
func (b *hierBuilder) groupBelow(lo, hi, thr int) int {
	m := b.perm[lo:hi]
	for _, x := range m {
		b.label[x] = -1
	}
	groups := 0
	for i, x := range m {
		if b.label[x] >= 0 {
			continue
		}
		b.label[x] = groups
		for _, y := range m[i+1:] {
			if b.label[y] < 0 && b.v.At(x, y) <= thr {
				b.label[y] = groups
			}
		}
		groups++
	}
	return groups
}

// regroup sorts perm[lo:hi] by label, stably: a range arrives ascending,
// so every group leaves ascending and the groups in the order of their
// smallest member.
func (b *hierBuilder) regroup(lo, hi, groups int) {
	m, start := b.perm[lo:hi], b.start[:groups+1]
	clear(start)
	for _, r := range m {
		start[b.label[r]+1]++
	}
	for g := 1; g < groups; g++ {
		start[g+1] += start[g]
	}
	for _, r := range m {
		b.tmp[start[b.label[r]]] = r
		start[b.label[r]]++
	}
	copy(m, b.tmp)
}

// distinctLevels lists the distinct pairwise distances within perm[lo:hi],
// ascending, in the builder's buffer (an overlay's demoted edges lie above
// distance.Max, so the values index nothing).
func (b *hierBuilder) distinctLevels(lo, hi int) []int {
	m, out := b.perm[lo:hi], b.levels[:0]
	for i, x := range m {
		for _, y := range m[i+1:] {
			d := b.v.At(x, y)
			if k, ok := slices.BinarySearch(out, d); !ok {
				out = slices.Insert(out, k, d)
			}
		}
	}
	b.levels = out
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

// treeWalk hangs a tree on a hierarchy. Edges go into t.Parent as they are
// found and into order in attachment order; subs is one stack shared by the
// whole recursion.
type treeWalk struct {
	t     *Tree
	m     distance.View
	h     hierarchy
	root  int
	order []int
	subs  []subEntry
}

// subEntry is a wired sub-cluster: its entry vertex and its depth when
// oriented away from it.
type subEntry struct{ entry, depth int }

func (w *treeWalk) link(parent, child int) {
	w.t.Parent[child] = parent
	w.t.ParentWeight[child] = w.m.At(parent, child)
	w.order = append(w.order, child)
}

// attach wires cluster i and returns its entry vertex and depth. A finest
// cluster is a star around its leader — the root if present, else its
// smallest member. Above that it mirrors Algorithm 1's level-grouped
// attachment: the champion sub-cluster — the one containing the root,
// otherwise the deepest (ties to the smallest entry rank) — keeps its
// entry, and every other sub-cluster hangs its entry directly under the
// champion's, in ascending entry order.
func (w *treeWalk) attach(i int) (entry, depth int) {
	node := w.h.nodes[i]
	if node.end == i+1 {
		members := w.h.perm[node.lo:node.hi]
		leader := members[0]
		if slices.Contains(members, w.root) {
			leader = w.root
		}
		for _, x := range members {
			if x != leader {
				w.link(leader, x)
			}
		}
		return leader, min(len(members)-1, 1)
	}
	base := len(w.subs)
	for c := i + 1; c < node.end; c = w.h.nodes[c].end {
		e, d := w.attach(c)
		w.subs = append(w.subs, subEntry{e, d})
	}
	subs := w.subs[base:]
	slices.SortFunc(subs, func(a, b subEntry) int { return a.entry - b.entry })
	champ := 0
	for k := 1; k < len(subs); k++ {
		if subs[champ].entry == w.root {
			break
		}
		if subs[k].entry == w.root || subs[k].depth > subs[champ].depth {
			champ = k
		}
	}
	entry, depth = subs[champ].entry, subs[champ].depth
	for _, sb := range subs {
		if sb.entry == entry {
			continue
		}
		w.link(entry, sb.entry)
		depth = max(depth, sb.depth+1)
	}
	w.subs = w.subs[:base]
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
