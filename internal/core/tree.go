package core

import (
	"fmt"
	"sort"
	"strings"

	"distcoll/internal/distance"
	"distcoll/internal/unionfind"
)

// UnionStep records one accepted edge during tree or ring construction,
// for traces like the paper's Fig. 4 steps (1)…(11).
type UnionStep struct {
	Step    int // 1-based acceptance order
	Edge    Edge
	LeaderU int // leader of U's set before the union
	LeaderV int // leader of V's set before the union
}

// Tree is a broadcast topology rooted at Root over ranks 0..n-1.
type Tree struct {
	Root     int
	Parent   []int   // Parent[r]; -1 for the root
	Children [][]int // in attachment order
	// ParentWeight[r] is the construction weight of the edge to Parent[r]
	// (0 for the root).
	ParentWeight []int
	// Trace is the accepted-edge sequence (only when requested).
	Trace []UnionStep
}

// TreeOptions tunes BuildBroadcastTree.
type TreeOptions struct {
	// Levels coarsens distances before construction; nil = IdentityLevels.
	Levels Levels
	// RecordTrace captures the union sequence in Tree.Trace.
	RecordTrace bool
}

// newTree returns n parentless ranks rooted at root.
func newTree(n, root int) *Tree {
	ints := make([]int, 2*n)
	t := &Tree{Root: root, Parent: ints[:n:n], ParentWeight: ints[n:], Children: make([][]int, n)}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

// adopt fills Children from Parent: every rank's children in the order
// they appear in order, all rows carved from one slab (a childless rank
// keeps nil). count is n ints of scratch.
func (t *Tree) adopt(order, count []int) {
	clear(count)
	for _, c := range order {
		count[t.Parent[c]]++
	}
	slab := make([]int, len(order))
	for p, k := range count {
		if k > 0 {
			t.Children[p], slab = slab[:0:k], slab[k:]
		}
	}
	for _, c := range order {
		t.Children[t.Parent[c]] = append(t.Children[t.Parent[c]], c)
	}
}

// BuildBroadcastTree runs Algorithm 1 on the distance view: a Kruskal
// minimum spanning tree with the root-aware edge ordering, rooted at root.
//
// Equal-weight edges are processed as one level. The components a level's
// edges would merge are partitioned into groups, and each group is joined
// as a star: the group's champion — the root's component when present,
// otherwise the member entered at the greatest depth — keeps its entry
// vertex, and every other member's entry attaches directly under it. On an
// ultrametric matrix (every machine hierarchy, and every shrunken
// submatrix of one) any cross pair between merging components sits at
// exactly the level weight, so the re-anchored star preserves the MST
// weight while making the depth minimal among minimum-weight spanning
// trees. On a non-ultrametric matrix a member whose re-anchored edge is
// off-weight falls back to an accepted Kruskal edge of the level, keeping
// the weight minimal; depth is then best-effort.
func BuildBroadcastTree(m distance.View, root int, opts TreeOptions) (*Tree, error) {
	n := m.Size()
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

	weight := func(a, b int) int {
		if opts.Levels != nil {
			return opts.Levels(m.At(a, b))
		}
		return m.At(a, b)
	}

	edges := allEdges(m, opts.Levels)
	sortBroadcastEdges(edges, root)

	dsu := unionfind.New(n, root)
	adj := make([][]int, n)
	// Attachment state per component, keyed by its DSU leader: entry is
	// the vertex future merges anchor at; depth is the component's depth
	// when oriented away from it.
	entry := make([]int, n)
	depth := make([]int, n)
	for i := range entry {
		entry[i] = i
	}
	accepted := 0

	// link accepts the tree edge (a, b) at weight w, recording the trace
	// step against the pre-union leaders like the plain Kruskal loop.
	link := func(a, b, w int) {
		if opts.RecordTrace {
			e := Edge{U: a, V: b, Weight: w}
			if e.V < e.U {
				e.U, e.V = e.V, e.U
			}
			t.Trace = append(t.Trace, UnionStep{
				Step:    accepted + 1,
				Edge:    e,
				LeaderU: dsu.Leader(e.U),
				LeaderV: dsu.Leader(e.V),
			})
		}
		dsu.Union(a, b)
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
		accepted++
	}

	// bfsDepth returns the depth of start's component when oriented away
	// from start. adj holds only accepted tree edges, so the walk stays
	// inside the component.
	dist := make([]int, n)
	bfsDepth := func(start int) int {
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue := []int{start}
		max := 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					if dist[v] > max {
						max = dist[v]
					}
					queue = append(queue, v)
				}
			}
		}
		return max
	}

	comp := make([]int, n)
	for lo := 0; lo < len(edges) && accepted < n-1; {
		w := edges[lo].Weight
		hi := lo
		for hi < len(edges) && edges[hi].Weight == w {
			hi++
		}
		level := edges[lo:hi]
		lo = hi

		// Components as of the start of this level; the real DSU mutates
		// as the level's groups attach.
		for v := 0; v < n; v++ {
			comp[v] = dsu.Leader(v)
		}
		for _, members := range levelGroups(comp, level) {
			champ := -1
			for _, l := range members {
				if l == comp[root] {
					champ = l
					break
				}
			}
			if champ == -1 {
				for _, l := range members {
					if champ == -1 || depth[l] > depth[champ] ||
						(depth[l] == depth[champ] && entry[l] < entry[champ]) {
						champ = l
					}
				}
			}
			anchor := entry[champ]

			rest := make([]int, 0, len(members)-1)
			for _, l := range members {
				if l != champ {
					rest = append(rest, l)
				}
			}
			sort.Slice(rest, func(a, b int) bool { return entry[rest[a]] < entry[rest[b]] })

			attached := map[int]bool{champ: true}
			for len(rest) > 0 {
				progress := false
				for i := 0; i < len(rest); i++ {
					b := rest[i]
					switch {
					case weight(anchor, entry[b]) == w:
						link(anchor, entry[b], w)
					default:
						u, v, ok := fallbackEdge(b, attached, comp, level)
						if !ok {
							continue
						}
						link(u, v, w)
					}
					attached[b] = true
					rest = append(rest[:i], rest[i+1:]...)
					i--
					progress = true
				}
				if !progress {
					break
				}
			}

			nl := dsu.Leader(anchor)
			entry[nl] = anchor
			depth[nl] = bfsDepth(anchor)
		}
	}
	if accepted != n-1 {
		return nil, fmt.Errorf("core: disconnected construction (%d/%d edges)", accepted, n-1)
	}

	// Orient the spanning tree away from the root. Neighbors were appended
	// in acceptance order, so children keep the union order.
	queue := []int{root}
	visited := make([]bool, n)
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if visited[v] {
				continue
			}
			visited[v] = true
			t.Parent[v] = u
			t.ParentWeight[v] = weight(u, v)
			t.Children[u] = append(t.Children[u], v)
			queue = append(queue, v)
		}
	}
	for i, ok := range visited {
		if !ok {
			return nil, fmt.Errorf("core: rank %d unreachable from root", i)
		}
	}
	return t, nil
}

// levelGroups partitions the components touched by one weight level's
// edges into merge groups: the sets of components the level's edges
// connect transitively. comp maps each vertex to its component leader as
// of the start of the level. Groups appear in the scan order of the first
// edge touching them (root-covering edges sort first, so a group absorbing
// the root's component always comes first); singleton groups are dropped.
func levelGroups(comp []int, level []Edge) [][]int {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, e := range level {
		lu, lv := comp[e.U], comp[e.V]
		if lu == lv {
			continue
		}
		ru, rv := find(lu), find(lv)
		if ru != rv {
			parent[ru] = rv
		}
	}
	byGroup := map[int][]int{}
	var order []int
	seen := map[int]bool{}
	for _, e := range level {
		for _, v := range [2]int{e.U, e.V} {
			l := comp[v]
			if seen[l] {
				continue
			}
			seen[l] = true
			g := find(l)
			if len(byGroup[g]) == 0 {
				order = append(order, g)
			}
			byGroup[g] = append(byGroup[g], l)
		}
	}
	groups := make([][]int, 0, len(order))
	for _, g := range order {
		if len(byGroup[g]) >= 2 {
			groups = append(groups, byGroup[g])
		}
	}
	return groups
}

// fallbackEdge finds the first level edge in scan order joining component
// b to an already-attached component of its group. It is the
// non-ultrametric escape hatch: when the re-anchored star edge would be
// off-weight, the construction falls back to an edge Kruskal itself would
// have accepted.
func fallbackEdge(b int, attached map[int]bool, comp []int, level []Edge) (u, v int, ok bool) {
	for _, e := range level {
		switch {
		case comp[e.U] == b && attached[comp[e.V]]:
			return e.V, e.U, true
		case comp[e.V] == b && attached[comp[e.U]]:
			return e.U, e.V, true
		}
	}
	return 0, 0, false
}

// NewLinearTree returns the linear topology: every non-root rank is a
// direct child of the root (the §V-B comparison topology; equivalent to
// BuildBroadcastTree with FlatLevels).
func NewLinearTree(n, root int) (*Tree, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: empty communicator")
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, n)
	}
	t := newTree(n, root)
	t.Children[root] = make([]int, 0, n-1)
	for r := 0; r < n; r++ {
		if r != root {
			t.Parent[r] = root
			t.ParentWeight[r] = 1
			t.Children[root] = append(t.Children[root], r)
		}
	}
	return t, nil
}

// Size returns the number of ranks spanned.
func (t *Tree) Size() int { return len(t.Parent) }

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, t.Size())
	max := 0
	var walk func(u int)
	walk = func(u int) {
		for _, c := range t.Children[u] {
			depth[c] = depth[u] + 1
			if depth[c] > max {
				max = depth[c]
			}
			walk(c)
		}
	}
	walk(t.Root)
	return max
}

// DepthOf returns the depth of rank r (root = 0).
func (t *Tree) DepthOf(r int) int {
	d := 0
	for p := t.Parent[r]; p != -1; p = t.Parent[p] {
		d++
	}
	return d
}

// TotalWeight sums edge weights (the MST objective).
func (t *Tree) TotalWeight() int {
	sum := 0
	for r := range t.Parent {
		sum += t.ParentWeight[r]
	}
	return sum
}

// EdgesAtWeight counts tree edges with the given construction weight; the
// paper's optimality argument is that the count at the slowest level is
// minimal (one edge per distance cluster).
func (t *Tree) EdgesAtWeight(w int) int {
	c := 0
	for r := range t.Parent {
		if t.Parent[r] != -1 && t.ParentWeight[r] == w {
			c++
		}
	}
	return c
}

// PathToRoot returns r, parent(r), …, root.
func (t *Tree) PathToRoot(r int) []int {
	path := []int{r}
	for p := t.Parent[r]; p != -1; p = t.Parent[p] {
		path = append(path, p)
	}
	return path
}

// Validate checks structural invariants: exactly one root, acyclic parent
// chains, children consistent with parents.
func (t *Tree) Validate() error {
	n := t.Size()
	if n == 0 {
		return fmt.Errorf("core: empty tree")
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("core: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("core: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	for r := 0; r < n; r++ {
		if r == t.Root {
			continue
		}
		p := t.Parent[r]
		if p < 0 || p >= n {
			return fmt.Errorf("core: rank %d has invalid parent %d", r, p)
		}
		found := false
		for _, c := range t.Children[p] {
			if c == r {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: rank %d missing from children of %d", r, p)
		}
		steps := 0
		for q := r; q != t.Root; q = t.Parent[q] {
			if steps++; steps > n {
				return fmt.Errorf("core: cycle through rank %d", r)
			}
		}
	}
	total := 0
	for _, cs := range t.Children {
		total += len(cs)
	}
	if total != n-1 {
		return fmt.Errorf("core: %d child links, want %d", total, n-1)
	}
	return nil
}

// Render draws the tree as an indented outline with edge weights.
func (t *Tree) Render() string {
	var b strings.Builder
	var walk func(u, indent int)
	walk = func(u, indent int) {
		b.WriteString(strings.Repeat("  ", indent))
		if u == t.Root {
			fmt.Fprintf(&b, "P%d (root)\n", u)
		} else {
			fmt.Fprintf(&b, "P%d (w=%d)\n", u, t.ParentWeight[u])
		}
		for _, c := range t.Children[u] {
			walk(c, indent+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
