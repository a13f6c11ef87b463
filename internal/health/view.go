package health

import (
	"sort"

	"distcoll/internal/distance"
)

// Snapshot is an immutable set of demoted edges and ranks, keyed by
// world rank, published by the Scorer at a given revision.
type Snapshot struct {
	rev      int64
	demoteTo int
	edges    map[[2]int]bool
	ranks    map[int]bool
	members  map[int]bool // every rank touched by a demotion
}

func emptySnapshot(demoteTo int) *Snapshot {
	return newSnapshot(0, demoteTo, nil, nil)
}

func newSnapshot(rev int64, demoteTo int, edges map[[2]int]bool, ranks map[int]bool) *Snapshot {
	s := &Snapshot{rev: rev, demoteTo: demoteTo, edges: edges, ranks: ranks,
		members: make(map[int]bool)}
	for k := range edges {
		s.members[k[0]] = true
		s.members[k[1]] = true
	}
	for r := range ranks {
		s.members[r] = true
	}
	return s
}

// Rev returns the revision this snapshot was published at.
func (s *Snapshot) Rev() int64 { return s.rev }

// DemoteTo returns the distance class demoted edges are raised to.
func (s *Snapshot) DemoteTo() int { return s.demoteTo }

// Empty reports whether no demotions are active.
func (s *Snapshot) Empty() bool { return len(s.edges) == 0 && len(s.ranks) == 0 }

// Demoted reports whether the (world-rank) pair a,b is demoted.
func (s *Snapshot) Demoted(a, b int) bool {
	if a == b {
		return false
	}
	if s.ranks[a] || s.ranks[b] {
		return true
	}
	return s.edges[normEdge(a, b)]
}

// Edges returns the demoted edges, sorted.
func (s *Snapshot) Edges() [][2]int {
	out := make([][2]int, 0, len(s.edges))
	for k := range s.edges {
		out = append(out, k)
	}
	sortEdges(out)
	return out
}

// Ranks returns the demoted ranks, sorted.
func (s *Snapshot) Ranks() []int { return sortedKeys(s.ranks) }

func sortEdges(keys [][2]int) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// View overlays a demotion snapshot on a base distance view: a demoted
// pair reads as the demotion class PLUS its base class, everything else
// passes through. Adding the base class (rather than flattening every
// demoted pair to one value) keeps the demoted region order-preserving:
// when a builder cannot avoid the demoted set entirely — the root of a
// broadcast must serve at least one child even when the root rank
// itself is demoted — minimum-weight selection still picks the
// genuinely nearest demoted edge instead of an arbitrary one, which may
// be the very link the demotion was meant to route around. The overlay
// deliberately breaks ultrametricity — the greedy builders'
// non-ultrametric escape hatch and the hierarchical builders' pairwise
// fallback both accept such views, and minimum-weight edge selection
// then routes around the demoted pairs wherever an alternative exists.
type View struct {
	base  distance.View
	group []int // view index → world rank; nil = identity
	snap  *Snapshot
}

var _ distance.View = (*View)(nil)

// WrapView overlays snap on base. group maps view indices to world
// ranks (nil for identity). When the snapshot is empty or touches no
// member of the group, base is returned unchanged — so undemoted
// communicators keep their concrete view type (and with it the sparse
// hierarchical fast paths and unchanged topology hashes).
func WrapView(base distance.View, group []int, snap *Snapshot) distance.View {
	if base == nil || snap == nil || snap.Empty() {
		return base
	}
	touched := false
	if group == nil {
		n := base.Size()
		for w := range snap.members {
			if w >= 0 && w < n {
				touched = true
				break
			}
		}
	} else {
		for _, w := range group {
			if snap.members[w] {
				touched = true
				break
			}
		}
	}
	if !touched {
		return base
	}
	return &View{base: base, group: group, snap: snap}
}

// Size implements distance.View.
func (v *View) Size() int { return v.base.Size() }

// At implements distance.View: the base distance, raised to the
// demotion class plus the base class for demoted pairs — above every
// healthy edge, ordered among themselves by true proximity.
func (v *View) At(i, j int) int {
	d := v.base.At(i, j)
	if i == j || d >= v.snap.demoteTo {
		return d
	}
	a, b := i, j
	if v.group != nil {
		a, b = v.group[i], v.group[j]
	}
	if v.snap.Demoted(a, b) {
		return v.snap.demoteTo + d
	}
	return d
}

// Base returns the wrapped view.
func (v *View) Base() distance.View { return v.base }

// Snap returns the snapshot this view applies.
func (v *View) Snap() *Snapshot { return v.snap }

// Hash fingerprints the demotions as this view's members see them — the
// demoted pairs and ranks in view indices, never world ranks — for
// plan-cache topology keys: two placement-congruent communicators share a
// plan under one snapshot exactly when it demotes the same member-relative
// pairs in both, and a demotion wholly outside the group changes nothing.
// Identical sets hash identically whatever revision produced them.
func (v *View) Hash() uint64 {
	world := func(i int) int {
		if v.group != nil {
			return v.group[i]
		}
		return i
	}
	var touched []int // view indices a demotion touches, ascending
	for i := 0; i < v.base.Size(); i++ {
		if v.snap.members[world(i)] {
			touched = append(touched, i)
		}
	}
	// FNV-1a over the demotion set in ascending member-relative order.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(v.snap.demoteTo))
	for a, i := range touched {
		for _, j := range touched[a+1:] {
			if v.snap.edges[normEdge(world(i), world(j))] {
				mix(uint64(i)<<32 | uint64(uint32(j)))
			}
		}
	}
	mix(0xffffffffffffffff) // an edge {a,b} and the ranks a, b must not collide
	for _, i := range touched {
		if v.snap.ranks[world(i)] {
			mix(uint64(i))
		}
	}
	return h
}
