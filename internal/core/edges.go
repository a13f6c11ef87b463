// Package core implements the paper's primary contribution (§IV): adaptive
// collective communication topologies constructed from runtime process
// distance instead of MPI ranks.
//
// Two constructions are provided:
//
//   - BuildBroadcastTree — Algorithm 1, a modified Kruskal minimum spanning
//     tree whose edge ordering (weight, then root-covering edges, then
//     ranks) yields a minimum-depth minimum-weight broadcast tree rooted at
//     the broadcast root.
//   - BuildAllgatherRing — Algorithm 2, a greedy ring construction with a
//     fan-out ≤ 2 constraint that clusters physical neighbors and closes
//     the resulting Hamiltonian path into a ring.
//
// Both consume a distance.View, so they adapt automatically to the
// communicator membership, the process placement and the hardware — the
// three ingredients whose mismatch the paper diagnoses.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"distcoll/internal/distance"
)

// Edge is an undirected candidate edge between two communicator ranks with
// its process-distance weight. U < V canonically.
type Edge struct {
	U, V   int
	Weight int
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d|w=%d)", e.U, e.V, e.Weight) }

// Levels transforms raw process distances into construction weights. It
// lets callers coarsen the hierarchy, reproducing the paper's §V-B
// discussion: on Zoot, ignoring the inter-socket distance (3) collapses
// the tree into a linear topology that outperforms the hierarchical one
// for large messages on a single memory controller.
type Levels func(d int) int

// IdentityLevels keeps the full distance hierarchy (the default).
func IdentityLevels(d int) int { return d }

// FlatLevels ignores all distance structure: every pair is equally far, so
// the broadcast tree degenerates to the linear topology (root → all).
func FlatLevels(int) int { return 1 }

// CollapseBelow merges all distances up to and including d into one level,
// keeping coarser levels distinct. CollapseBelow(2) on Zoot yields the
// paper's "4 sets" two-level hierarchy (socket sets split at distance 3).
func CollapseBelow(d int) Levels {
	return func(x int) int {
		if x <= d {
			return 1
		}
		return x
	}
}

// allEdges enumerates the complete graph over n ranks with transformed
// weights.
func allEdges(m distance.View, levels Levels) []Edge {
	if levels == nil {
		levels = IdentityLevels
	}
	n := m.Size()
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: i, V: j, Weight: levels(m.At(i, j))})
		}
	}
	return edges
}

// sortBroadcastEdges orders edges per Algorithm 1: non-decreasing weight;
// within a weight, edges covering the root first, ordered by their
// non-root vertex rank; then the remaining edges by (smaller rank, larger
// rank). This ordering makes every Kruskal union attach a set to the
// leader (root or minimum rank) of the growing component, producing a
// minimum-depth tree among minimum-weight spanning trees.
func sortBroadcastEdges(edges []Edge, root int) {
	slices.SortFunc(edges, func(ea, eb Edge) int {
		if ea.Weight != eb.Weight {
			return ea.Weight - eb.Weight
		}
		ra, rb := ea.coversRoot(root), eb.coversRoot(root)
		switch {
		case ra && rb:
			return ea.nonRootVertex(root) - eb.nonRootVertex(root)
		case ra:
			return -1
		case rb:
			return 1
		}
		return cmp.Or(ea.U-eb.U, ea.V-eb.V)
	})
}

func (e Edge) coversRoot(root int) bool { return e.U == root || e.V == root }

func (e Edge) nonRootVertex(root int) int {
	if e.U == root {
		return e.V
	}
	return e.U
}

// RingOrdering selects the tie-break used among equal-weight edges in
// Algorithm 2.
type RingOrdering int

const (
	// RingCanonical orders equal-weight edges by rank gap |u−v| first,
	// then (min, max). Within each physical cluster this lays ranks out in
	// non-decreasing order along the ring — the outcome the paper
	// describes for the IG example ("processes in each set are arranged
	// with a non-decreasing order of MPI ranks"). Default.
	RingCanonical RingOrdering = iota
	// RingLexicographic orders equal-weight edges by (min, max) exactly as
	// Algorithm 2's text states. The cluster-contiguity properties are
	// identical; only the order of ranks inside a cluster differs (it
	// zigzags around the cluster's minimum). Provided for the ablation
	// bench comparing the two tie-breaks.
	RingLexicographic
)

func sortRingEdges(edges []Edge, ordering RingOrdering) {
	slices.SortFunc(edges, func(ea, eb Edge) int {
		gap := 0
		if ordering == RingCanonical {
			gap = (ea.V - ea.U) - (eb.V - eb.U)
		}
		return cmp.Or(ea.Weight-eb.Weight, gap, ea.U-eb.U, ea.V-eb.V)
	})
}
