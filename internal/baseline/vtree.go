// Package baseline implements the placement-agnostic collective algorithms
// the paper compares against: the classic rank-based topologies (binomial,
// binary, chain, linear trees; ring, recursive-doubling and Bruck
// allgathers; van de Geijn scatter+allgather broadcast) together with
// size-based decision functions approximating Open MPI's tuned component
// and MPICH2-1.4.
//
// Everything here is built from MPI ranks only — deliberately blind to
// process placement. That blindness is the paper's "mismatch problem":
// under adversarial bindings these schedules cross slow links far more
// often than the distance-aware ones in package core.
package baseline

import (
	"fmt"

	"distcoll/internal/core"
)

// vrank maps a rank to its virtual rank relative to the tree root.
func vrank(rank, root, n int) int { return (rank - root + n) % n }

// rankOf inverts vrank.
func rankOf(v, root, n int) int { return (v + root) % n }

// BinomialTree builds the standard MPI binomial broadcast tree over ranks
// (the Fig. 1 topology): virtual rank v joins the tree under v − lowbit(v),
// and a parent sends to its farthest child first.
func BinomialTree(n, root int) (*core.Tree, error) {
	if err := checkTreeArgs(n, root); err != nil {
		return nil, err
	}
	t := newRankTree(n, root)
	for v := 1; v < n; v++ {
		mask := 1
		for v&mask == 0 {
			mask <<= 1
		}
		parentV := v - mask
		t.Parent[rankOf(v, root, n)] = rankOf(parentV, root, n)
	}
	// Children in decreasing-offset order (farthest subtree first), the
	// order MPICH/Open MPI issue their sends in.
	for v := 0; v < n; v++ {
		r := rankOf(v, root, n)
		for mask := highestPow2Below(n); mask > 0; mask >>= 1 {
			cv := v + mask
			if cv < n && v&(mask-1) == 0 && v&mask == 0 {
				t.Children[r] = append(t.Children[r], rankOf(cv, root, n))
			}
		}
	}
	fillWeights(t)
	return t, nil
}

func highestPow2Below(n int) int {
	m := 1
	for m<<1 < n {
		m <<= 1
	}
	return m
}

// ChainTree builds the pipeline chain (tuned's large-message broadcast
// topology): virtual rank v's parent is v−1.
func ChainTree(n, root int) (*core.Tree, error) {
	if err := checkTreeArgs(n, root); err != nil {
		return nil, err
	}
	t := newRankTree(n, root)
	for v := 1; v < n; v++ {
		t.Parent[rankOf(v, root, n)] = rankOf(v-1, root, n)
		t.Children[rankOf(v-1, root, n)] = append(t.Children[rankOf(v-1, root, n)], rankOf(v, root, n))
	}
	fillWeights(t)
	return t, nil
}

func newRankTree(n, root int) *core.Tree {
	t := &core.Tree{
		Root:         root,
		Parent:       make([]int, n),
		Children:     make([][]int, n),
		ParentWeight: make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

// fillWeights marks every edge with weight 1; rank-based trees know
// nothing about distance, which is exactly their defect.
func fillWeights(t *core.Tree) {
	for r := range t.Parent {
		if t.Parent[r] != -1 {
			t.ParentWeight[r] = 1
		}
	}
}

func checkTreeArgs(n, root int) error {
	if n <= 0 {
		return fmt.Errorf("baseline: communicator size %d", n)
	}
	if root < 0 || root >= n {
		return fmt.Errorf("baseline: root %d out of range [0,%d)", root, n)
	}
	return nil
}
