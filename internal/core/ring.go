package core

import (
	"fmt"
	"strings"

	"distcoll/internal/distance"
	"distcoll/internal/unionfind"
)

// Ring is an allgather topology: a single cycle over ranks 0..n-1.
type Ring struct {
	// Right[r] and Left[r] are r's ring neighbors; data blocks flow left →
	// right (each rank pulls from its left neighbor in the paper's
	// receiver-driven scheme).
	Right []int
	Left  []int
	// RightWeight[r] is the construction weight of edge r→Right[r].
	RightWeight []int
	// Trace is the accepted-edge sequence (only when requested), excluding
	// the final closing edge, which is recorded separately.
	Trace   []UnionStep
	Closing Edge
}

// RingOptions tunes BuildAllgatherRing.
type RingOptions struct {
	// Levels coarsens distances before construction; nil = IdentityLevels.
	Levels Levels
	// Ordering selects the equal-weight tie-break (default RingCanonical).
	Ordering RingOrdering
	// RecordTrace captures the union sequence.
	RecordTrace bool
}

// BuildAllgatherRing runs Algorithm 2 on the distance view: a greedy
// Kruskal-style pass with a fan-out < 2 constraint builds a Hamiltonian
// path whose physical neighbor processes are clustered together; the two
// path endpoints are then joined to close the ring.
func BuildAllgatherRing(m distance.View, opts RingOptions) (*Ring, error) {
	n := m.Size()
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

	edges := allEdges(m, opts.Levels)
	sortRingEdges(edges, opts.Ordering)

	dsu := unionfind.New(n, -1)
	deg := make([]int, n)
	adj := make([][2]int, n) // the fan-out constraint: at most two neighbors
	accepted := 0
	for _, e := range edges {
		if accepted == n-1 {
			break
		}
		if deg[e.U] >= 2 || deg[e.V] >= 2 || dsu.Same(e.U, e.V) {
			continue
		}
		if opts.RecordTrace {
			r.Trace = append(r.Trace, UnionStep{
				Step:    accepted + 1,
				Edge:    e,
				LeaderU: dsu.Leader(e.U),
				LeaderV: dsu.Leader(e.V),
			})
		}
		dsu.Union(e.U, e.V)
		adj[e.U][deg[e.U]] = e.V
		adj[e.V][deg[e.V]] = e.U
		deg[e.U]++
		deg[e.V]++
		accepted++
	}
	if accepted != n-1 {
		return nil, fmt.Errorf("core: ring construction stalled (%d/%d edges)", accepted, n-1)
	}

	// Close the Hamiltonian path: exactly two ranks have degree 1.
	head, tail := -1, -1
	for v := 0; v < n; v++ {
		if deg[v] == 1 {
			if head == -1 {
				head = v
			} else {
				tail = v
			}
		}
	}
	if head == -1 || tail == -1 {
		return nil, fmt.Errorf("core: ring path endpoints not found")
	}
	levels := opts.Levels
	if levels == nil {
		levels = IdentityLevels
	}
	r.Closing = Edge{U: head, V: tail, Weight: levels(m.At(head, tail))}
	adj[head][1], adj[tail][1] = tail, head

	// Orient the cycle deterministically: start at rank 0 and walk toward
	// its smaller-ranked neighbor.
	weight := func(a, b int) int { return levels(m.At(a, b)) }
	cur, next := 0, min(adj[0][0], adj[0][1])
	for i := 0; i < n; i++ {
		r.Right[cur] = next
		r.Left[next] = cur
		r.RightWeight[cur] = weight(cur, next)
		nn := adj[next][0]
		if nn == cur {
			nn = adj[next][1]
		}
		cur, next = next, nn
	}
	return r, nil
}

// Size returns the number of ranks.
func (r *Ring) Size() int { return len(r.Right) }

// Order returns the cyclic sequence starting at rank 0 following Right.
func (r *Ring) Order() []int {
	out := make([]int, 0, r.Size())
	cur := 0
	for i := 0; i < r.Size(); i++ {
		out = append(out, cur)
		cur = r.Right[cur]
	}
	return out
}

// EdgesAtWeight counts ring edges with the given construction weight.
func (r *Ring) EdgesAtWeight(w int) int {
	c := 0
	for v := range r.Right {
		if r.RightWeight[v] == w {
			c++
		}
	}
	return c
}

// Validate checks that Right/Left describe one n-cycle.
func (r *Ring) Validate() error {
	n := r.Size()
	if n == 0 {
		return fmt.Errorf("core: empty ring")
	}
	if n == 1 {
		if r.Right[0] != 0 || r.Left[0] != 0 {
			return fmt.Errorf("core: singleton ring must self-link")
		}
		return nil
	}
	seen := make([]bool, n)
	cur := 0
	for i := 0; i < n; i++ {
		if cur < 0 || cur >= n {
			return fmt.Errorf("core: ring neighbor %d out of range", cur)
		}
		if seen[cur] {
			return fmt.Errorf("core: ring revisits rank %d after %d steps", cur, i)
		}
		seen[cur] = true
		next := r.Right[cur]
		if r.Left[next] != cur {
			return fmt.Errorf("core: Left[%d]=%d, want %d", next, r.Left[next], cur)
		}
		cur = next
	}
	if cur != 0 {
		return fmt.Errorf("core: ring does not close at rank 0 (ended at %d)", cur)
	}
	return nil
}

// String renders the ring as "P0 → P5 → … → P0".
func (r *Ring) String() string {
	var b strings.Builder
	for _, v := range r.Order() {
		fmt.Fprintf(&b, "P%d → ", v)
	}
	b.WriteString("P0")
	return b.String()
}
