// Package distance implements the paper's process-distance metric (§IV-A).
//
// The distance between two processes is the distance between the cores they
// are bound to, derived from four hardware factors: (1) sharing any cache,
// (2) residing on the same physical socket, (3) sharing a memory
// controller, and (4) residing on the same physical board. The resulting
// scale is:
//
//	0  same core (two processes time-sharing one core)
//	1  sharing any cache (L1, L2 or L3), regardless of level
//	2  same socket and same memory controller
//	3  different socket, same memory controller
//	4  same socket, different memory controller
//	5  different socket and controller, same board
//	6  different boards
//	7  different machines, same network switch
//	8  different network switches, same rack
//	9  different racks
//
// The paper caps the intra-node scale at 6 and notes that "at the
// inter-node level, the distance can take into account network adapters,
// links, and even switches and routers, by a simple and natural
// extension" — values 7–9 are that extension (§VI future work). On
// topologies without rack objects every switch pair counts as same-rack,
// so the scale degrades to the original 0–8 values.
package distance

import (
	"fmt"
	"strings"

	"distcoll/internal/hwtopo"
)

// Distance values on the paper's scale.
const (
	SameCore          = 0
	SharedCache       = 1
	SameSocketSameMC  = 2
	CrossSocketSameMC = 3
	SameSocketCrossMC = 4
	SameBoard         = 5
	CrossBoard        = 6
	// Inter-node levels (§VI extension).
	SameSwitch  = 7
	CrossSwitch = 8
	CrossRack   = 9

	// MaxIntraNode is the largest intra-node distance (the paper's cap).
	MaxIntraNode = CrossBoard
	// Max is the largest distance including the network extension.
	Max = CrossRack
)

// BetweenCores returns the distance between two cores of one topology,
// from the hwtopo predicates: the reference Clustered.At is checked
// against. Cores with no Machine ancestor share one implicit machine (and
// cores with no Board ancestor one implicit board per machine).
func BetweenCores(a, b *hwtopo.Object) int {
	if a == b {
		return SameCore
	}
	if hwtopo.MachineOf(a) != hwtopo.MachineOf(b) {
		if hwtopo.SameSwitch(a, b) {
			return SameSwitch
		}
		if hwtopo.SameRack(a, b) {
			return CrossSwitch
		}
		return CrossRack
	}
	if hwtopo.SharedCache(a, b) != nil {
		return SharedCache
	}
	sameSocket := hwtopo.SameSocket(a, b)
	sameMC := hwtopo.SameMemoryController(a, b)
	switch {
	case sameSocket && sameMC:
		return SameSocketSameMC
	case !sameSocket && sameMC:
		return CrossSocketSameMC
	case sameSocket && !sameMC:
		return SameSocketCrossMC
	case a.AncestorOfKind(hwtopo.KindBoard) == b.AncestorOfKind(hwtopo.KindBoard):
		return SameBoard
	default:
		return CrossBoard
	}
}

// Between returns the distance between the cores with the given logical
// indices on t. It panics if either index is out of range, since indices
// come from bindings validated against the same topology.
func Between(t *hwtopo.Topology, coreA, coreB int) int {
	a, b := t.Core(coreA), t.Core(coreB)
	if a == nil || b == nil {
		panic(fmt.Sprintf("distance: core index out of range (%d, %d of %d)", coreA, coreB, t.NumCores()))
	}
	return BetweenCores(a, b)
}

// Matrix is a symmetric process-distance matrix: Matrix[i][j] is the
// distance between process i and process j given their core binding.
type Matrix [][]int

// NewMatrix computes the distance matrix for processes bound to the given
// logical core indices of t.
func NewMatrix(t *hwtopo.Topology, coreOf []int) Matrix {
	n := len(coreOf)
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := Between(t, coreOf[i], coreOf[j])
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}

// At returns the distance between processes i and j.
func (m Matrix) At(i, j int) int { return m[i][j] }

// Size returns the number of processes.
func (m Matrix) Size() int { return len(m) }

// MaxValue returns the largest distance in the matrix (0 for n < 2).
func (m Matrix) MaxValue() int {
	max := 0
	for i := range m {
		for j := i + 1; j < len(m); j++ {
			if m[i][j] > max {
				max = m[i][j]
			}
		}
	}
	return max
}

// Clusters groups processes into maximal sets whose pairwise distance is at
// most d, in increasing order of the smallest rank in each set. Because the
// metric is hierarchical (distance ≤ d is an equivalence for the values
// produced by BetweenCores), a simple union of close pairs is exact.
func (m Matrix) Clusters(d int) [][]int { return Clusters(m, d) }

// Clusters is Matrix.Clusters over any view.
func Clusters(v View, d int) [][]int {
	n := v.Size()
	group := make([]int, n)
	for i := range group {
		group[i] = -1
	}
	var clusters [][]int
	for i := 0; i < n; i++ {
		if group[i] >= 0 {
			continue
		}
		id := len(clusters)
		set := []int{i}
		group[i] = id
		for j := i + 1; j < n; j++ {
			if group[j] < 0 && v.At(i, j) <= d {
				group[j] = id
				set = append(set, j)
			}
		}
		clusters = append(clusters, set)
	}
	return clusters
}

// String renders the matrix with single-digit distances, one row per line.
func (m Matrix) String() string {
	var b strings.Builder
	for i := range m {
		for j := range m[i] {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
