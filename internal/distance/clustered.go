package distance

import (
	"fmt"

	"distcoll/internal/hwtopo"
)

// View is read-only access to a process-distance relation. Clustered is
// the implementation every communicator carries; Matrix the dense one
// figures, tools and oracle tests build. Consumers that only probe
// pairwise distances (tree construction, fingerprinting, trace tagging)
// accept a View, so nothing has to materialize the O(n²) rank-pair matrix.
type View interface {
	// Size returns the number of processes.
	Size() int
	// At returns the distance between processes i and j.
	At(i, j int) int
}

var (
	_ View = Matrix(nil)
	_ View = (*Clustered)(nil)
)

// Clustered is the sparse distance view of a placement: O(n) state — one
// core binding plus the coordinates of that core at every tier of the
// hardware and network hierarchy — instead of the O(n²) dense matrix. At
// answers every query from two coordinate rows in O(1) without touching
// the hardware tree. The view also exposes the network grouping
// (Machines, and the per-rank coordinate accessors) so hierarchical
// construction can decompose the rank set without any pairwise scan. A
// single machine is a one-machine cluster.
type Clustered struct {
	cores []int // logical core index per rank
	at    []place
	multi bool // the placement spans more than one machine
}

// place holds one core's coordinates: the index of its ancestor at each
// tier, -1 (nil for mc) where it has none. Two cores without an ancestor
// at a network tier, the machine tier or the board tier share that tier's
// one implicit object; a missing socket, cache or controller is shared
// with nobody — the rules of BetweenCores.
type place struct {
	rack, sw, mach int
	board, socket  int
	cache          int            // outermost cache above the core: any shared cache is it or below it
	mc             *hwtopo.Object // owner of the serving memory controller (any kind, so no index)
}

func placeOf(c *hwtopo.Object) place {
	p := place{
		rack: index(hwtopo.RackOf(c)), sw: index(hwtopo.SwitchOf(c)), mach: index(hwtopo.MachineOf(c)),
		board: index(c.AncestorOfKind(hwtopo.KindBoard)), socket: index(c.AncestorOfKind(hwtopo.KindSocket)),
		cache: -1, mc: hwtopo.MemoryControllerOf(c),
	}
	for a := c.Parent; a != nil; a = a.Parent {
		if a.IsCache() {
			p.cache = a.Index
		}
	}
	return p
}

func index(o *hwtopo.Object) int {
	if o == nil {
		return -1
	}
	return o.Index
}

// to returns the distance between two distinct cores from their
// coordinates alone.
func (p *place) to(q *place) int {
	if p.mach != q.mach {
		switch {
		case p.sw == q.sw:
			return SameSwitch
		case p.rack == q.rack:
			return CrossSwitch
		default:
			return CrossRack
		}
	}
	if p.cache >= 0 && p.cache == q.cache {
		return SharedCache
	}
	sameSocket := p.socket >= 0 && p.socket == q.socket
	sameMC := p.mc != nil && p.mc == q.mc
	switch {
	case sameSocket && sameMC:
		return SameSocketSameMC
	case sameMC:
		return CrossSocketSameMC
	case sameSocket:
		return SameSocketCrossMC
	case p.board == q.board:
		return SameBoard
	default:
		return CrossBoard
	}
}

// NewClustered builds the distance view for processes bound to the given
// logical core indices of t, in O(n · tree depth) time and O(n) space.
func NewClustered(t *hwtopo.Topology, coreOf []int) (*Clustered, error) {
	cv := &Clustered{
		cores: append([]int(nil), coreOf...),
		at:    make([]place, len(coreOf)),
	}
	for i, c := range coreOf {
		obj := t.Core(c)
		if obj == nil {
			return nil, fmt.Errorf("distance: rank %d bound to core %d of %d", i, c, t.NumCores())
		}
		cv.at[i] = placeOf(obj)
		cv.multi = cv.multi || cv.at[i].mach != cv.at[0].mach
	}
	return cv, nil
}

// Size returns the number of processes.
func (cv *Clustered) Size() int { return len(cv.cores) }

// At returns the distance between processes i and j. It reads the two
// ranks' cached coordinates only: O(1), no allocation, no tree walk.
func (cv *Clustered) At(i, j int) int {
	if cv.cores[i] == cv.cores[j] {
		return SameCore
	}
	return cv.at[i].to(&cv.at[j])
}

// MultiMachine reports whether the placement spans more than one machine.
func (cv *Clustered) MultiMachine() bool { return cv.multi }

// MachineIndex returns the machine coordinate of rank i. Ranks with equal
// coordinates are on the same node (-1: the implicit machine of a
// topology without machine objects).
func (cv *Clustered) MachineIndex(i int) int { return cv.at[i].mach }

// SwitchIndex returns the switch coordinate of rank i (-1 on topologies
// without switches).
func (cv *Clustered) SwitchIndex(i int) int { return cv.at[i].sw }

// RackIndex returns the rack coordinate of rank i (-1 on topologies
// without racks).
func (cv *Clustered) RackIndex(i int) int { return cv.at[i].rack }

// Machines groups ranks by node, in increasing order of each group's
// smallest rank, with ranks ascending inside every group. Cost O(n).
func (cv *Clustered) Machines() [][]int {
	if !cv.multi {
		all := make([]int, len(cv.at))
		for r := range all {
			all[r] = r
		}
		return [][]int{all}
	}
	idx := make(map[int]int, 8)
	var groups [][]int
	for r := range cv.at {
		g, ok := idx[cv.at[r].mach]
		if !ok {
			g = len(groups)
			idx[cv.at[r].mach] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

// PairHistogram counts the unordered process pairs of v at each distance
// (values outside the scale clamp to its ends). A Clustered view spanning
// machines is counted combinatorially — pair loops inside each machine,
// closed-form counts per network tier: every cross-machine pair under one
// switch is SameSwitch, every cross-switch pair in one rack CrossSwitch,
// every cross-rack pair CrossRack — in O(n + Σ k²) for per-node group
// sizes k; one machine, or any other view, is the plain pair loop, which
// allocates nothing.
func PairHistogram(v View) (hist [Max + 1]int64) {
	cv, ok := v.(*Clustered)
	if !ok || !cv.multi {
		for i, n := 0, v.Size(); i < n; i++ {
			for j := i + 1; j < n; j++ {
				hist[min(max(v.At(i, j), 0), Max)]++
			}
		}
		return hist
	}
	bySwitch := make(map[int]int64)
	byRack := make(map[int]int64)
	var sumMach2, sumSwitch2, sumRack2 int64
	for _, mach := range cv.Machines() {
		for i, a := range mach {
			for _, b := range mach[i+1:] {
				hist[cv.At(a, b)]++
			}
		}
		k := int64(len(mach))
		sumMach2 += k * k
		bySwitch[cv.SwitchIndex(mach[0])] += k
		byRack[cv.RackIndex(mach[0])] += k
	}
	for _, k := range bySwitch {
		sumSwitch2 += k * k
	}
	for _, k := range byRack {
		sumRack2 += k * k
	}
	n := int64(cv.Size())
	hist[SameSwitch] += (sumSwitch2 - sumMach2) / 2
	hist[CrossSwitch] += (sumRack2 - sumSwitch2) / 2
	hist[CrossRack] += (n*n - sumRack2) / 2
	return hist
}

// Materialize flattens a view into a dense Matrix. O(n²) — for tools and
// oracle tests only; the runtime stays on the view.
func Materialize(v View) Matrix {
	if m, ok := v.(Matrix); ok {
		return m
	}
	n := v.Size()
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := v.At(i, j)
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}
