package core_test

// Property tests for the view → topology rule (rule.go): what TreeFor and
// RingFor build for each kind of view, against the builders they replace at
// every call site.

import (
	"math/rand"
	"reflect"
	"testing"

	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
)

// overlay is a pass-through view exposing Base, the shape of health.View.
type overlay struct{ distance.View }

func (o overlay) Base() distance.View { return o.View }

func sameTree(t *testing.T, what string, got, want *core.Tree) {
	t.Helper()
	if !reflect.DeepEqual(got.Parent, want.Parent) || !reflect.DeepEqual(got.ParentWeight, want.ParentWeight) ||
		!reflect.DeepEqual(got.Children, want.Children) {
		t.Fatalf("%s:\n got parent %v weight %v children %v\nwant parent %v weight %v children %v", what,
			got.Parent, got.ParentWeight, got.Children, want.Parent, want.ParentWeight, want.Children)
	}
}

// TestTreeForOneMachineIsAlgorithm1: on a one-machine Clustered view the
// cluster walk TreeFor takes yields the tree of literal Algorithm 1 over
// the dense matrix in Parent, ParentWeight and Children ORDER — compiled
// schedules, and with them the golden traces, follow child order, so
// equality up to a sort (TestFastTreeEquivalence) would not be enough. The
// ring of such a view is literal Algorithm 2.
func TestTreeForOneMachineIsAlgorithm1(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	topos := []*hwtopo.Topology{hwtopo.NewZoot(), hwtopo.NewIG()}
	for iter := 0; iter < 900; iter++ {
		topo := topos[iter%2]
		total := topo.NumCores()
		n := 1 + r.Intn(total)
		cores := r.Perm(total)[:n]
		if iter%7 == 0 && n > 1 {
			cores[n-1] = cores[0] // two ranks sharing a core
		}
		root := r.Intn(n)
		cv, err := distance.NewClustered(topo, cores)
		if err != nil {
			t.Fatal(err)
		}
		m := distance.NewMatrix(topo, cores)
		got, err := core.TreeFor(cv, root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BuildBroadcastTree(m, root, core.TreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, "one-machine tree", got, want)

		ring, err := core.RingFor(cv)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.BuildAllgatherRing(m, core.RingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ring.Right, ref.Right) || !reflect.DeepEqual(ring.RightWeight, ref.RightWeight) {
			t.Fatalf("iter %d: one-machine ring %v, Algorithm 2 gives %v", iter, ring.Right, ref.Right)
		}
	}
}

// TestRuleMultiMachineUnchanged: across machines the rule is the
// hierarchical pair of builders, for the view itself and for an overlay of
// it; an overlay of a one-machine view, and a bare matrix, get the literal
// algorithms.
func TestRuleMultiMachineUnchanged(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for iter := 0; iter < 150; iter++ {
		cv := randClusterView(t, r)
		root := r.Intn(cv.Size())
		for _, v := range []distance.View{cv, overlay{cv}, distance.Materialize(cv)} {
			hier := cv.MultiMachine()
			if _, isMatrix := v.(distance.Matrix); isMatrix {
				hier = false
			}
			wantTree, err := core.BuildBroadcastTree(v, root, core.TreeOptions{})
			wantRing, err2 := core.BuildAllgatherRing(v, core.RingOptions{})
			if hier {
				wantTree, err = core.BuildBroadcastTreeHier(v, root, core.TreeOptions{})
				wantRing, err2 = core.BuildAllgatherRingHier(v, core.RingOptions{})
			}
			if err != nil || err2 != nil {
				t.Fatal(err, err2)
			}
			tree, err := core.TreeFor(v, root)
			if err != nil {
				t.Fatal(err)
			}
			ring, err := core.RingFor(v)
			if err != nil {
				t.Fatal(err)
			}
			// (A bare one-machine Clustered takes the cluster walk, which
			// equals the literal tree it is compared with here.)
			sameTree(t, "rule tree", tree, wantTree)
			if !reflect.DeepEqual(ring.Right, wantRing.Right) {
				t.Fatalf("iter %d (%T, hier=%v): ring %v, want %v", iter, v, hier, ring.Right, wantRing.Right)
			}
		}
	}
}

// demoted is an overlay raising one pair above every physical distance, the
// way health.View prices a demoted edge.
type demoted struct {
	distance.View
	a, b int
}

func (d demoted) Base() distance.View { return d.View }

func (d demoted) At(i, j int) int {
	if (i == d.a && j == d.b) || (i == d.b && j == d.a) {
		return d.View.At(i, j) + distance.Max + 1
	}
	return d.View.At(i, j)
}

// TestAlltoallGroupsByPhysicalMachine: the hierarchical alltoall aggregates
// per machine, and a demoted edge is slower, not on another node — under an
// overlay the grouping reads the physical view, so the schedule is the one
// the bare placement gets: the direct fallback on one machine (a demoted
// pair there would otherwise read as a second "node"), the same leaders and
// staging across several.
func TestAlltoallGroupsByPhysicalMachine(t *testing.T) {
	for _, topo := range []*hwtopo.Topology{hwtopo.NewIG(), hwtopo.NewIGCluster()} {
		cores := make([]int, 24)
		for i := range cores {
			cores[i] = 2 * i
		}
		cv, err := distance.NewClustered(topo, cores)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.CompileAlltoallHierarchical(cv, 128)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.CompileAlltoallHierarchical(demoted{cv, 0, 1}, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, staged := want.FindBuffer(0, "packed"); staged != cv.MultiMachine() {
			t.Fatalf("%s: bare placement staged = %v, want %v", topo.Name, staged, cv.MultiMachine())
		}
		if !reflect.DeepEqual(got.Ops, want.Ops) {
			t.Errorf("%s: a demoted intra-node pair changed the alltoall's grouping", topo.Name)
		}
	}
}
