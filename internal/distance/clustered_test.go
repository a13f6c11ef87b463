package distance

import (
	"math/rand"
	"testing"

	"distcoll/internal/hwtopo"
)

// shippedTopologies are the four platforms the repository ships tables
// for: two single machines and two clusters.
func shippedTopologies() []*hwtopo.Topology {
	return []*hwtopo.Topology{hwtopo.NewZoot(), hwtopo.NewIG(), hwtopo.NewIGCluster(), hwtopo.NewIGRack()}
}

// TestClusteredEqualsMatrix: the view every communicator carries answers
// every pair exactly like the dense matrix built from the hwtopo
// predicates, on one machine as on a cluster, and counts the same pair
// histogram without enumerating cross-machine pairs.
func TestClusteredEqualsMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, topo := range shippedTopologies() {
		for iter := 0; iter < 20; iter++ {
			n := 1 + r.Intn(topo.NumCores())
			cores := r.Perm(topo.NumCores())[:n]
			if iter%4 == 0 && n > 1 {
				cores[n-1] = cores[0] // co-scheduled ranks
			}
			cv, err := NewClustered(topo, cores)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMatrix(topo, cores)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got, want := cv.At(i, j), m.At(i, j); got != want {
						t.Fatalf("%s cores %v: At(%d,%d) = %d, matrix %d", topo.Name, cores, i, j, got, want)
					}
				}
			}
			if got, want := PairHistogram(cv), PairHistogram(m); got != want {
				t.Fatalf("%s cores %v: histogram %v, dense loop %v", topo.Name, cores, got, want)
			}
			if got, want := cv.MultiMachine(), m.MaxValue() > MaxIntraNode; got != want {
				t.Fatalf("%s cores %v: MultiMachine %v, max distance %d", topo.Name, cores, got, m.MaxValue())
			}
		}
	}
}

// TestClusteredWithoutMachineObject: a hand-built topology whose root is a
// board — no Machine anywhere — is one implicit machine: the view builds,
// agrees with the matrix, and reads the intra-node scale rather than
// network distances.
func TestClusteredWithoutMachineObject(t *testing.T) {
	board := &hwtopo.Object{Kind: hwtopo.KindBoard}
	os := 0
	for s := 0; s < 2; s++ {
		numa := &hwtopo.Object{Kind: hwtopo.KindNUMANode, MemoryController: true}
		socket := &hwtopo.Object{Kind: hwtopo.KindSocket}
		l3 := &hwtopo.Object{Kind: hwtopo.KindCache, CacheLevel: 3}
		for c := 0; c < 2; c++ {
			l3.Children = append(l3.Children, &hwtopo.Object{Kind: hwtopo.KindCore, OSIndex: os})
			os++
		}
		socket.Children = []*hwtopo.Object{l3}
		numa.Children = []*hwtopo.Object{socket}
		board.Children = append(board.Children, numa)
	}
	topo, err := hwtopo.Finalize("bare", board)
	if err != nil {
		t.Fatal(err)
	}
	cores := []int{0, 1, 2, 3}
	cv, err := NewClustered(topo, cores)
	if err != nil {
		t.Fatalf("a topology without a Machine object must still give a view: %v", err)
	}
	if cv.MultiMachine() {
		t.Error("implicit machine counted as several")
	}
	want := Matrix{{0, 1, 5, 5}, {1, 0, 5, 5}, {5, 5, 0, 1}, {5, 5, 1, 0}}
	m := NewMatrix(topo, cores)
	for i := range cores {
		for j := range cores {
			if cv.At(i, j) != want[i][j] || m.At(i, j) != want[i][j] {
				t.Errorf("At(%d,%d): view %d, matrix %d, want %d", i, j, cv.At(i, j), m.At(i, j), want[i][j])
			}
		}
	}
}

// TestClusteredAtAllocatesNothing: At sits on the traced copy path of
// every world, so it must stay a pair of coordinate-row reads.
func TestClusteredAtAllocatesNothing(t *testing.T) {
	for _, topo := range shippedTopologies() {
		cv, err := NewClustered(topo, topo.OSOrder())
		if err != nil {
			t.Fatal(err)
		}
		n, sum := cv.Size(), 0
		if got := testing.AllocsPerRun(10, func() {
			for i := 0; i < n; i++ {
				sum += cv.At(i, (i*7+3)%n)
			}
		}); got != 0 {
			t.Errorf("%s: Clustered.At allocates (%.0f per %d lookups)", topo.Name, got, n)
		}
	}
}

func BenchmarkClusteredAt(b *testing.B) {
	for _, topo := range []*hwtopo.Topology{hwtopo.NewIG(), hwtopo.NewIGRack()} {
		cv, err := NewClustered(topo, topo.OSOrder())
		if err != nil {
			b.Fatal(err)
		}
		m := Materialize(cv)
		n := cv.Size()
		b.Run(topo.Name+"/clustered", func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += cv.At(i%n, (i*7+3)%n)
			}
			sinkAt = sum
		})
		b.Run(topo.Name+"/matrix", func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += m.At(i%n, (i*7+3)%n)
			}
			sinkAt = sum
		})
	}
}

var sinkAt int
