package core_test

// Cluster-scale regression: hierarchical construction at 10k ranks must
// finish inside a CI-grade wall-clock budget without ever allocating
// anything near the dense O(n²) matrix (10240² ints ≈ 800 MB — the dense
// path cannot pass the allocation gate, which is the point of the sparse
// construction).

import (
	"runtime"
	"testing"
	"time"

	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
)

// tenKTopology builds the 10k-rank reference platform: 4 racks × 4
// switches × 40 nodes × 16 cores = 10240 ranks.
func tenKTopology(t testing.TB) *hwtopo.Topology {
	t.Helper()
	node := hwtopo.IGLiteSpec()
	node.Name = "scalenode"
	node.CoresPerDie = 8 // 2 sockets × 8 = 16 cores per node
	topo, err := hwtopo.BuildCluster(hwtopo.ClusterSpec{
		Name:            "scale10k",
		Racks:           4,
		SwitchesPerRack: 4,
		NodesPerSwitch:  40,
		Node:            node,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestHierConstruction10k: build the sparse view, the two-phase broadcast
// tree and the hierarchical ring over all 10240 ranks, bounding wall clock
// and heap growth. The allocation gate (64 MB) sits an order of magnitude
// under the ~800 MB dense matrix, so any regression that materializes the
// O(n²) representation fails loudly.
func TestHierConstruction10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank construction suite skipped in -short mode")
	}
	topo := tenKTopology(t)
	n := topo.NumCores()
	if n != 10240 {
		t.Fatalf("scale topology has %d cores, want 10240", n)
	}
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	cv, err := distance.NewClustered(topo, cores)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BuildBroadcastTreeHier(cv, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := core.BuildAllgatherRingHier(cv, core.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}

	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	if budget := 30 * time.Second; elapsed > budget {
		t.Errorf("10k construction took %v, budget %v", elapsed, budget)
	}
	if limit := uint64(64 << 20); allocated > limit {
		t.Errorf("10k construction allocated %d bytes, limit %d (dense matrix would be ~%d)",
			allocated, limit, 8*n*n)
	}
	t.Logf("10k construction: %v wall, %d bytes allocated", elapsed, allocated)

	// Structural spot checks: the tree spans every rank, the ring closes,
	// and exactly one leader is elected per node.
	if got := tree.Size(); got != n {
		t.Fatalf("tree size %d, want %d", got, n)
	}
	leaders := core.TreeLeaders(tree, cv)
	if want := len(cv.Machines()); len(leaders) != want {
		t.Fatalf("%d leaders elected, want one per machine (%d)", len(leaders), want)
	}
	seen := 0
	for v, i := 0, 0; i < n; i++ {
		v = ring.Right[v]
		seen++
		if v == 0 {
			break
		}
	}
	if seen != n {
		t.Fatalf("ring closes after %d hops, want %d", seen, n)
	}

	// Every inter-node edge connects two leaders; no subtree crosses a
	// machine boundary except through its elected leader.
	isLeader := make(map[int]bool, len(leaders))
	for _, l := range leaders {
		isLeader[l] = true
	}
	for v := 0; v < n; v++ {
		p := tree.Parent[v]
		if p < 0 {
			continue
		}
		if cv.MachineIndex(p) != cv.MachineIndex(v) && !isLeader[v] {
			t.Fatalf("rank %d crosses machines to parent %d without being a leader", v, p)
		}
	}
}

// TestHierConstruction10kAllocs pins the per-call allocation count of a
// repeat construction over a prebuilt view: the hierarchy is two arrays,
// the tree five, the walks share one scratch slab, and nothing is
// allocated per rank, per machine or per cluster.
func TestHierConstruction10kAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank construction suite skipped in -short mode")
	}
	topo := tenKTopology(t)
	n := topo.NumCores()
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}
	cv, err := distance.NewClustered(topo, cores)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerRun := testing.AllocsPerRun(3, func() {
		if _, err := core.BuildBroadcastTreeHier(cv, 0, core.TreeOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 17 (10,240 ranks on 640 machines under 16 switches) plus a
	// quarter: one allocation per machine would read 657.
	if limit := 22.0; bytesPerRun > limit {
		t.Errorf("tree construction does %.0f allocs/run, limit %.0f", bytesPerRun, limit)
	}
	t.Logf("tree construction: %.0f allocs/run", bytesPerRun)
}
