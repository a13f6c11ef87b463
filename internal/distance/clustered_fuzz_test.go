package distance_test

import (
	"testing"

	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
)

// FuzzClusteredView decodes a payload into a cluster shape, a node shape
// plus a placement and checks the sparse view's metric invariants against
// the dense oracle: symmetry, zero diagonal, the strong triangle inequality
// (the ultrametric law every hierarchical machine metric obeys), and
// entry-for-entry equality with distance.NewMatrix — the hwtopo
// predicates — over the same placement. The node shape varies every tier
// the view keeps a coordinate for: boards, sockets, dies under a socket,
// one controller per socket or one per machine, shared and private caches.
func FuzzClusteredView(f *testing.F) {
	// racks, switches, nodes, node shape (low 2 bits cores-per-die, then one
	// bit per departure from IG-lite), then placement selector bytes.
	f.Add([]byte{0, 2, 2, 3, 0x55, 0xaa})
	f.Add([]byte{2, 2, 2, 2, 0xff, 0x0f, 0xf0})
	f.Add([]byte{3, 1, 3, 4, 0x01, 0x80, 0x7e, 0x3c})
	f.Add([]byte{1, 1, 1, 2, 0xff})
	f.Add([]byte{0, 1, 2, 0x35, 0xff, 0xff, 0xff, 0xff})       // two boards, two dies, one controller (Zoot-like)
	f.Add([]byte{1, 2, 1, 0xc9, 0xb7, 0xff, 0x6d})             // one socket, no caches at all
	f.Add([]byte{0, 2, 3, 0x52, 0xff, 0x0f, 0xff, 0xf0, 0xff}) // two dies, private caches only
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		node := hwtopo.IGLiteSpec()
		node.Name = "fuzznode"
		shape := data[3]
		node.CoresPerDie = 1 + int(shape%4)
		if shape&0x04 != 0 {
			node.Boards = 2
		}
		if shape&0x08 != 0 {
			node.SocketsPerBoard = 1
		}
		if shape&0x10 != 0 {
			node.DiesPerSocket = 2
		}
		if shape&0x20 != 0 {
			node.NUMAPerSocket = false
		}
		if shape&0x40 != 0 {
			node.SharedCacheSize = 0
		}
		if shape&0x80 != 0 {
			node.PrivateL1, node.PrivateL2 = 0, 0
		}
		spec := hwtopo.ClusterSpec{
			Name:           "fuzzcluster",
			Racks:          int(data[0] % 4),
			NodesPerSwitch: 1 + int(data[2]%3),
			Node:           node,
		}
		if spec.Racks > 0 {
			spec.SwitchesPerRack = 1 + int(data[1]%3)
		} else {
			spec.Switches = 1 + int(data[1]%3)
		}
		topo, err := hwtopo.BuildCluster(spec)
		if err != nil {
			t.Fatalf("spec %+v rejected: %v", spec, err)
		}
		// Placement: bit k of the selector bytes keeps core k; duplicates
		// of the last selected core pad the set to ≥ 2 ranks (co-scheduled
		// processes are legal and must give distance 0).
		total := topo.NumCores()
		var cores []int
		for k := 0; k < total && k < 8*(len(data)-4); k++ {
			if data[4+k/8]&(1<<(k%8)) != 0 {
				cores = append(cores, k)
			}
		}
		if len(cores) == 0 {
			t.Skip()
		}
		if len(cores) == 1 {
			cores = append(cores, cores[0])
		}
		if len(cores) > 48 {
			cores = cores[:48]
		}
		cv, err := distance.NewClustered(topo, cores)
		if err != nil {
			t.Fatalf("placement %v rejected: %v", cores, err)
		}
		n := cv.Size()
		dense := distance.NewMatrix(topo, cores)
		for i := 0; i < n; i++ {
			if d := cv.At(i, i); d != distance.SameCore {
				t.Fatalf("At(%d,%d) = %d, want 0", i, i, d)
			}
			for j := 0; j < n; j++ {
				d := cv.At(i, j)
				if d < 0 || d > distance.Max {
					t.Fatalf("At(%d,%d) = %d outside [0,%d]", i, j, d, distance.Max)
				}
				if back := cv.At(j, i); back != d {
					t.Fatalf("asymmetric: At(%d,%d)=%d, At(%d,%d)=%d", i, j, d, j, i, back)
				}
				if dd := dense.At(i, j); dd != d {
					t.Fatalf("sparse At(%d,%d)=%d, dense %d (cores %v)", i, j, d, dd, cores)
				}
			}
		}
		// Strong triangle inequality d(i,k) ≤ max(d(i,j), d(j,k)).
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a, b := cv.At(i, j), cv.At(j, k)
					if b > a {
						a = b
					}
					if cv.At(i, k) > a {
						t.Fatalf("ultrametric violated at (%d,%d,%d): %d > max(%d,%d)",
							i, j, k, cv.At(i, k), cv.At(i, j), cv.At(j, k))
					}
				}
			}
		}
		// Every other rank's cores, as a view of their own — how a shrunken
		// communicator derives its view — must preserve the metric.
		var half, halfCores []int
		for i := 0; i < n; i += 2 {
			half = append(half, i)
			halfCores = append(halfCores, cores[i])
		}
		sub, err := distance.NewClustered(topo, halfCores)
		if err != nil {
			t.Fatalf("survivor view: %v", err)
		}
		for i := range half {
			for j := range half {
				if got, want := sub.At(i, j), cv.At(half[i], half[j]); got != want {
					t.Fatalf("survivors' At(%d,%d)=%d, parent %d", i, j, got, want)
				}
			}
		}
	})
}
