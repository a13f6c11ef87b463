package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"distcoll/internal/baseline"
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// TestEveryCompilerEmitsProgramOrder is the property behind Validate's
// rule: every schedule any compiler in core, baseline or core/repair.go
// emits — across sizes, communicator sizes, roots, tree shapes and
// algorithms — has every dependency pointing at an earlier op, so the
// rank-ordered executor can always run its lowest unfinished op. The
// check is done by hand here, not through Validate, so the test still
// means something if Validate regresses.
func TestEveryCompilerEmitsProgramOrder(t *testing.T) {
	checked := 0
	check := func(name string, s *sched.Schedule, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range s.Ops {
			for _, d := range s.Ops[i].Deps {
				if d < 0 || int(d) >= i {
					t.Fatalf("%s: op %d depends on op %d", name, i, d)
				}
			}
		}
		ix, err := s.Index()
		if err != nil {
			t.Fatalf("%s: Index: %v", name, err)
		}
		total := 0
		for r := 0; r < s.NumRanks; r++ {
			total += len(ix.RankOps(r))
		}
		if total != len(s.Ops) {
			t.Fatalf("%s: index covers %d of %d ops", name, total, len(s.Ops))
		}
		checked++
	}

	ig := hwtopo.NewIG()
	for _, n := range []int{1, 2, 5, 16, 48} {
		everyCompiler(t, ig, n, int64(n), []int64{1, 63, 4096, 300001, 1 << 20}, check)
	}

	// Every decision the selector can make, flat and clustered (two-phase
	// and linear tree shapes included), through the one decision→schedule
	// mapping the runtime uses.
	cluster := hwtopo.NewIGCluster()
	cb, err := binding.CrossSocket(cluster, 48)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := distance.NewClustered(cluster, cb.Cores())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := binding.CrossSocket(ig, 48)
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		v         distance.View
		clustered bool
	}{{distance.NewMatrix(ig, fb.Cores()), false}, {cv, true}}
	for _, vw := range views {
		for _, coll := range []tune.Collective{tune.CollBcast, tune.CollAllgather, tune.CollReduce, tune.CollAllreduce} {
			for _, d := range tune.Candidates(coll, vw.clustered) {
				for _, size := range []int64{64, 4096, 65536} {
					for _, root := range []int{0, 31} {
						s, err := tune.CompileFor(coll, d, vw.v, root, size, tune.ReduceAlign)
						check(fmt.Sprintf("tune %s %v clustered=%v size=%d root=%d", coll, d, vw.clustered, size, root), s, err)
					}
				}
			}
		}
	}
	t.Logf("%d schedules checked", checked)
}

// everyCompiler hands check one schedule from every compiler of core,
// baseline and core/repair.go, for n ranks placed at random (seed) on topo,
// at each message size: every root, chunking, algorithm and alignment the
// compiler takes.
func everyCompiler(t *testing.T, topo *hwtopo.Topology, n int, seed int64, sizes []int64, check func(name string, s *sched.Schedule, err error)) {
	t.Helper()
	b, err := binding.Random(topo, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.NewMatrix(topo, b.Cores())
	ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	roots := map[int]bool{0: true, n / 2: true, n - 1: true}
	pow2 := n&(n-1) == 0 // the recursive-doubling baselines need it
	for _, size := range sizes {
		tag := fmt.Sprintf("%s n=%d size=%d", topo.Name, n, size)
		for root := range roots {
			tree, err := core.BuildBroadcastTree(m, root, core.TreeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rtag := fmt.Sprintf("%s root=%d", tag, root)
			for _, chunk := range []int64{0, 4096} {
				s, err := core.CompileBroadcast(tree, size, chunk)
				check("core bcast "+rtag, s, err)
				s, err = core.CompileReduce(tree, size, chunk, 0)
				check("core reduce "+rtag, s, err)
				s, err = core.CompileAllreduceTree(tree, size, chunk, 0)
				check("core allreduce tree "+rtag, s, err)
			}
			if size <= 4096 { // gather/scatter stage n·block bytes per rank
				s, err := core.CompileGather(tree, size)
				check("core gather "+rtag, s, err)
				s, err = core.CompileScatter(tree, size)
				check("core scatter "+rtag, s, err)
			}
			for alg := baseline.BcastBinomial; alg <= baseline.BcastScatterRing; alg++ {
				if alg == baseline.BcastScatterRecDoubling && !pow2 {
					continue
				}
				for _, seg := range []int64{0, 8192} {
					s, err := baseline.CompileBcast(alg, n, root, size, seg, baseline.SMKnemBTL())
					check(fmt.Sprintf("baseline bcast %v %s", alg, rtag), s, err)
				}
			}
			s, err := baseline.CompileReduce(n, root, size, baseline.TunedReduceDecision(n, size), baseline.NemesisSM())
			check("baseline reduce "+rtag, s, err)
		}
		if size <= 300001 {
			s, err := core.CompileAllgather(ring, size)
			check("core allgather "+tag, s, err)
			for alg := baseline.AllgatherRing; alg <= baseline.AllgatherBruck; alg++ {
				if alg == baseline.AllgatherRecDoubling && !pow2 {
					continue
				}
				s, err := baseline.CompileAllgather(alg, n, size, baseline.SMKnemBTL())
				check(fmt.Sprintf("baseline allgather %v %s", alg, tag), s, err)
			}
		}
		for _, align := range []int64{1, 8} {
			if size%align != 0 {
				continue
			}
			s, err := core.CompileAllreduce(ring, size, align)
			check("core allreduce "+tag, s, err)
			for alg := baseline.AllreduceRecDoubling; alg <= baseline.AllreduceRing; alg++ {
				if alg == baseline.AllreduceRecDoubling && !pow2 {
					continue
				}
				s, err := baseline.CompileAllreduce(alg, n, size, align, baseline.NemesisSM())
				check(fmt.Sprintf("baseline allreduce %v %s", alg, tag), s, err)
			}
		}
		if size <= 4096 {
			s, err := core.CompileAlltoallHierarchical(m, size)
			check("core alltoall hier "+tag, s, err)
			s, err = core.CompileAlltoallDirect(n, size)
			check("core alltoall direct "+tag, s, err)
			s, err = baseline.CompileAlltoallPairwise(n, size, baseline.SMKnemBTL())
			check("baseline alltoall "+tag, s, err)
		}

		// Delta repair: random verified holdings; the root (rank 0) holds
		// everything, as a surviving broadcast root does.
		rng := rand.New(rand.NewSource(size + int64(n)))
		holds := make([]*recovery.IntervalSet, n)
		segs := make([][]bool, n)
		for r := 0; r < n; r++ {
			holds[r] = recovery.NewSet(nil)
			if r == 0 {
				holds[r].Add(0, size)
			} else if off := rng.Int63n(size); rng.Intn(3) > 0 {
				holds[r].Add(off, rng.Int63n(size-off)+1)
			}
			segs[r] = make([]bool, n)
			for o := range segs[r] {
				segs[r][o] = o == r || rng.Intn(2) == 0
			}
		}
		s, err := core.CompileBcastRepair(m, size, 0, holds)
		check("core bcast repair "+tag, s, err)
		if size <= 4096 {
			s, err = core.CompileAllgatherRepair(m, size, segs)
			check("core allgather repair "+tag, s, err)
		}
	}
}
