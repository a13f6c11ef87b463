package sched_test

import (
	"slices"
	"strings"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// naiveIndex is the reference the CSR index must equal: each rank's ops by
// appending in id order, each op's waiters rank by rank with the
// adjacent-pair rule (a rank is owed one notification per op however many
// of its ops wait for it).
func naiveIndex(s *sched.Schedule) (rankOps, waiters [][]int32) {
	rankOps = make([][]int32, s.NumRanks)
	waiters = make([][]int32, len(s.Ops))
	for i := range s.Ops {
		r := s.Ops[i].Rank
		rankOps[r] = append(rankOps[r], int32(i))
	}
	for r, ops := range rankOps {
		for _, id := range ops {
			for _, d := range s.Ops[id].Deps {
				w := waiters[d]
				if s.Ops[d].Rank != r && (len(w) == 0 || w[len(w)-1] != int32(r)) {
					waiters[d] = append(w, int32(r))
				}
			}
		}
	}
	return rankOps, waiters
}

// TestIndexMatchesNaiveReference: on every compiler of the program-order
// table, over random Zoot and IG placements, Index answers RankOps and
// Waiters exactly as the slice-of-slices construction it replaced. On the
// way it holds core's compilers to their reservations: one that calls
// Grow knows its counts exactly, so nothing is left spare.
func TestIndexMatchesNaiveReference(t *testing.T) {
	checked, exact := 0, 0
	check := func(name string, s *sched.Schedule, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ix, err := s.Index()
		if err != nil {
			t.Fatalf("%s: Index: %v", name, err)
		}
		rankOps, waiters := naiveIndex(s)
		for r := range rankOps {
			if got := ix.RankOps(r); !slices.Equal(got, rankOps[r]) {
				t.Fatalf("%s: RankOps(%d) = %v, want %v", name, r, got, rankOps[r])
			}
		}
		for id := range waiters {
			if got := ix.Waiters(sched.OpID(id)); !slices.Equal(got, waiters[id]) {
				t.Fatalf("%s: Waiters(%d) = %v, want %v", name, id, got, waiters[id])
			}
		}
		if ix.RankOps(-1) != nil || ix.RankOps(s.NumRanks) != nil {
			t.Fatalf("%s: RankOps outside the communicator is not nil", name)
		}
		checked++
		if strings.HasPrefix(name, "core ") && !strings.Contains(name, "repair") {
			if ops, bufs, deps := s.Spare(); ops != 0 || bufs != 0 || deps != 0 {
				t.Fatalf("%s: reserved %d ops, %d buffers, %d dependencies too many", name, ops, bufs, deps)
			}
			exact++
		}
	}
	for _, topo := range []*hwtopo.Topology{hwtopo.NewZoot(), hwtopo.NewIG()} {
		for i, n := range []int{1, 2, 7, 16, 48} {
			if n <= topo.NumCores() {
				everyCompiler(t, topo, n, int64(100*n+i), []int64{63, 4096, 70001}, check)
			}
		}
	}

	// The leader-aggregated alltoall only exists across machines.
	cluster := hwtopo.NewIGCluster()
	for _, n := range []int{7, 24, 48} {
		b, err := binding.Random(cluster, n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		cv, err := distance.NewClustered(cluster, b.Cores())
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.CompileAlltoallHierarchical(cv, 64)
		check("core alltoall hier cluster", s, err)
	}
	t.Logf("%d schedules checked, %d of them for exact reservation", checked, exact)
}

// TestAddOpOwnsDeps: the schedule copies what AddOp is given and hands out
// windows nobody else can grow into, with or without a reservation and
// across arena replacements.
func TestAddOpOwnsDeps(t *testing.T) {
	for _, reserve := range []int{0, 5, 4000} {
		s := sched.New(2)
		s.Grow(reserve, 1, 2*reserve)
		buf := s.AddBuffer(0, "b", 8)
		op := sched.Op{Src: buf, Dst: buf, Bytes: 8}
		if id := s.AddOp(op); s.Ops[id].Deps != nil {
			t.Fatalf("reserve %d: an op without dependencies stores %v, want nil", reserve, s.Ops[id].Deps)
		}

		// One scratch slice reused for every op, then scribbled over.
		scratch := make([]sched.OpID, 0, 2)
		want := [][]sched.OpID{nil}
		for i := 1; i < 1000; i++ {
			scratch = append(scratch[:0], sched.OpID(i-1))
			if i%3 == 0 {
				scratch = append(scratch, sched.OpID(i/2))
			}
			op.Deps = scratch
			s.AddOp(op)
			want = append(want, slices.Clone(scratch))
			scratch[0] = -7
		}
		// Appending to a stored list must reallocate, not run into the next.
		for i := range s.Ops {
			grown := append(s.Ops[i].Deps, -9)
			if len(grown) > 1 && &grown[0] == &s.Ops[i].Deps[0] {
				t.Fatalf("reserve %d: op %d's stored Deps has spare capacity", reserve, i)
			}
		}
		for i := range s.Ops {
			if !slices.Equal(s.Ops[i].Deps, want[i]) {
				t.Fatalf("reserve %d: op %d stores %v, want %v", reserve, i, s.Ops[i].Deps, want[i])
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("reserve %d: %v", reserve, err)
		}
	}
}
