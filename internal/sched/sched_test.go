package sched

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// pairSchedule builds a tiny two-rank schedule: rank 0 fills nothing (data
// pre-set), rank 1 pulls 1 KB from rank 0's buffer.
func pairSchedule() *Schedule {
	s := New(2)
	src := s.AddBuffer(0, "buf", 1024)
	dst := s.AddBuffer(1, "buf", 1024)
	s.AddOp(Op{Rank: 1, Mode: ModeKnem, Src: src, Dst: dst, Bytes: 1024})
	return s
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	s := pairSchedule()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadRanks(t *testing.T) {
	s := pairSchedule()
	s.Ops[0].Rank = 5
	if err := s.Validate(); err == nil {
		t.Error("op with invalid rank accepted")
	}
	s = pairSchedule()
	s.Buffers[0].Rank = -1
	if err := s.Validate(); err == nil {
		t.Error("buffer with invalid rank accepted")
	}
	if err := New(0).Validate(); err == nil {
		t.Error("zero-rank schedule accepted")
	}
}

func TestValidateRejectsOutOfBounds(t *testing.T) {
	s := pairSchedule()
	s.Ops[0].Bytes = 2048
	if err := s.Validate(); err == nil {
		t.Error("oversized copy accepted")
	}
	s = pairSchedule()
	s.Ops[0].SrcOff = 512
	if err := s.Validate(); err == nil {
		t.Error("src overrun accepted")
	}
	s = pairSchedule()
	s.Ops[0].DstOff = -1
	if err := s.Validate(); err == nil {
		t.Error("negative offset accepted")
	}
	s = pairSchedule()
	s.Ops[0].Src = 99
	if err := s.Validate(); err == nil {
		t.Error("dangling buffer reference accepted")
	}
}

func TestValidateRejectsCycles(t *testing.T) {
	s := New(1)
	b := s.AddBuffer(0, "a", 64)
	id0 := s.AddOp(Op{Rank: 0, Src: b, Dst: b, Bytes: 0})
	id1 := s.AddOp(Op{Rank: 0, Src: b, Dst: b, Bytes: 0, Deps: []OpID{id0}})
	s.Ops[id0].Deps = []OpID{id1}
	if err := s.Validate(); err == nil {
		t.Error("cyclic dependency accepted")
	}
	s.Ops[id0].Deps = []OpID{99}
	if err := s.Validate(); err == nil {
		t.Error("dangling dependency accepted")
	}
}

// TestValidateRequiresProgramOrder: every rank runs its ops in id order, so
// a dependency on a later op can never be met — even when the graph is
// acyclic. The old acyclicity check let {op0@r0 deps [1], op1@r0} through
// and the runtime hung on it until the watchdog.
func TestValidateRequiresProgramOrder(t *testing.T) {
	s := New(1)
	b := s.AddBuffer(0, "a", 64)
	id0 := s.AddOp(Op{Rank: 0, Src: b, Dst: b, Bytes: 0})
	id1 := s.AddOp(Op{Rank: 0, Src: b, Dst: b, Bytes: 0})
	s.Ops[id0].Deps = []OpID{id1} // acyclic, but unreachable in program order
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "does not precede") {
		t.Errorf("forward dependency accepted or misreported: %v", err)
	}
	if _, err := s.Index(); err == nil {
		t.Error("Index built for an unrunnable schedule")
	}
	s.Ops[id0].Deps = []OpID{id0}
	if err := s.Validate(); err == nil {
		t.Error("self-dependency accepted")
	}
	valid := pairSchedule()
	if allocs := testing.AllocsPerRun(10, func() { _ = valid.Validate() }); allocs != 0 {
		t.Errorf("Validate allocates %v times on a valid schedule", allocs)
	}
}

// TestIndex checks the execution index on a hand-built schedule: ops by
// rank in program order, cross-rank waiters deduplicated per rank and
// excluding the executing rank, memoisation, and invalidation on edit.
func TestIndex(t *testing.T) {
	s := New(4) // rank 3 executes nothing
	b := make([]BufID, 3)
	for r := 0; r < 3; r++ {
		b[r] = s.AddBuffer(r, "buf", 128)
	}
	o0 := s.AddOp(Op{Rank: 0, Src: b[0], Dst: b[0], Bytes: 128})
	o1 := s.AddOp(Op{Rank: 1, Src: b[0], Dst: b[1], Bytes: 64, Deps: []OpID{o0}})
	o2 := s.AddOp(Op{Rank: 1, Src: b[0], Dst: b[1], Bytes: 64, Deps: []OpID{o0, o1}}) // second edge r1→o0, same-rank edge on o1
	o3 := s.AddOp(Op{Rank: 2, Src: b[1], Dst: b[2], Bytes: 128, Deps: []OpID{o1, o0}})
	o4 := s.AddOp(Op{Rank: 0, Src: b[0], Dst: b[0], Bytes: 64, Deps: []OpID{o0}}) // same-rank only
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix.Schedule() != s {
		t.Error("index does not point back at its schedule")
	}
	eq := func(what string, got []int32, want ...int32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", what, got, want)
			}
		}
	}
	eq("RankOps(0)", ix.RankOps(0), int32(o0), int32(o4))
	eq("RankOps(1)", ix.RankOps(1), int32(o1), int32(o2))
	eq("RankOps(2)", ix.RankOps(2), int32(o3))
	eq("RankOps(3)", ix.RankOps(3))
	eq("RankOps(out of range)", ix.RankOps(7))
	eq("Waiters(o0)", ix.Waiters(o0), 1, 2)
	eq("Waiters(o1)", ix.Waiters(o1), 2)
	eq("Waiters(o2)", ix.Waiters(o2))
	eq("Waiters(o3)", ix.Waiters(o3))
	eq("Waiters(o4)", ix.Waiters(o4))
	if again, _ := s.Index(); again != ix {
		t.Error("Index is not memoised")
	}
	s.AddOp(Op{Rank: 3, Src: b[0], Dst: b[0], Bytes: 1, Deps: []OpID{o4}})
	ix2, err := s.Index()
	if err != nil || ix2 == ix {
		t.Fatalf("AddOp did not invalidate the memoised index (err %v)", err)
	}
	eq("Waiters(o4) after AddOp", ix2.Waiters(o4), 3)
}

// TestIndexConcurrentFirstUse: many goroutines may race the first Index
// call on a schedule fresh out of the plan cache.
func TestIndexConcurrentFirstUse(t *testing.T) {
	s := New(8)
	buf := s.AddBuffer(0, "b", 8)
	prev := s.AddOp(Op{Rank: 0, Src: buf, Dst: buf, Bytes: 8})
	for i := 1; i < 200; i++ {
		prev = s.AddOp(Op{Rank: i % 8, Src: buf, Dst: buf, Bytes: 8, Deps: []OpID{prev}})
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix, err := s.Index()
			if err != nil || len(ix.Waiters(0)) != 1 || ix.Waiters(0)[0] != 1 {
				t.Errorf("concurrent Index: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestCrossRankDeps(t *testing.T) {
	s := New(2)
	b0 := s.AddBuffer(0, "buf", 64)
	b1 := s.AddBuffer(1, "buf", 64)
	o0 := s.AddOp(Op{Rank: 0, Src: b0, Dst: b0, Bytes: 64})
	o1 := s.AddOp(Op{Rank: 1, Src: b0, Dst: b1, Bytes: 64, Deps: []OpID{o0}})
	s.AddOp(Op{Rank: 1, Src: b0, Dst: b1, Bytes: 32, Deps: []OpID{o1}})
	if got := s.CrossRankDeps(); got != 1 {
		t.Errorf("cross-rank deps = %d, want 1", got)
	}
}

func TestFindBufferAndTotals(t *testing.T) {
	s := pairSchedule()
	if id, ok := s.FindBuffer(1, "buf"); !ok || s.Buffer(id).Rank != 1 {
		t.Errorf("FindBuffer(1) = %v, %v", id, ok)
	}
	if _, ok := s.FindBuffer(0, "nope"); ok {
		t.Error("found nonexistent buffer")
	}
	if got := s.TotalCopiedBytes(); got != 1024 {
		t.Errorf("TotalCopiedBytes = %d", got)
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		size, chunk int64
		want        int
	}{
		{0, 128, 0},
		{100, 0, 1},
		{100, 200, 1},
		{256, 128, 2},
		{300, 128, 3},
	}
	for _, c := range cases {
		got := Chunks(c.size, c.chunk)
		if len(got) != c.want {
			t.Errorf("Chunks(%d,%d) = %d chunks, want %d", c.size, c.chunk, len(got), c.want)
			continue
		}
		var covered int64
		for i, ch := range got {
			if ch[0] != covered {
				t.Errorf("Chunks(%d,%d)[%d] offset %d, want %d", c.size, c.chunk, i, ch[0], covered)
			}
			covered += ch[1]
		}
		if c.size > 0 && covered != c.size {
			t.Errorf("Chunks(%d,%d) covers %d bytes", c.size, c.chunk, covered)
		}
	}
}

func TestChunksProperty(t *testing.T) {
	f := func(size uint16, chunk uint8) bool {
		s, c := int64(size), int64(chunk)
		chunks := Chunks(s, c)
		var covered int64
		for _, ch := range chunks {
			if ch[1] <= 0 {
				return false
			}
			if c > 0 && ch[1] > c && c < s {
				return false
			}
			if ch[0] != covered {
				return false
			}
			covered += ch[1]
		}
		return s <= 0 || covered == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyze(t *testing.T) {
	// Two ranks on different nodes: rank 1 pulls from rank 0's buffer,
	// writing into its own. Read traffic lands on node 0, write on node 1,
	// and the read is remote for the executor (rank 1 on node 1).
	s := pairSchedule()
	st := s.Analyze(2, func(r int) int { return r })
	if st.CopiesPerRank[0] != 0 || st.CopiesPerRank[1] != 1 {
		t.Errorf("copies = %v", st.CopiesPerRank)
	}
	if st.ReadBytes[0] != 1024 || st.ReadBytes[1] != 0 {
		t.Errorf("reads = %v", st.ReadBytes)
	}
	if st.WriteBytes[1] != 1024 || st.WriteBytes[0] != 0 {
		t.Errorf("writes = %v", st.WriteBytes)
	}
	if st.RemoteReadBytes != 1024 || st.RemoteWriteBytes != 0 {
		t.Errorf("remote = %d/%d", st.RemoteReadBytes, st.RemoteWriteBytes)
	}
	if st.RemoteOps != 1 {
		t.Errorf("remote ops = %d", st.RemoteOps)
	}
}

func TestBalanced(t *testing.T) {
	if !Balanced([]int64{100, 100, 100}, 0.01) {
		t.Error("equal values reported unbalanced")
	}
	if Balanced([]int64{100, 200}, 0.1) {
		t.Error("skewed values reported balanced")
	}
	if !Balanced([]int64{95, 105}, 0.1) {
		t.Error("near-mean values reported unbalanced")
	}
	if !Balanced(nil, 0.1) || !Balanced([]int64{0, 0}, 0.1) {
		t.Error("zero cases mishandled")
	}
	if Balanced([]int64{0, 5}, 0.1) {
		t.Error("zero-mean with nonzero entry reported balanced")
	}
}

func TestBlockTableProperties(t *testing.T) {
	f := func(size uint16, nRaw uint8, alignRaw uint8) bool {
		n := int(nRaw%32) + 1
		align := int64(alignRaw%16) + 1
		s := int64(size)
		offs, lens := AlignedBlockTable(s, n, align)
		if len(offs) != n || len(lens) != n {
			return false
		}
		var covered int64
		for i := 0; i < n; i++ {
			if offs[i] != covered || lens[i] < 0 {
				return false
			}
			// Every block except the last starts and ends aligned.
			if i < n-1 && (offs[i]%align != 0 || lens[i]%align != 0) {
				return false
			}
			covered += lens[i]
		}
		return covered == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBlockTableMatchesUnaligned(t *testing.T) {
	// align ≤ 1 must reproduce the plain table exactly.
	for _, size := range []int64{0, 5, 100, 8 << 20} {
		for _, n := range []int{1, 3, 16, 48} {
			o1, l1 := BlockTable(size, n)
			o2, l2 := AlignedBlockTable(size, n, 1)
			for i := 0; i < n; i++ {
				if o1[i] != o2[i] || l1[i] != l2[i] {
					t.Fatalf("size=%d n=%d: aligned(1) diverges at %d", size, n, i)
				}
			}
		}
	}
}

func TestPendingDump(t *testing.T) {
	// Three-rank chain: op0 (rank 0) → op1 (rank 1) → op2 (rank 2).
	s := New(3)
	b0 := s.AddBuffer(0, "buf", 8)
	b1 := s.AddBuffer(1, "buf", 8)
	b2 := s.AddBuffer(2, "buf", 8)
	o0 := s.AddOp(Op{Rank: 0, Mode: ModeLocal, Src: b0, Dst: b0, Bytes: 8})
	o1 := s.AddOp(Op{Rank: 1, Mode: ModeKnem, Src: b0, Dst: b1, Bytes: 8, Deps: []OpID{o0}})
	s.AddOp(Op{Rank: 2, Mode: ModeKnem, Src: b1, Dst: b2, Bytes: 8, Deps: []OpID{o1}})

	// Nothing done: all three pending, op 0 runnable, the rest blocked.
	none := func(OpID) bool { return false }
	dump := s.PendingDump(none)
	for _, want := range []string{"3/3 ops unfinished", "rank 0:", "runnable", "waits on [1]"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}

	// First op done: two pending, op 1 now runnable.
	first := func(id OpID) bool { return id == o0 }
	dump = s.PendingDump(first)
	if strings.Contains(dump, "rank 0:") {
		t.Errorf("finished rank still dumped:\n%s", dump)
	}
	if !strings.Contains(dump, "2/3 ops unfinished") {
		t.Errorf("wrong pending count:\n%s", dump)
	}

	// Everything done.
	if got := s.PendingDump(func(OpID) bool { return true }); got != "all ops finished" {
		t.Errorf("PendingDump(all done) = %q", got)
	}
}
