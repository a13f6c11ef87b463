package core

import (
	"bytes"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// xorCombine is an order-insensitive combiner for correctness checks.
func xorCombine(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// sumCombine treats bytes as wrapping uint8 sums (associative and
// commutative).
func sumCombine(dst, src []byte) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func contribution(rank int, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((rank*37 + i*5 + 3) % 256)
	}
	return out
}

func expectedReduction(n int, size int64, combine exec.Combiner) []byte {
	want := contribution(0, size)
	for r := 1; r < n; r++ {
		combine(want, contribution(r, size))
	}
	return want
}

func runReduceSchedule(t *testing.T, s *sched.Schedule, n int, size int64, combine exec.Combiner) *exec.Buffers {
	t.Helper()
	bufs := exec.Alloc(s)
	for r := 0; r < n; r++ {
		id, ok := s.FindBuffer(r, "send")
		if !ok {
			t.Fatalf("rank %d send buffer missing", r)
		}
		copy(bufs.Bytes(id), contribution(r, size))
	}
	if err := exec.RunReduce(s, bufs, combine); err != nil {
		t.Fatal(err)
	}
	return bufs
}

func TestCompileReduceCorrectness(t *testing.T) {
	ig := hwtopo.NewIG()
	for _, tc := range []struct {
		bind  string
		root  int
		size  int64
		align int64
	}{
		{"contiguous", 0, 4096, 0},
		{"crosssocket", 7, 1 << 20, 0}, // pipelined
		{"random", 23, 100001, 0},      // odd size
		{"crosssocket", 0, 262208, 8},  // size/16 = 16,388 is not a multiple of the element
	} {
		b, err := binding.ByName(ig, tc.bind, 48, 9)
		if err != nil {
			t.Fatal(err)
		}
		m := distance.NewMatrix(ig, b.Cores())
		tree, err := BuildBroadcastTree(m, tc.root, TreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := CompileReduce(tree, tc.size, 0, tc.align)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range s.Ops {
			if tc.align > 1 && (op.SrcOff%tc.align != 0 || op.Bytes%tc.align != 0) {
				t.Fatalf("%s size=%d: op %d [%d,+%d) splits a %d-byte element", tc.bind, tc.size, op.ID, op.SrcOff, op.Bytes, tc.align)
			}
		}
		bufs := runReduceSchedule(t, s, 48, tc.size, sumCombine)
		want := expectedReduction(48, tc.size, sumCombine)
		accID, ok := s.FindBuffer(tc.root, "acc")
		if !ok {
			t.Fatal("root acc buffer missing")
		}
		if !bytes.Equal(bufs.Bytes(accID), want) {
			t.Fatalf("%s root=%d size=%d: wrong reduction at root", tc.bind, tc.root, tc.size)
		}
	}
}

func TestCompileReduceStructure(t *testing.T) {
	ig := hwtopo.NewIG()
	m := fullMatrix(t, ig)
	tree, err := BuildBroadcastTree(m, 0, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileReduce(tree, 4096, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reduce ops are executed by the parent, pulling the child's
	// accumulator.
	reduces := 0
	for _, op := range s.Ops {
		if op.Kind != sched.OpReduce {
			continue
		}
		reduces++
		child := s.Buffer(op.Src).Rank
		if tree.Parent[child] != op.Rank {
			t.Fatalf("reduce op %d: executor %d is not parent of %d", op.ID, op.Rank, child)
		}
	}
	if reduces != 47 {
		t.Errorf("reduce ops = %d, want 47 (one per non-root rank)", reduces)
	}
	if !s.HasReduce() {
		t.Error("HasReduce = false")
	}
	if _, err := CompileReduce(tree, 0, 0, 0); err == nil {
		t.Error("zero size accepted")
	}
}

func TestCompileAllreduceCorrectness(t *testing.T) {
	ig := hwtopo.NewIG()
	for _, tc := range []struct {
		bind string
		n    int
		size int64
	}{
		{"contiguous", 48, 48 * 1024},
		{"crosssocket", 48, 100001}, // uneven block table
		{"random", 12, 4096},
		{"contiguous", 2, 1000},
		{"contiguous", 1, 64},
		{"random", 5, 3}, // size < n: empty blocks
	} {
		b, err := binding.ByName(ig, tc.bind, tc.n, 5)
		if err != nil {
			t.Fatal(err)
		}
		m := distance.NewMatrix(ig, b.Cores())
		ring, err := BuildAllgatherRing(m, RingOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := CompileAllreduce(ring, tc.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		bufs := runReduceSchedule(t, s, tc.n, tc.size, sumCombine)
		want := expectedReduction(tc.n, tc.size, sumCombine)
		for r := 0; r < tc.n; r++ {
			id, ok := s.FindBuffer(r, "recv")
			if !ok {
				t.Fatalf("rank %d recv buffer missing", r)
			}
			if !bytes.Equal(bufs.Bytes(id), want) {
				t.Fatalf("%s n=%d size=%d: rank %d wrong allreduce result", tc.bind, tc.n, tc.size, r)
			}
		}
	}
}

func TestCompileAllreduceXORSerialEqualsConcurrent(t *testing.T) {
	// The WAR dependencies in the allgather phase are the subtle part:
	// concurrent execution must equal serial execution bit-for-bit.
	ig := hwtopo.NewIG()
	b, err := binding.Random(ig, 48, 77)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.NewMatrix(ig, b.Cores())
	ring, err := BuildAllgatherRing(m, RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const size = 96 * 1024
	s, err := CompileAllreduce(ring, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(bufs *exec.Buffers) {
		for r := 0; r < 48; r++ {
			id, _ := s.FindBuffer(r, "send")
			copy(bufs.Bytes(id), contribution(r, size))
		}
	}
	b1, b2 := exec.Alloc(s), exec.Alloc(s)
	seed(b1)
	seed(b2)
	if err := exec.RunReduce(s, b1, xorCombine); err != nil {
		t.Fatal(err)
	}
	if err := exec.RunSerialReduce(s, b2, xorCombine); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 48; r++ {
		id, _ := s.FindBuffer(r, "recv")
		if !bytes.Equal(b1.Bytes(id), b2.Bytes(id)) {
			t.Fatalf("rank %d differs between concurrent and serial execution", r)
		}
	}
}

func TestRunRejectsReduceWithoutCombiner(t *testing.T) {
	ig := hwtopo.NewIG()
	m := fullMatrix(t, ig)
	tree, err := BuildBroadcastTree(m, 0, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileReduce(tree, 1024, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(s, exec.Alloc(s)); err == nil {
		t.Fatal("Run accepted a reduce schedule without a combiner")
	}
}
