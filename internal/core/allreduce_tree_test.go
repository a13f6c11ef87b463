package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// sumElems is a wrapping little-endian sum over elem-byte elements (elem 8
// is mpi.OpSumInt64's arithmetic), a short tail summed the same way: if a
// chunk boundary split an element, the carry across it would be lost and
// the result would differ from the whole-buffer sum.
func sumElems(elem int64) exec.Combiner {
	return func(dst, src []byte) {
		for i := 0; i < len(dst); i += int(elem) {
			carry := 0
			for j := i; j < min(i+int(elem), len(dst)); j++ {
				v := int(dst[j]) + int(src[j]) + carry
				dst[j], carry = byte(v), v>>8
			}
		}
	}
}

// payload is rank's contribution; high bits set so word sums carry.
func payload(rank int, size int64) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(200 + rank*37 + i*5)
	}
	return out
}

// checkAllreduceTree executes s (concurrently, one goroutine per rank) and
// compares every rank's recv with the serial whole-buffer reduction over
// elem-byte elements.
func checkAllreduceTree(t *testing.T, s *sched.Schedule, n int, size, elem int64) {
	t.Helper()
	sum := sumElems(elem)
	bufs := exec.Alloc(s)
	want := make([]byte, size)
	for r := 0; r < n; r++ {
		id, ok := s.FindBuffer(r, "send")
		if !ok {
			t.Fatalf("rank %d has no send buffer", r)
		}
		copy(bufs.Bytes(id), payload(r, size))
		if r == 0 {
			copy(want, payload(0, size))
		} else {
			sum(want, payload(r, size))
		}
	}
	if err := exec.RunReduce(s, bufs, sum); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		id, ok := s.FindBuffer(r, "recv")
		if !ok {
			t.Fatalf("rank %d has no recv buffer", r)
		}
		if !bytes.Equal(bufs.Bytes(id), want) {
			t.Fatalf("rank %d: recv differs from the serial reduction", r)
		}
	}
}

// TestCompileAllreduceTreeProperty: over random placements of Zoot and IG,
// every root, sizes from one byte (less than n, not a multiple of the
// element) to pipelined, the default and three fixed chunk sizes, the tree
// allreduce delivers the serial reduction to every rank, and its structure
// is what the selector prices: the callers' send and recv and no other
// buffer, (3n−2) ops per chunk, and every tree edge crossed exactly once up
// (a combine by the parent) and once down (a pull by the child) per chunk —
// so each slow link carries each chunk exactly twice.
func TestCompileAllreduceTreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int64{1, 5, 1000, 4096, 40001, 200<<10 + 8}
	chunks := []int64{0, 16 << 10, 64 << 10, 4100} // the last is not a multiple of the element
	for iter := 0; iter < 120; iter++ {
		topo, ns := hwtopo.NewIG(), []int{1, 2, 3, 16, 48}
		if iter%3 == 0 {
			topo, ns = hwtopo.NewZoot(), []int{1, 2, 3, 16}
		}
		n := ns[rng.Intn(len(ns))]
		size, chunk := sizes[rng.Intn(len(sizes))], chunks[rng.Intn(len(chunks))]
		align := int64(1 + 7*rng.Intn(2)) // byte-wise or int64
		root := rng.Intn(n)
		b, err := binding.Random(topo, n, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		v, err := distance.NewClustered(topo, b.Cores())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := core.TreeFor(v, root)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.CompileAllreduceTree(tree, size, chunk, align)
		if err != nil {
			t.Fatalf("%s n=%d root=%d size=%d chunk=%d align=%d: %v", topo.Name, n, root, size, chunk, align, err)
		}
		checkAllreduceTree(t, s, n, size, align)

		eff := chunk
		if eff <= 0 {
			eff = core.BroadcastChunk(size, tree.Depth())
		}
		eff -= eff % align
		nchunks := len(sched.Chunks(size, eff))
		if got, want := len(s.Ops), (3*n-2)*nchunks; got != want {
			t.Errorf("%s n=%d size=%d chunk=%d: %d ops, want (3n−2)·%d = %d", topo.Name, n, size, chunk, got, nchunks, want)
		}
		if len(s.Buffers) != 2*n {
			t.Errorf("n=%d: %d buffers, want the callers' 2n", n, len(s.Buffers))
		}
		for _, spec := range s.Buffers {
			if (spec.Name != "send" && spec.Name != "recv") || spec.Bytes != size {
				t.Errorf("buffer %q of %d bytes on rank %d: not a caller buffer", spec.Name, spec.Bytes, spec.Rank)
			}
		}
		type edge struct{ from, to, chunk int }
		up, down := map[edge]int{}, map[edge]int{}
		for _, op := range s.Ops {
			from, to := s.Buffer(op.Src).Rank, s.Buffer(op.Dst).Rank
			if align > 1 && op.SrcOff%align != 0 {
				t.Fatalf("op %d starts at %d: splits a %d-byte element", op.ID, op.SrcOff, align)
			}
			switch {
			case op.Mode == sched.ModeLocal:
				if from != to || op.Rank != to {
					t.Fatalf("local op %d crosses ranks %d→%d", op.ID, from, to)
				}
			case op.Kind == sched.OpReduce:
				up[edge{from, to, op.Chunk}]++
			default:
				down[edge{from, to, op.Chunk}]++
			}
		}
		for c := 0; c < nchunks; c++ {
			for child, parent := range tree.Parent {
				if child == tree.Root {
					continue
				}
				if up[edge{child, parent, c}] != 1 || down[edge{parent, child, c}] != 1 {
					t.Fatalf("tree edge %d–%d chunk %d: crossed %d times up, %d down; want once each",
						child, parent, c, up[edge{child, parent, c}], down[edge{parent, child, c}])
				}
			}
		}
		if len(up) != (n-1)*nchunks || len(down) != (n-1)*nchunks {
			t.Errorf("n=%d chunks=%d: %d up and %d down edges, want %d each (tree edges only)", n, nchunks, len(up), len(down), (n-1)*nchunks)
		}
	}
	if _, err := core.CompileAllreduceTree(&core.Tree{}, 8, 0, 1); err == nil {
		t.Error("an empty tree compiled")
	}
	tree, _ := core.NewLinearTree(4, 0)
	if _, err := core.CompileAllreduceTree(tree, 0, 0, 1); err == nil {
		t.Error("a zero-byte allreduce compiled")
	}
}

// FuzzCompileAllreduceTree: any valid tree (Algorithm 1 over an arbitrary
// symmetric matrix, any root), size, chunk and element size compile to a
// valid schedule whose concurrent execution is the serial reduction on every
// rank — the down phase overwrites partials the up phase read, so a missing
// dependency shows as a wrong byte (and, under -race, as a race).
func FuzzCompileAllreduceTree(f *testing.F) {
	f.Add([]byte{1}, byte(0), uint32(1), uint16(0), byte(0))                                                  // two ranks, one byte
	f.Add([]byte{2, 2, 2}, byte(2), uint32(2), uint16(0), byte(7))                                            // size < n, size < element
	f.Add([]byte{3, 3, 2, 3, 2, 0, 3, 2, 3, 3, 2, 3, 3, 1, 3}, byte(1), uint32(65535), uint16(4100), byte(7)) // chunk not a multiple of 8
	f.Add([]byte{1, 2, 2, 2, 2, 1}, byte(3), uint32(40000), uint16(0), byte(0))                               // default pipeline
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, byte(4), uint32(1001), uint16(3), byte(2))                    // chunk smaller than the element
	f.Fuzz(func(t *testing.T, data []byte, rootByte byte, sizeRaw uint32, chunkRaw uint16, alignByte byte) {
		m, ok := matrixFromBytes(data)
		if !ok || m.Size() > 32 { // one goroutine per rank per execution
			t.Skip()
		}
		n := m.Size()
		tree, err := core.BuildBroadcastTree(m, int(rootByte)%n, core.TreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		size, align := 1+int64(sizeRaw%(96<<10)), 1+int64(alignByte%16)
		s, err := core.CompileAllreduceTree(tree, size, int64(chunkRaw), align)
		if err != nil {
			t.Fatalf("n=%d size=%d chunk=%d align=%d: %v", n, size, chunkRaw, align, err)
		}
		chunks := 0
		for _, op := range s.Ops {
			chunks = max(chunks, op.Chunk+1)
		}
		if len(s.Ops) != (3*n-2)*chunks || len(s.Buffers) != 2*n {
			t.Fatalf("n=%d: %d ops over %d buffers in %d chunks", n, len(s.Ops), len(s.Buffers), chunks)
		}
		checkAllreduceTree(t, s, n, size, align)
	})
}
