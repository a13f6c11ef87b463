package core

import (
	"fmt"

	"distcoll/internal/sched"
)

// This file implements the paper's §VI future work: extending the
// distance-aware framework to Reduce and Allreduce.
//
// Reduce runs the broadcast tree in reverse: every rank accumulates its
// children's partial results (receiver-driven kernel-assisted pulls,
// combined on arrival), so partial sums travel each slow link exactly
// once, pipelined chunk by chunk for large messages.
//
// Allreduce has two forms; which one runs is a calibrated decision
// (tune.Decision.Tree). The ring form composes two passes over the
// distance-aware ring: a ring reduce-scatter (each rank ends with one
// fully-reduced block) followed by the §IV-C ring allgather — inheriting
// the same balanced memory-access profile: every controller sees the same
// load, and only ring-boundary edges cross slow links. The tree form is
// Reduce followed by a pipelined broadcast back down the same tree: a
// fraction of the ops, so it wins until bandwidth dominates.

// CompileReduce compiles a distance-aware reduction to the tree root.
// Buffers per rank: "send" (the contribution) and "acc" (the accumulator;
// the root's holds the final result). chunkBytes ≤ 0 selects the default
// pipeline policy. Chunk boundaries are aligned to align bytes (the
// reduction operator's element size; ≤1 means byte-wise): the operator
// combines chunk by chunk, so no element may straddle two chunks.
func CompileReduce(t *Tree, size, chunkBytes, align int64) (*sched.Schedule, error) {
	s, _, _, _, err := reduceUp(t, "acc", 1, size, chunkBytes, align)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled reduce invalid: %w", err)
	}
	return s, nil
}

// reduceUp compiles the reduction up the tree that CompileReduce is and
// CompileAllreduceTree starts with, accumulating into the per-rank buffer
// named accName; passes is how often the finished schedule crosses each tree
// edge per chunk (1: up only), for the reservation. It returns the schedule
// (not yet validated), the accumulators, the chunk table and last, where
// last[r*len(chunks)+c] is rank r's op completing chunk c of its subtree's
// partial result; every rank's final op is its last one of the last chunk.
func reduceUp(t *Tree, accName string, passes int, size, chunkBytes, align int64) (*sched.Schedule, []sched.BufID, [][2]int64, []sched.OpID, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	if size <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("core: reduce size %d", size)
	}
	if chunkBytes <= 0 {
		chunkBytes = BroadcastChunk(size, t.Depth())
	}
	if align > 1 {
		chunkBytes -= chunkBytes % align // 0 (one chunk) when smaller than an element
	}
	n := t.Size()
	chunks := sched.Chunks(size, chunkBytes)
	nc := len(chunks)
	s := sched.New(n)
	// Per chunk: a chained local copy on every rank, then two-dependency
	// pulls, passes per tree edge.
	s.Grow((n+passes*(n-1))*nc, 2*n, n*(nc-1)+2*passes*(n-1)*nc)
	send := make([]sched.BufID, n)
	acc := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", size)
		acc[r] = s.AddBuffer(r, accName, size)
	}

	last := make([]sched.OpID, n*nc)
	for r := 0; r < n; r++ {
		for c, ch := range chunks {
			var deps []sched.OpID
			if c > 0 {
				deps = []sched.OpID{last[r*nc+c-1]}
			}
			last[r*nc+c] = s.AddOp(sched.Op{
				Rank: r, Mode: sched.ModeLocal,
				Src: send[r], SrcOff: ch[0], Dst: acc[r], DstOff: ch[0], Bytes: ch[1],
				Chunk: c, Deps: deps,
			})
		}
	}

	// Reverse BFS: children complete before parents pull. Each parent's
	// ops are chained (single-threaded reduction into its accumulator),
	// chunk-major so chunks pipeline up the tree.
	order := bfsOrder(t)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if len(t.Children[u]) == 0 {
			continue
		}
		prev := last[u*nc+nc-1] // after u's own local copies
		for c, ch := range chunks {
			for _, v := range t.Children[u] {
				prev = s.AddOp(sched.Op{
					Rank: u, Kind: sched.OpReduce, Mode: sched.ModeKnem,
					Src: acc[v], SrcOff: ch[0], Dst: acc[u], DstOff: ch[0], Bytes: ch[1],
					Chunk: c, Deps: []sched.OpID{last[v*nc+c], prev},
				})
				last[u*nc+c] = prev
			}
		}
	}
	return s, acc, chunks, last, nil
}

// CompileAllreduceTree compiles allreduce as a reduction up the
// distance-aware tree followed by a pipelined broadcast back down it, the
// latency-regime counterpart of the ring CompileAllreduce: 3n−2 ops per
// chunk where the ring takes n(3n−2), and every slow link crossed exactly
// twice per chunk. Buffers per rank are the caller's "send"
// and "recv" only: recv is the accumulator on the way up and holds the
// result on the way down, so the plan has no auxiliary bytes. Chunking and
// alignment are CompileReduce's.
//
// Down phase: every non-root rank pulls chunk c from its parent's recv once
// the parent holds the result (the root's last combine of c, or the
// parent's own pull), chained on the rank's previous op. The pull
// overwrites the rank's partial of c, which its parent read on the way up;
// that read is an ancestor of the root's final op of chunk c, which every
// down pull of c depends on, so no partial is overwritten while still in
// use. Chunk c travels down while c+1 is still being reduced.
func CompileAllreduceTree(t *Tree, size, chunkBytes, align int64) (*sched.Schedule, error) {
	s, recv, chunks, have, err := reduceUp(t, "recv", 2, size, chunkBytes, align)
	if err != nil {
		return nil, err
	}
	nc := len(chunks)
	for _, u := range bfsOrder(t) {
		for _, v := range t.Children[u] {
			prev := have[v*nc+nc-1] // v's last op of the up phase
			for c, ch := range chunks {
				prev = s.AddOp(sched.Op{
					Rank: v, Mode: sched.ModeKnem,
					Src: recv[u], SrcOff: ch[0], Dst: recv[v], DstOff: ch[0], Bytes: ch[1],
					Chunk: c, Deps: []sched.OpID{have[u*nc+c], prev},
				})
				have[v*nc+c] = prev
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled tree allreduce invalid: %w", err)
	}
	return s, nil
}

// bfsOrder lists the ranks breadth-first from the root (the slice is its
// own queue).
func bfsOrder(t *Tree) []int {
	order := make([]int, 1, t.Size())
	order[0] = t.Root
	for i := 0; i < len(order); i++ {
		order = append(order, t.Children[order[i]]...)
	}
	return order
}

// CompileAllreduce compiles a distance-aware allreduce over the ring:
// ring reduce-scatter followed by ring allgather. Buffers per rank:
// "send" (contribution) and "recv" (size bytes; holds the final result —
// it is initialized with the local contribution and reduced in place).
// Block boundaries are aligned to align bytes (the reduction operator's
// element size) so no element straddles two blocks.
func CompileAllreduce(r *Ring, size int64, align int64) (*sched.Schedule, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: allreduce size %d", size)
	}
	n := r.Size()
	s := sched.New(n)
	// n chained copies per rank, then n−1 steps of a two-dependency and
	// n−1 of a three-dependency pull.
	s.Grow(n*(3*n-2), 2*n, 6*n*(n-1))
	send := make([]sched.BufID, n)
	work := make([]sched.BufID, n)
	for v := 0; v < n; v++ {
		send[v] = s.AddBuffer(v, "send", size)
		work[v] = s.AddBuffer(v, "recv", size)
	}
	offs, lens := sched.AlignedBlockTable(size, n, align)

	if n == 1 {
		s.AddOp(sched.Op{Rank: 0, Mode: sched.ModeLocal, Src: send[0], Dst: work[0], Bytes: size})
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s, nil
	}

	// leftPow[s][v] = Left^s(v).
	leftAt := func(v, steps int) int {
		for i := 0; i < steps; i++ {
			v = r.Left[v]
		}
		return v
	}

	// Phase 0: per-block local copies of the contribution.
	copyOp := make([]sched.OpID, n*n) // copyOp[v*n+block]
	lastOf := make([]sched.OpID, n)   // engine chain per rank
	for v := 0; v < n; v++ {
		for b := 0; b < n; b++ {
			var deps []sched.OpID
			if b > 0 {
				deps = []sched.OpID{lastOf[v]}
			}
			lastOf[v] = s.AddOp(sched.Op{
				Rank: v, Mode: sched.ModeLocal,
				Src: send[v], SrcOff: offs[b], Dst: work[v], DstOff: offs[b], Bytes: lens[b],
				Deps: deps,
			})
			copyOp[v*n+b] = lastOf[v]
		}
	}

	// Phase 1 — reduce-scatter: at step st, rank v pulls the partial of
	// block Left^st(v) from its left neighbor and combines it with its own
	// accumulator for that block. After n−1 steps v holds the fully
	// reduced block Right(v).
	rsOp := make([]sched.OpID, n*n) // rsOp[v*n+step], step 1..n-1
	for st := 1; st < n; st++ {
		for v := 0; v < n; v++ {
			b := leftAt(v, st)
			left := r.Left[v]
			// The left neighbor's partial for block b was produced by its
			// step st−1 op (or its initial copy when st == 1).
			srcReady := copyOp[left*n+b]
			if st > 1 {
				srcReady = rsOp[left*n+st-1]
			}
			lastOf[v] = s.AddOp(sched.Op{
				Rank: v, Kind: sched.OpReduce, Mode: sched.ModeKnem,
				Src: work[left], SrcOff: offs[b], Dst: work[v], DstOff: offs[b], Bytes: lens[b],
				Chunk: st, Deps: []sched.OpID{srcReady, lastOf[v]},
			})
			rsOp[v*n+st] = lastOf[v]
		}
	}

	// Phase 2 — ring allgather of the reduced blocks: rank v starts
	// holding block Right(v) and pulls, at step st, the block its left
	// neighbor completed at step st−1. The write into work[v] overwrites
	// v's stale partial of that block, so it must also wait until the
	// right neighbor has consumed that partial (its phase-1 step-st pull):
	// a WAR dependency the forward chain does not imply.
	prevAg, next := lastOf, make([]sched.OpID, n) // phase 1 ended on each rank's step n−1
	ints := make([]int, 2*n)
	origin, nextOrigin := ints[:n], ints[n:]
	copy(origin, r.Right)
	for st := 1; st < n; st++ {
		for v := 0; v < n; v++ {
			left := r.Left[v]
			b := origin[left]
			next[v] = s.AddOp(sched.Op{
				Rank: v, Mode: sched.ModeKnem,
				Src: work[left], SrcOff: offs[b], Dst: work[v], DstOff: offs[b], Bytes: lens[b],
				Chunk: n - 1 + st, Deps: []sched.OpID{prevAg[left], prevAg[v], rsOp[r.Right[v]*n+st]},
			})
			nextOrigin[v] = b
		}
		prevAg, next = next, prevAg
		origin, nextOrigin = nextOrigin, origin
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled allreduce invalid: %w", err)
	}
	return s, nil
}
