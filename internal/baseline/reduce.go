package baseline

import (
	"fmt"

	"distcoll/internal/core"
	"distcoll/internal/sched"
)

// SendReduce transfers bytes like Send but combines them into the
// destination (dst = op(dst, src)) instead of overwriting: the receiving
// leg of the transfer becomes an OpReduce. Used by the reduction
// baselines.
func (t *Transport) SendReduce(sender, receiver int, src sched.BufID, srcOff int64, dst sched.BufID, dstOff int64, bytes int64, deps []sched.OpID) (sched.OpID, error) {
	if bytes <= 0 {
		return 0, fmt.Errorf("baseline: reduce send of %d bytes", bytes)
	}
	if sender == receiver {
		return t.emit(sched.Op{
			Rank: sender, Kind: sched.OpReduce, Mode: sched.ModeLocal,
			Src: src, SrcOff: srcOff, Dst: dst, DstOff: dstOff, Bytes: bytes,
		}, deps, t.lastRecv), nil
	}
	if bytes < t.Config.EagerLimit {
		// Copy-in to the bounce buffer, combining copy-out.
		t.bounce++
		bb := t.s.AddBuffer(sender, fmt.Sprintf("bounce%d", t.bounce), bytes)
		frags := sched.Chunks(bytes, t.Config.FragmentBytes)
		var lastOut sched.OpID
		for _, fr := range frags {
			in := t.emit(sched.Op{
				Rank: sender, Mode: sched.ModeShm,
				Src: src, SrcOff: srcOff + fr[0], Dst: bb, DstOff: fr[0], Bytes: fr[1],
			}, deps, t.lastSend)
			lastOut = t.emit(sched.Op{
				Rank: receiver, Kind: sched.OpReduce, Mode: sched.ModeShm,
				Src: bb, SrcOff: fr[0], Dst: dst, DstOff: dstOff + fr[0], Bytes: fr[1],
			}, []sched.OpID{in}, t.lastRecv)
		}
		return lastOut, nil
	}
	rts := t.emit(sched.Op{
		Rank: sender, Mode: sched.ModeKnem,
		Src: src, SrcOff: srcOff, Dst: src, DstOff: srcOff, Bytes: 0,
	}, deps, t.lastSend)
	return t.emit(sched.Op{
		Rank: receiver, Kind: sched.OpReduce, Mode: sched.ModeKnem,
		Src: src, SrcOff: srcOff, Dst: dst, DstOff: dstOff, Bytes: bytes,
	}, []sched.OpID{rts}, t.lastRecv), nil
}

// CompileTreeReduce compiles a sender-driven reduction up an arbitrary
// tree: every rank copies its contribution into its accumulator, then
// forwards the accumulated segment to its parent once its subtree is
// complete, segment by segment. Buffers per rank: "send" and "acc" (the
// root's accumulator holds the result), matching core.CompileReduce.
func CompileTreeReduce(tree *core.Tree, size, segBytes int64, cfg TransportConfig) (*sched.Schedule, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("baseline: reduce size %d", size)
	}
	n := tree.Size()
	s := sched.New(n)
	send := make([]sched.BufID, n)
	acc := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", size)
		acc[r] = s.AddBuffer(r, "acc", size)
	}
	tp := NewTransport(s, cfg)
	segs := sched.Chunks(size, segBytes)

	init := make([][]sched.OpID, n) // init[r][seg]: local copy into acc
	for r := 0; r < n; r++ {
		init[r] = make([]sched.OpID, len(segs))
		for si, sg := range segs {
			init[r][si] = tp.LocalCopy(r, send[r], sg[0], acc[r], sg[0], sg[1], nil)
		}
	}
	// Reverse BFS: each rank's segment is complete once all children have
	// contributed; then it is sent (with reduction) to the parent.
	order := make([]int, 0, n)
	queue := []int{tree.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		queue = append(queue, tree.Children[u]...)
	}
	done := make([][]sched.OpID, n) // done[r][seg]: subtree complete at r
	for r := range done {
		done[r] = append([]sched.OpID(nil), init[r]...)
	}
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for si, sg := range segs {
			for _, v := range tree.Children[u] {
				id, err := tp.SendReduce(v, u, acc[v], sg[0], acc[u], sg[0], sg[1],
					[]sched.OpID{done[v][si], done[u][si]})
				if err != nil {
					return nil, err
				}
				done[u][si] = id
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: compiled tree reduce invalid: %w", err)
	}
	return s, nil
}

// TunedReduceDecision approximates tuned's reduce selection: binomial,
// segmented for large messages.
func TunedReduceDecision(n int, size int64) int64 {
	if size < 64<<10 {
		return 0
	}
	return 32 << 10
}

// CompileReduce compiles the rank-based binomial reduction.
func CompileReduce(n, root int, size, segBytes int64, cfg TransportConfig) (*sched.Schedule, error) {
	tree, err := BinomialTree(n, root)
	if err != nil {
		return nil, err
	}
	return CompileTreeReduce(tree, size, segBytes, cfg)
}

// AllreduceAlgorithm names an allreduce algorithm.
type AllreduceAlgorithm int

const (
	AllreduceRecDoubling AllreduceAlgorithm = iota
	AllreduceRing
)

func (a AllreduceAlgorithm) String() string {
	switch a {
	case AllreduceRecDoubling:
		return "recdbl"
	case AllreduceRing:
		return "ring"
	default:
		return fmt.Sprintf("AllreduceAlgorithm(%d)", int(a))
	}
}

// TunedAllreduceDecision approximates tuned: recursive doubling for small
// power-of-two communicators, ring (Rabenseifner-style reduce-scatter +
// allgather) otherwise.
func TunedAllreduceDecision(n int, size int64) AllreduceAlgorithm {
	if isPow2(n) && size < 64<<10 {
		return AllreduceRecDoubling
	}
	return AllreduceRing
}

// CompileAllreduce compiles a rank-based allreduce. Buffers per rank:
// "send" and "recv" (the result), matching core.CompileAllreduce. align is
// the reduction operator's element size (ring blocks are aligned to it).
func CompileAllreduce(alg AllreduceAlgorithm, n int, size int64, align int64, cfg TransportConfig) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("baseline: communicator size %d", n)
	}
	if size <= 0 {
		return nil, fmt.Errorf("baseline: allreduce size %d", size)
	}
	switch alg {
	case AllreduceRecDoubling:
		return compileAllreduceRecDbl(n, size, cfg)
	case AllreduceRing:
		return compileAllreduceRing(n, size, align, cfg)
	default:
		return nil, fmt.Errorf("baseline: unknown allreduce algorithm %d", alg)
	}
}

// compileAllreduceRecDbl: every rank starts with recv = send; at step k it
// exchanges its full vector with partner r^2^k and combines. log₂(n)
// rounds, full-size messages — the small-message algorithm.
func compileAllreduceRecDbl(n int, size int64, cfg TransportConfig) (*sched.Schedule, error) {
	if !isPow2(n) {
		return nil, fmt.Errorf("baseline: recursive doubling needs power-of-two ranks, got %d", n)
	}
	s := sched.New(n)
	send := make([]sched.BufID, n)
	recv := make([]sched.BufID, n)
	tmp := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", size)
		recv[r] = s.AddBuffer(r, "recv", size)
		tmp[r] = s.AddBuffer(r, "tmp", size)
	}
	tp := NewTransport(s, cfg)
	hold := make([]sched.OpID, n)
	for r := 0; r < n; r++ {
		hold[r] = tp.LocalCopy(r, send[r], 0, recv[r], 0, size, nil)
	}
	for mask := 1; mask < n; mask <<= 1 {
		// Exchange current vectors into tmp, then combine tmp into recv.
		// The combine must also wait for the rank's OWN send to complete:
		// it overwrites the very buffer the partner is still reading (the
		// MPI rule that a send buffer is untouchable until the send
		// finishes).
		arrived := make([]sched.OpID, n)
		outDone := make([]sched.OpID, n)
		for r := 0; r < n; r++ {
			p := r ^ mask
			id, err := tp.Send(r, p, recv[r], 0, tmp[p], 0, size, []sched.OpID{hold[r]})
			if err != nil {
				return nil, err
			}
			arrived[p] = id
			outDone[r] = id
		}
		for r := 0; r < n; r++ {
			hold[r] = tp.SendReduceLocal(r, tmp[r], 0, recv[r], 0, size,
				[]sched.OpID{arrived[r], outDone[r], hold[r]})
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: compiled recdbl allreduce invalid: %w", err)
	}
	return s, nil
}

// SendReduceLocal emits a local combining operation (dst = op(dst, src))
// on rank's receive chain.
func (t *Transport) SendReduceLocal(rank int, src sched.BufID, srcOff int64, dst sched.BufID, dstOff int64, bytes int64, deps []sched.OpID) sched.OpID {
	return t.emit(sched.Op{
		Rank: rank, Kind: sched.OpReduce, Mode: sched.ModeLocal,
		Src: src, SrcOff: srcOff, Dst: dst, DstOff: dstOff, Bytes: bytes,
	}, deps, t.lastRecv)
}

// compileAllreduceRing: rank-order ring reduce-scatter into a working
// buffer, then a rank-order ring allgather of the reduced blocks into
// recv — the large-message algorithm (Rabenseifner).
func compileAllreduceRing(n int, size int64, align int64, cfg TransportConfig) (*sched.Schedule, error) {
	s := sched.New(n)
	send := make([]sched.BufID, n)
	recv := make([]sched.BufID, n)
	work := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", size)
		recv[r] = s.AddBuffer(r, "recv", size)
		work[r] = s.AddBuffer(r, "work", size)
	}
	if n == 1 {
		tp := NewTransport(s, cfg)
		tp.LocalCopy(0, send[0], 0, recv[0], 0, size, nil)
		return s, s.Validate()
	}
	tp := NewTransport(s, cfg)
	offs, lens := sched.AlignedBlockTable(size, n, align)
	// Phase 0: work = send, per block.
	blockOp := make([][]sched.OpID, n)
	for r := 0; r < n; r++ {
		blockOp[r] = make([]sched.OpID, n)
		for b := 0; b < n; b++ {
			var deps []sched.OpID
			if b > 0 {
				deps = []sched.OpID{blockOp[r][b-1]}
			}
			blockOp[r][b] = tp.LocalCopy(r, send[r], offs[b], work[r], offs[b], lens[b], deps)
		}
	}
	// Phase 1 — reduce-scatter: at step st, rank r sends its partial of
	// block (r−st+1 mod n) to r+1, which combines it. After n−1 steps rank
	// r holds the fully reduced block (r+1 mod n).
	for st := 1; st < n; st++ {
		for r := 0; r < n; r++ {
			b := ((r-st+1)%n + n) % n
			right := (r + 1) % n
			if lens[b] == 0 {
				blockOp[right][b] = blockOp[r][b]
				continue
			}
			id, err := tp.SendReduce(r, right, work[r], offs[b], work[right], offs[b], lens[b],
				[]sched.OpID{blockOp[r][b], blockOp[right][b]})
			if err != nil {
				return nil, err
			}
			blockOp[right][b] = id
		}
	}
	// Phase 2 — allgather the reduced blocks into recv: rank r first
	// copies its own reduced block ((r+1) mod n) from work, then the ring
	// circulates.
	resOp := make([][]sched.OpID, n) // resOp[r][b]: block b present in recv[r]
	for r := 0; r < n; r++ {
		resOp[r] = make([]sched.OpID, n)
		for b := range resOp[r] {
			resOp[r][b] = -1
		}
		own := (r + 1) % n
		if lens[own] > 0 {
			resOp[r][own] = tp.LocalCopy(r, work[r], offs[own], recv[r], offs[own], lens[own],
				[]sched.OpID{blockOp[r][own]})
		}
	}
	for st := 1; st < n; st++ {
		for r := 0; r < n; r++ {
			b := ((r+2-st)%n + n) % n // block r forwards at step st (own block o(r)=(r+1)%n at st=1)
			right := (r + 1) % n
			if lens[b] == 0 {
				continue
			}
			var deps []sched.OpID
			if resOp[r][b] >= 0 {
				deps = []sched.OpID{resOp[r][b]}
			}
			id, err := tp.Send(r, right, recv[r], offs[b], recv[right], offs[b], lens[b], deps)
			if err != nil {
				return nil, err
			}
			resOp[right][b] = id
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: compiled ring allreduce invalid: %w", err)
	}
	return s, nil
}
