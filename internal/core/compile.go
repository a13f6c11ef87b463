package core

import (
	"fmt"

	"distcoll/internal/sched"
)

// Pipeline chunking policy for the distance-aware broadcast (§IV-B: "In
// the case of large messages, a pipeline can be applied along the paths of
// a tree containing intermediate nodes").
const (
	// PipelineThreshold is the smallest message that gets pipelined.
	PipelineThreshold = 32 << 10
	// PipelineMinChunk / PipelineMaxChunk bound the chunk size; within the
	// bounds a message is split into ~16 chunks so the pipeline fill stays
	// a small fraction of the transfer.
	PipelineMinChunk = 16 << 10
	PipelineMaxChunk = 128 << 10
)

// BroadcastChunk returns the pipeline chunk size for a message: 0 (one
// chunk) for small messages or depth-1 trees (a linear topology has no
// intermediate nodes, so "the pipeline is unnecessary", §V-B).
func BroadcastChunk(size int64, depth int) int64 {
	if depth <= 1 || size < PipelineThreshold {
		return 0
	}
	chunk := size / 16
	if chunk < PipelineMinChunk {
		chunk = PipelineMinChunk
	}
	if chunk > PipelineMaxChunk {
		chunk = PipelineMaxChunk
	}
	return chunk
}

// CompileBroadcast compiles the distance-aware KNEM broadcast: every
// non-root rank pulls the message (chunk by chunk, receiver-driven
// single-copy) from its tree parent's buffer. A chunk can be pulled as
// soon as the parent holds it, creating the pipeline effect along tree
// paths. chunkBytes ≤ 0 selects the default policy.
//
// The schedule's per-rank buffer is named "data"; the root's is the
// message source and every rank's holds the full message on completion.
func CompileBroadcast(t *Tree, size int64, chunkBytes int64) (*sched.Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: broadcast size %d", size)
	}
	if chunkBytes <= 0 {
		chunkBytes = BroadcastChunk(size, t.Depth())
	}
	n := t.Size()
	chunks := sched.Chunks(size, chunkBytes)
	nc := len(chunks)
	s := sched.New(n)
	// Every non-root rank pulls every chunk; a pull waits for its parent's
	// (unless that is the root) and for the rank's previous one.
	s.Grow((n-1)*nc, n, (n-1-len(t.Children[t.Root]))*nc+(n-1)*(nc-1))
	buf := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		buf[r] = s.AddBuffer(r, "data", size)
	}

	// ops[r*nc+c] is rank r's pull of chunk c (root has none).
	ops := make([]sched.OpID, n*nc)
	var two [2]sched.OpID
	// Emit in BFS order so parents' ops exist before children reference
	// them.
	for _, u := range bfsOrder(t) {
		for _, v := range t.Children[u] {
			for c, ch := range chunks {
				deps := two[:0]
				if u != t.Root {
					deps = append(deps, ops[u*nc+c]) // parent holds chunk c
				}
				if c > 0 {
					deps = append(deps, ops[v*nc+c-1]) // own engine serialized
				}
				ops[v*nc+c] = s.AddOp(sched.Op{
					Rank:   v,
					Mode:   sched.ModeKnem,
					Src:    buf[u],
					SrcOff: ch[0],
					Dst:    buf[v],
					DstOff: ch[0],
					Bytes:  ch[1],
					Chunk:  c,
					Deps:   deps,
				})
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled broadcast invalid: %w", err)
	}
	return s, nil
}

// CompileAllgather compiles the distance-aware KNEM allgather (§IV-C): a
// receiver-driven out-of-order pipeline around the ring. Step (1) is each
// rank's local copy of its contribution into its receive buffer at offset
// rank·block; each of the following N−1 steps pulls from the left
// neighbor's receive buffer the block the neighbor completed in the
// previous step, after an out-of-band notification.
//
// Buffers: "send" (block bytes) and "recv" (N·block bytes) per rank.
func CompileAllgather(r *Ring, block int64) (*sched.Schedule, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: allgather block %d", block)
	}
	n := r.Size()
	s := sched.New(n)
	s.Grow(n*n, 2*n, 2*n*(n-1))
	sendBuf := make([]sched.BufID, n)
	recvBuf := make([]sched.BufID, n)
	for v := 0; v < n; v++ {
		sendBuf[v] = s.AddBuffer(v, "send", block)
		recvBuf[v] = s.AddBuffer(v, "recv", int64(n)*block)
	}
	// prev[v] is rank v's op at the previous step, origin[v] the owner of
	// the block it acquired there.
	ops, ints := make([]sched.OpID, 2*n), make([]int, 2*n)
	prev, next := ops[:n], ops[n:]
	origin, nextOrigin := ints[:n], ints[n:]
	for v := 0; v < n; v++ {
		prev[v] = s.AddOp(sched.Op{
			Rank:   v,
			Mode:   sched.ModeLocal,
			Src:    sendBuf[v],
			Dst:    recvBuf[v],
			DstOff: int64(v) * block,
			Bytes:  block,
		})
		origin[v] = v
	}
	for step := 1; step < n; step++ {
		for v := 0; v < n; v++ {
			left := r.Left[v]
			blk := origin[left]
			next[v] = s.AddOp(sched.Op{
				Rank:   v,
				Mode:   sched.ModeKnem,
				Src:    recvBuf[left],
				SrcOff: int64(blk) * block,
				Dst:    recvBuf[v],
				DstOff: int64(blk) * block,
				Bytes:  block,
				Chunk:  step,
				Deps:   []sched.OpID{prev[left], prev[v]},
			})
			nextOrigin[v] = blk
		}
		prev, next = next, prev
		origin, nextOrigin = nextOrigin, origin
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled allgather invalid: %w", err)
	}
	return s, nil
}
