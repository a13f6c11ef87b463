package core

import (
	"fmt"

	"distcoll/internal/distance"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
)

// This file compiles delta repair plans: after a failed collective is
// agreed and shrunk, the survivors' merged progress ledgers say which
// chunks each rank already verifiably holds, and repair only has to move
// the missing (rank, chunk) pairs. Construction follows the same
// distance-first greedy the paper's full collectives use — every missing
// chunk is pulled from the minimum-distance survivor that holds it — and
// keeps the pipeline property: a rank that acquires a chunk immediately
// becomes a source for it, so repair of a widely-missing chunk fans out
// as a distance-aware tree rather than serializing on one holder.

// CompileBcastRepair compiles the broadcast delta repair schedule over a
// survivor communicator. m is the survivors' distance view, size the
// payload, and holds[r] the byte spans rank r verifiably holds (the
// merged ledger rows). At least one rank must hold every chunk — in a
// broadcast the surviving root always does. chunkBytes ≤ 0 selects the
// default pipeline policy (the repair grid is independent of the original
// tree's depth, so partially-held original chunks are simply re-pulled).
//
// Per-rank buffers are named "data" like CompileBroadcast's, so the same
// caller binding serves both. Every schedule op is exactly one missing
// (rank, chunk) pull; ops of one rank are chained so its copy engine is
// serialized, and a pull of a chunk acquired earlier in the plan depends
// on the acquiring op.
func CompileBcastRepair(m distance.View, size, chunkBytes int64, holds []*recovery.IntervalSet) (*sched.Schedule, error) {
	n := m.Size()
	if len(holds) != n {
		return nil, fmt.Errorf("core: repair holds for %d ranks, view has %d", len(holds), n)
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: repair size %d", size)
	}
	if chunkBytes <= 0 {
		// Depth 2 stands in for "pipelining applies": the repair topology is
		// chosen per chunk, so the original tree's depth is meaningless here.
		chunkBytes = BroadcastChunk(size, 2)
	}
	s := sched.New(n)
	buf := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		buf[r] = s.AddBuffer(r, "data", size)
	}
	chunks := sched.Chunks(size, chunkBytes)

	last := make([]sched.OpID, n) // each rank's latest op, for engine serialization
	hasLast := make([]bool, n)
	var two [2]sched.OpID                   // dependency scratch: AddOp copies
	acquired := make(map[[2]int]sched.OpID) // (rank, chunk) acquired within this plan

	for ci, ch := range chunks {
		off, ln := ch[0], ch[1]
		var holders, needers []int
		for r := 0; r < n; r++ {
			if holds[r].Contains(off, ln) {
				holders = append(holders, r)
			} else {
				needers = append(needers, r)
			}
		}
		if len(holders) == 0 {
			return nil, fmt.Errorf("core: no survivor holds chunk %d [%d,+%d)", ci, off, ln)
		}
		for len(needers) > 0 {
			// Minimum-distance (needer, holder) pair; iteration order makes
			// ties deterministic (smallest needer, then smallest holder).
			bestV, bestH, bestD := -1, -1, int(^uint(0)>>1)
			for _, v := range needers {
				for _, h := range holders {
					if d := m.At(v, h); d < bestD {
						bestV, bestH, bestD = v, h, d
					}
				}
			}
			deps := two[:0]
			if id, ok := acquired[[2]int{bestH, ci}]; ok {
				deps = append(deps, id)
			}
			if hasLast[bestV] {
				deps = append(deps, last[bestV])
			}
			id := s.AddOp(sched.Op{
				Rank:   bestV,
				Mode:   sched.ModeKnem,
				Src:    buf[bestH],
				SrcOff: off,
				Dst:    buf[bestV],
				DstOff: off,
				Bytes:  ln,
				Chunk:  ci,
				Deps:   deps,
			})
			acquired[[2]int{bestV, ci}] = id
			last[bestV], hasLast[bestV] = id, true
			holders = append(holders, bestV)
			for k, v := range needers {
				if v == bestV {
					needers = append(needers[:k], needers[k+1:]...)
					break
				}
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled bcast repair invalid: %w", err)
	}
	return s, nil
}

// CompileAllgatherRepair compiles the allgather delta repair schedule
// over a survivor communicator. holds[v][o] reports whether rank v's
// receive buffer verifiably holds origin o's block at the current layout
// position o·block — including blocks that reached v via a now-dead
// intermediate: the ledger records possession, not provenance, so a
// survivor keeps serving a segment whose original forwarder died.
//
// An origin missing its own block in its receive buffer re-copies it
// locally from its send buffer first (the send buffer is the caller's and
// always authoritative), which is why repair never strands a surviving
// origin's segment. Remaining missing (rank, origin) pairs are filled by
// the same pipelined minimum-distance greedy as the broadcast repair.
//
// Buffers are named "send"/"recv" like CompileAllgather's; the Chunk field
// of each op carries the origin's communicator rank for trace attribution.
func CompileAllgatherRepair(m distance.View, block int64, holds [][]bool) (*sched.Schedule, error) {
	n := m.Size()
	if len(holds) != n {
		return nil, fmt.Errorf("core: repair holds for %d ranks, view has %d", len(holds), n)
	}
	for v := range holds {
		if len(holds[v]) != n {
			return nil, fmt.Errorf("core: rank %d repair holds cover %d origins, want %d", v, len(holds[v]), n)
		}
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: repair block %d", block)
	}
	s := sched.New(n)
	sendBuf := make([]sched.BufID, n)
	recvBuf := make([]sched.BufID, n)
	for v := 0; v < n; v++ {
		sendBuf[v] = s.AddBuffer(v, "send", block)
		recvBuf[v] = s.AddBuffer(v, "recv", int64(n)*block)
	}
	last := make([]sched.OpID, n)
	hasLast := make([]bool, n)
	var two [2]sched.OpID                   // dependency scratch: AddOp copies
	acquired := make(map[[2]int]sched.OpID) // (rank, origin) acquired within this plan

	chain := func(v int, id sched.OpID, origin int) {
		acquired[[2]int{v, origin}] = id
		last[v], hasLast[v] = id, true
	}

	for o := 0; o < n; o++ {
		var holders, needers []int
		for v := 0; v < n; v++ {
			if holds[v][o] {
				holders = append(holders, v)
			} else {
				needers = append(needers, v)
			}
		}
		if len(holders) == 0 || !holds[o][o] {
			// The origin restores its own slot from its send buffer.
			var deps []sched.OpID
			if hasLast[o] {
				deps = append(deps, last[o])
			}
			id := s.AddOp(sched.Op{
				Rank:   o,
				Mode:   sched.ModeLocal,
				Src:    sendBuf[o],
				Dst:    recvBuf[o],
				DstOff: int64(o) * block,
				Bytes:  block,
				Chunk:  o,
				Deps:   deps,
			})
			chain(o, id, o)
			holders = append(holders, o)
			for k, v := range needers {
				if v == o {
					needers = append(needers[:k], needers[k+1:]...)
					break
				}
			}
		}
		for len(needers) > 0 {
			bestV, bestH, bestD := -1, -1, int(^uint(0)>>1)
			for _, v := range needers {
				for _, h := range holders {
					if d := m.At(v, h); d < bestD {
						bestV, bestH, bestD = v, h, d
					}
				}
			}
			deps := two[:0]
			if id, ok := acquired[[2]int{bestH, o}]; ok {
				deps = append(deps, id)
			}
			if hasLast[bestV] {
				deps = append(deps, last[bestV])
			}
			id := s.AddOp(sched.Op{
				Rank:   bestV,
				Mode:   sched.ModeKnem,
				Src:    recvBuf[bestH],
				SrcOff: int64(o) * block,
				Dst:    recvBuf[bestV],
				DstOff: int64(o) * block,
				Bytes:  block,
				Chunk:  o,
				Deps:   deps,
			})
			chain(bestV, id, o)
			holders = append(holders, bestV)
			for k, v := range needers {
				if v == bestV {
					needers = append(needers[:k], needers[k+1:]...)
					break
				}
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled allgather repair invalid: %w", err)
	}
	return s, nil
}
