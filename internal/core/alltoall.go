package core

import (
	"fmt"

	"distcoll/internal/distance"
	"distcoll/internal/sched"
)

// Alltoall — the last of the §VI "make all collective components
// distance-aware" extensions. The total volume of an alltoall is
// irreducible, so the distance-aware win is *aggregation*: grouping the
// blocks that must cross a slow link into one kernel-assisted transfer
// between cluster leaders instead of |A|·|B| separate small messages.
//
// Two compilers are provided:
//
//   - CompileAlltoallDirect: every rank pulls each peer's block straight
//     from the peer's send buffer. Minimal data movement (each block is
//     copied exactly once); best for large blocks where per-op overhead is
//     negligible.
//   - CompileAlltoallHierarchical: on multi-node jobs, ranks are grouped
//     by machine. Intra-node blocks move directly; inter-node blocks are
//     packed locally, gathered at the node leader, exchanged
//     leader-to-leader as ONE network message per ordered node pair, and
//     scattered on arrival. The network carries one transfer per node
//     pair instead of |A|·|B| small ones — a win only while per-message
//     network latency dominates (tiny blocks); within a single node the
//     compiler deliberately falls back to the direct schedule (see the
//     alltoall extension experiment for the measurement).

// CompileAlltoallDirect compiles the direct pull alltoall: buffers "send"
// and "recv" of n·block bytes per rank; recv[a·block:] = rank a's block
// for this rank.
func CompileAlltoallDirect(n int, block int64) (*sched.Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: communicator size %d", n)
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: alltoall block %d", block)
	}
	s := sched.New(n)
	s.Grow(n*n, 2*n, n*(n-1)) // n chained copies per rank
	send := make([]sched.BufID, n)
	recv := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", int64(n)*block)
		recv[r] = s.AddBuffer(r, "recv", int64(n)*block)
	}
	for r := 0; r < n; r++ {
		prev := s.AddOp(sched.Op{
			Rank: r, Mode: sched.ModeLocal,
			Src: send[r], SrcOff: int64(r) * block,
			Dst: recv[r], DstOff: int64(r) * block, Bytes: block,
		})
		// Pull peers in a rotated order so no sender is hammered by all
		// receivers at once.
		for st := 1; st < n; st++ {
			a := (r + st) % n
			prev = s.AddOp(sched.Op{
				Rank: r, Mode: sched.ModeKnem,
				Src: send[a], SrcOff: int64(r) * block,
				Dst: recv[r], DstOff: int64(a) * block, Bytes: block,
				Deps: []sched.OpID{prev},
			})
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled direct alltoall invalid: %w", err)
	}
	return s, nil
}

// alltoallClusters picks the hierarchical grouping. Aggregation pays off
// when crossing the boundary costs far more per message than local
// staging: on multi-node jobs the boundary is the network, so ranks group
// by machine (distance ≤ MaxIntraNode); within one node the per-message
// cost is a kernel trap regardless of distance, so grouping buys nothing
// — the finest level is used only if the caller insists (it is also what
// the correctness tests exercise intra-node). Returns nil when no useful
// grouping exists. It reads the physical view under an overlay (rule.go).
func alltoallClusters(m distance.View) [][]int {
	m, _ = physical(m)
	n := m.Size()
	minD, maxD := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := m.At(i, j)
			if minD == 0 || d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
		}
	}
	if minD == 0 || minD == maxD {
		return nil // flat placement (or single pair): nothing to aggregate
	}
	if maxD <= distance.MaxIntraNode {
		// Single node: every message pays the same kernel trap whatever
		// its distance, so aggregation only adds staging copies (measured
		// in the alltoall extension experiment). Use the direct schedule.
		return nil
	}
	clusters := distance.Clusters(m, distance.MaxIntraNode) // group by machine
	if len(clusters) <= 1 || len(clusters) == n {
		return nil
	}
	return clusters
}

// CompileAlltoallHierarchical compiles the leader-aggregated alltoall.
// Falls back to the direct schedule when the placement offers no useful
// clustering.
func CompileAlltoallHierarchical(m distance.View, block int64) (*sched.Schedule, error) {
	n := m.Size()
	if n == 0 {
		return nil, fmt.Errorf("core: empty communicator")
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: alltoall block %d", block)
	}
	clusters := alltoallClusters(m)
	if clusters == nil {
		return CompileAlltoallDirect(n, block)
	}
	k := len(clusters)
	clOf := make([]int, n)   // rank → cluster index
	posIn := make([]int, n)  // rank → index within cluster
	base := make([]int64, k) // packed-layout offset of cluster c (in blocks)
	{
		var off int64
		for c, members := range clusters {
			base[c] = off
			off += int64(len(members))
			for p, r := range members {
				clOf[r] = c
				posIn[r] = p
			}
		}
	}
	leader := make([]int, k)
	for c, members := range clusters {
		leader[c] = members[0]
	}

	s := sched.New(n)
	// Ops by phase: n² packs, Σ|c|² intra-cluster pulls, n(k−1) leader
	// gathers, k(k−1) exchanges, n²−Σ|c|² scatters; the pack chain and the
	// own-block copies carry one dependency, everything else two.
	s.Grow(2*n*n+(k-1)*(n+k), 3*n+2*k, 3*n*n-2*n+2*(k-1)*(n+k))
	send := make([]sched.BufID, n)
	recv := make([]sched.BufID, n)
	packed := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", int64(n)*block)
		recv[r] = s.AddBuffer(r, "recv", int64(n)*block)
		packed[r] = s.AddBuffer(r, "packed", int64(n)*block)
	}
	// Leader staging: stageOut[c] holds, cluster-major over d≠c then
	// member-major over c's members, each member's |d| blocks. stageIn is
	// symmetric (source-cluster major).
	stageOut := make([]sched.BufID, k)
	stageIn := make([]sched.BufID, k)
	stageSize := func(c int) int64 { return int64(len(clusters[c])) * int64(n-len(clusters[c])) * block }
	// outOff(c, d): offset of destination-cluster d's region in stageOut[c].
	outOff := func(c, d int) int64 {
		var off int64
		for dd := 0; dd < d; dd++ {
			if dd == c {
				continue
			}
			off += int64(len(clusters[c])) * int64(len(clusters[dd])) * block
		}
		return off
	}
	// inOff(d, c): offset of source-cluster c's region in stageIn[d].
	inOff := func(d, c int) int64 {
		var off int64
		for cc := 0; cc < c; cc++ {
			if cc == d {
				continue
			}
			off += int64(len(clusters[d])) * int64(len(clusters[cc])) * block
		}
		return off
	}
	for c := 0; c < k; c++ {
		stageOut[c] = s.AddBuffer(leader[c], "stageout", stageSize(c))
		stageIn[c] = s.AddBuffer(leader[c], "stagein", stageSize(c))
	}

	// Phase 0 — pack: packed[r] orders the outgoing blocks cluster-major
	// ((base[c]+posIn[q])·block holds the block destined to q).
	packDone := make([]sched.OpID, n)
	for r := 0; r < n; r++ {
		var prev sched.OpID = -1
		for q := 0; q < n; q++ {
			var deps []sched.OpID
			if prev >= 0 {
				deps = []sched.OpID{prev}
			}
			prev = s.AddOp(sched.Op{
				Rank: r, Mode: sched.ModeLocal,
				Src: send[r], SrcOff: int64(q) * block,
				Dst: packed[r], DstOff: (base[clOf[q]] + int64(posIn[q])) * block,
				Bytes: block,
				Deps:  deps,
			})
		}
		packDone[r] = prev
	}

	// Phase 1 — intra-cluster exchange: q pulls its block from every
	// cluster mate's packed buffer (and keeps its own locally).
	var two [2]sched.OpID
	for _, members := range clusters {
		for _, q := range members {
			prev := packDone[q]
			for _, a := range members {
				deps := append(two[:0], prev)
				if a != q {
					deps = append(deps, packDone[a])
				}
				mode := sched.ModeKnem
				if a == q {
					mode = sched.ModeLocal
				}
				prev = s.AddOp(sched.Op{
					Rank: q, Mode: mode,
					Src: packed[a], SrcOff: (base[clOf[q]] + int64(posIn[q])) * block,
					Dst: recv[q], DstOff: int64(a) * block, Bytes: block,
					Deps: deps,
				})
			}
		}
	}

	// Phase 2 — leader gather: leader of c collects each member's slice
	// destined to every other cluster d (one contiguous pull per member
	// per destination cluster).
	gatherDone := make([][]sched.OpID, k) // [c][d]: stageOut region ready
	leaderChain := make([]sched.OpID, k)
	for c := 0; c < k; c++ {
		gatherDone[c] = make([]sched.OpID, k)
		leaderChain[c] = packDone[leader[c]]
		for d := 0; d < k; d++ {
			gatherDone[c][d] = -1
			if d == c {
				continue
			}
			for ai, a := range clusters[c] {
				mode := sched.ModeKnem
				if a == leader[c] {
					mode = sched.ModeLocal
				}
				leaderChain[c] = s.AddOp(sched.Op{
					Rank: leader[c], Mode: mode,
					Src: packed[a], SrcOff: base[d] * block,
					Dst: stageOut[c], DstOff: outOff(c, d) + int64(ai)*int64(len(clusters[d]))*block,
					Bytes: int64(len(clusters[d])) * block,
					Deps:  []sched.OpID{packDone[a], leaderChain[c]},
				})
			}
			gatherDone[c][d] = leaderChain[c]
		}
	}

	// Phase 3 — leader exchange: ONE transfer per ordered cluster pair.
	exchDone := make([][]sched.OpID, k) // [d][c]: stageIn region at d ready
	leaderIn := make([]sched.OpID, k)
	for d := 0; d < k; d++ {
		exchDone[d] = make([]sched.OpID, k)
		leaderIn[d] = leaderChain[d]
		for c := 0; c < k; c++ {
			exchDone[d][c] = -1
			if c == d {
				continue
			}
			leaderIn[d] = s.AddOp(sched.Op{
				Rank: leader[d], Mode: sched.ModeKnem,
				Src: stageOut[c], SrcOff: outOff(c, d),
				Dst: stageIn[d], DstOff: inOff(d, c),
				Bytes: int64(len(clusters[c])) * int64(len(clusters[d])) * block,
				Deps:  []sched.OpID{gatherDone[c][d], leaderIn[d]},
			})
			exchDone[d][c] = leaderIn[d]
		}
	}

	// Phase 4 — scatter: each member q of d pulls, per source cluster c,
	// every block [a][q] from the leader's stageIn.
	for d := 0; d < k; d++ {
		for _, q := range clusters[d] {
			prev := packDone[q]
			for c := 0; c < k; c++ {
				if c == d {
					continue
				}
				for ai, a := range clusters[c] {
					mode := sched.ModeKnem
					if q == leader[d] {
						mode = sched.ModeLocal
					}
					prev = s.AddOp(sched.Op{
						Rank: q, Mode: mode,
						Src:    stageIn[d],
						SrcOff: inOff(d, c) + (int64(ai)*int64(len(clusters[d]))+int64(posIn[q]))*block,
						Dst:    recv[q], DstOff: int64(a) * block, Bytes: block,
						Deps: []sched.OpID{exchDone[d][c], prev},
					})
				}
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled hierarchical alltoall invalid: %w", err)
	}
	return s, nil
}
