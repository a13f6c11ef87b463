package sched

import (
	"fmt"
	"strings"
)

// PendingDump renders the diagnostic a watchdog emits instead of
// deadlocking: every unfinished operation grouped by executing rank, with
// the dependencies it is still waiting on. Runnable ops (all deps met)
// are flagged, since they distinguish a stalled executor from a blocked
// one.
func (s *Schedule) PendingDump(done func(OpID) bool) string {
	byRank := make([][]OpID, s.NumRanks)
	pending := 0
	for i := range s.Ops {
		if r := s.Ops[i].Rank; !done(OpID(i)) {
			byRank[r] = append(byRank[r], OpID(i))
			pending++
		}
	}
	if pending == 0 {
		return "all ops finished"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d ops unfinished:", pending, len(s.Ops))
	for r, ids := range byRank {
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d:", r)
		for _, id := range ids {
			op := &s.Ops[id]
			var unmet []OpID
			for _, d := range op.Deps {
				if !done(d) {
					unmet = append(unmet, d)
				}
			}
			fmt.Fprintf(&b, " op %d (%s %s %dB", id, op.Mode, op.Kind, op.Bytes)
			if len(unmet) > 0 {
				fmt.Fprintf(&b, ", waits on %v)", unmet)
			} else {
				b.WriteString(", runnable)")
			}
		}
	}
	return b.String()
}

// AccessStats summarizes the memory traffic a schedule generates, for the
// paper's §IV-C balance analysis of the distance-aware allgather: per-rank
// copy counts, per-NUMA-node read/write volume, and the remote (cross-node)
// traffic that travels over slow links.
type AccessStats struct {
	// CopiesPerRank counts copy operations executed by each rank.
	CopiesPerRank []int
	// ReadBytes / WriteBytes per NUMA node id (memory-side traffic,
	// attributed to the node owning the buffer).
	ReadBytes  []int64
	WriteBytes []int64
	// RemoteReadBytes / RemoteWriteBytes are the portions where the buffer
	// lives on a different node than the executing rank — traffic crossing
	// the interconnect.
	RemoteReadBytes  int64
	RemoteWriteBytes int64
	// RemoteOps counts operations touching at least one remote buffer.
	RemoteOps int
}

// Analyze computes AccessStats; nodeOf maps a rank to its NUMA node id
// (0..nodes-1), following its core binding.
func (s *Schedule) Analyze(nodes int, nodeOf func(rank int) int) AccessStats {
	st := AccessStats{
		CopiesPerRank: make([]int, s.NumRanks),
		ReadBytes:     make([]int64, nodes),
		WriteBytes:    make([]int64, nodes),
	}
	for _, op := range s.Ops {
		st.CopiesPerRank[op.Rank]++
		execNode := nodeOf(op.Rank)
		srcNode := nodeOf(s.Buffers[op.Src].Rank)
		dstNode := nodeOf(s.Buffers[op.Dst].Rank)
		st.ReadBytes[srcNode] += op.Bytes
		st.WriteBytes[dstNode] += op.Bytes
		remote := false
		if srcNode != execNode {
			st.RemoteReadBytes += op.Bytes
			remote = true
		}
		if dstNode != execNode {
			st.RemoteWriteBytes += op.Bytes
			remote = true
		}
		if remote {
			st.RemoteOps++
		}
	}
	return st
}

// Balanced reports whether every entry of xs is within tol (relative) of
// the mean; used to assert the paper's "no hot-spot for any memory
// controller" claim.
func Balanced(xs []int64, tol float64) bool {
	if len(xs) == 0 {
		return true
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	mean := float64(sum) / float64(len(xs))
	if mean == 0 {
		for _, x := range xs {
			if x != 0 {
				return false
			}
		}
		return true
	}
	for _, x := range xs {
		if d := float64(x) - mean; d > tol*mean || -d > tol*mean {
			return false
		}
	}
	return true
}
