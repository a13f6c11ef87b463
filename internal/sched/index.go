package sched

// Index is the execution index of a schedule: what an executor needs per
// rank and per op, computed once per Schedule object (Schedule.Index) and
// shared by every run of it. Holding an Index also certifies that the
// schedule passed Validate.
//
// Both relations are in CSR form — one offset array and one value array
// each, built by count-then-fill — so an index costs a constant number of
// allocations whatever the schedule's rank and op counts.
type Index struct {
	s *Schedule
	// rankOps[rankStart[r]:rankStart[r+1]] are the ops rank r executes, in
	// program order.
	rankStart, rankOps []int32
	// waiters[waitStart[id]:waitStart[id+1]] are the ranks, other than the
	// executing one, that run an op depending on op id, ascending: each is
	// owed one notification when id completes (the paper's §IV-C cross-rank
	// synchronisations, at most one per rank).
	waitStart, waiters []int32
}

// Index returns the schedule's execution index, validating the schedule and
// building the index on first use; later calls on the same (unmodified)
// schedule return the memoised value. Concurrent first calls may each build
// one; all are identical and any one is kept.
func (s *Schedule) Index() (*Index, error) {
	if ix := s.index.Load(); ix != nil {
		return ix, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nr, n := s.NumRanks, len(s.Ops)
	// Every count goes two slots above its key, so that after the prefix
	// sum start[k+1] is where k's run begins; filling advances it to where
	// the run ends, which is where k+1's begins (as des does for dependents).
	offs := make([]int32, nr+2+n+2)
	rankStart, waitStart := offs[:nr+2], offs[nr+2:]
	for i := range s.Ops {
		rankStart[s.Ops[i].Rank+2]++
	}
	for r := 2; r < len(rankStart); r++ {
		rankStart[r] += rankStart[r-1]
	}
	ix := &Index{s: s, rankOps: make([]int32, n)}
	for i := range s.Ops {
		r := s.Ops[i].Rank
		ix.rankOps[rankStart[r+1]] = int32(i)
		rankStart[r+1]++
	}
	ix.rankStart = rankStart[:nr+1]

	// Rank by rank, so that a repeated (op, waiting rank) pair is adjacent
	// and one mark per op — the last rank counted, negated while filling —
	// tells a repeat from a new waiter.
	mark := make([]int32, n)
	for r := int32(0); int(r) < nr; r++ {
		for _, id := range ix.RankOps(int(r)) {
			for _, d := range s.Ops[id].Deps {
				if s.Ops[d].Rank != int(r) && mark[d] != r+1 {
					mark[d] = r + 1
					waitStart[d+2]++
				}
			}
		}
	}
	for i := 2; i < len(waitStart); i++ {
		waitStart[i] += waitStart[i-1]
	}
	ix.waiters = make([]int32, waitStart[n+1])
	for r := int32(0); int(r) < nr; r++ {
		for _, id := range ix.RankOps(int(r)) {
			for _, d := range s.Ops[id].Deps {
				if s.Ops[d].Rank != int(r) && mark[d] != -r-1 {
					mark[d] = -r - 1
					ix.waiters[waitStart[d+1]] = r
					waitStart[d+1]++
				}
			}
		}
	}
	ix.waitStart = waitStart[:n+1]
	s.index.Store(ix)
	return ix, nil
}

// Schedule returns the schedule the index was built from.
func (ix *Index) Schedule() *Schedule { return ix.s }

// RankOps returns the ids of the ops rank executes, in program order (nil
// for a rank the schedule does not know).
func (ix *Index) RankOps(rank int) []int32 {
	if rank < 0 || rank+1 >= len(ix.rankStart) {
		return nil
	}
	return ix.rankOps[ix.rankStart[rank]:ix.rankStart[rank+1]]
}

// Waiters returns the ranks to notify when op id completes.
func (ix *Index) Waiters(id OpID) []int32 {
	return ix.waiters[ix.waitStart[id]:ix.waitStart[id+1]]
}
