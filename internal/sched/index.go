package sched

// Index is the execution index of a schedule: what an executor needs per
// rank and per op, computed once per Schedule object (Schedule.Index) and
// shared by every run of it. Holding an Index also certifies that the
// schedule passed Validate.
type Index struct {
	s       *Schedule
	rankOps [][]int32 // per rank: the ops it executes, in program order
	// waiters[id] are the ranks, other than the executing one, that run an
	// op depending on op id: each is owed one notification when id completes
	// (the paper's §IV-C cross-rank synchronisations, at most one per rank).
	waiters [][]int32
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
	ix := &Index{s: s, rankOps: make([][]int32, s.NumRanks), waiters: make([][]int32, len(s.Ops))}
	for i := range s.Ops {
		r := s.Ops[i].Rank
		ix.rankOps[r] = append(ix.rankOps[r], int32(i))
	}
	// Rank by rank, so a repeated (op, waiting rank) pair is always adjacent.
	for r, ops := range ix.rankOps {
		for _, id := range ops {
			for _, d := range s.Ops[id].Deps {
				w := ix.waiters[d]
				if s.Ops[d].Rank != r && (len(w) == 0 || w[len(w)-1] != int32(r)) {
					ix.waiters[d] = append(w, int32(r))
				}
			}
		}
	}
	s.index.Store(ix)
	return ix, nil
}

// Schedule returns the schedule the index was built from.
func (ix *Index) Schedule() *Schedule { return ix.s }

// RankOps returns the ids of the ops rank executes, in program order (nil
// for a rank the schedule does not know).
func (ix *Index) RankOps(rank int) []int32 {
	if rank < 0 || rank >= len(ix.rankOps) {
		return nil
	}
	return ix.rankOps[rank]
}

// Waiters returns the ranks to notify when op id completes.
func (ix *Index) Waiters(id OpID) []int32 { return ix.waiters[id] }
