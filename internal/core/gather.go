package core

import (
	"fmt"

	"distcoll/internal/sched"
)

// Gather and Scatter over the distance-aware tree — part of the paper's
// §VI plan to "make all Open MPI's collective components distance-aware".
//
// Both stage data along the tree so every block crosses each tree edge
// exactly once as part of one contiguous kernel-assisted copy:
//
//   - Gather: each rank's staging buffer holds the blocks of its whole
//     subtree, laid out in subtree DFS order; parents pull children's
//     stages whole. The root finally permutes the DFS layout into
//     communicator-rank order with local copies.
//   - Scatter: the root permutes its source into DFS order; children pull
//     the region covering their subtree from the parent's stage, and every
//     rank extracts its own block locally.
//
// Slow links therefore carry the minimal volume: the total payload of the
// subtree behind them, once.

// dfsLayout returns the DFS order of ranks under the tree and each rank's
// position in it.
func dfsLayout(t *Tree) (order []int, pos []int) {
	order = make([]int, 0, t.Size())
	pos = make([]int, t.Size())
	var walk func(u int)
	walk = func(u int) {
		pos[u] = len(order)
		order = append(order, u)
		for _, v := range t.Children[u] {
			walk(v)
		}
	}
	walk(t.Root)
	return order, pos
}

// subtreeSize[r] = number of ranks in r's subtree (DFS-contiguous).
func subtreeSizes(t *Tree) []int {
	sizes := make([]int, t.Size())
	var walk func(u int) int
	walk = func(u int) int {
		total := 1
		for _, v := range t.Children[u] {
			total += walk(v)
		}
		sizes[u] = total
		return total
	}
	walk(t.Root)
	return sizes
}

// innerRanks counts the ranks with children.
func innerRanks(t *Tree) int {
	in := 0
	for _, cs := range t.Children {
		if len(cs) > 0 {
			in++
		}
	}
	return in
}

// CompileGather compiles a distance-aware gather: every rank contributes
// block bytes ("send"); the root's "recv" buffer (n·block) receives them
// in communicator-rank order.
func CompileGather(t *Tree, block int64) (*sched.Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: gather block %d", block)
	}
	n := t.Size()
	s := sched.New(n)
	// Every inner rank stages its own block and pulls each child's region,
	// waiting for its previous op and, under an inner child, for that
	// child's last; the root then places n blocks, chained.
	in := innerRanks(t)
	s.Grow(in+n-1+n, n+in+1, n-1+in-1+n)
	send := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		send[r] = s.AddBuffer(r, "send", block)
	}
	recv := s.AddBuffer(t.Root, "recv", int64(n)*block)
	if n == 1 {
		s.AddOp(sched.Op{Rank: 0, Mode: sched.ModeLocal, Src: send[0], Dst: recv, Bytes: block})
		return s, s.Validate()
	}
	dfs, pos := dfsLayout(t)
	sizes := subtreeSizes(t)

	// Staging buffers for internal non-root ranks.
	stage := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		if r != t.Root && len(t.Children[r]) > 0 {
			stage[r] = s.AddBuffer(r, "stage", int64(sizes[r])*block)
		}
	}
	// rootStage holds the DFS-ordered blocks at the root before the final
	// permutation.
	rootStage := s.AddBuffer(t.Root, "stage", int64(n)*block)

	// stageBuf/stageBase: where rank r's subtree region lives at r.
	stageBuf := func(r int) sched.BufID {
		if r == t.Root {
			return rootStage
		}
		if len(t.Children[r]) == 0 {
			return send[r]
		}
		return stage[r]
	}
	stageBase := func(r int) int64 {
		if r == t.Root {
			return 0
		}
		if len(t.Children[r]) == 0 {
			return 0
		}
		return int64(pos[r]) * block // subtree DFS region starts at own pos
	}

	// done[r]: op completing r's staged subtree.
	done := make([]sched.OpID, n)
	for i := range done {
		done[i] = -1
	}
	// Process ranks bottom-up (reverse BFS).
	var two [2]sched.OpID
	order := bfsOrder(t)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		if len(t.Children[u]) == 0 {
			continue // leaves stage in place (their send buffer)
		}
		// Copy own block into the stage, then pull each child's region.
		var prev sched.OpID = -1
		ownOff := int64(pos[u])*block - stageBase(u)
		prev = s.AddOp(sched.Op{
			Rank: u, Mode: sched.ModeLocal,
			Src: send[u], Dst: stageBuf(u), DstOff: ownOff, Bytes: block,
		})
		for _, v := range t.Children[u] {
			deps := append(two[:0], prev)
			if done[v] >= 0 {
				deps = append(deps, done[v])
			}
			prev = s.AddOp(sched.Op{
				Rank: u, Mode: sched.ModeKnem,
				Src: stageBuf(v), SrcOff: 0,
				Dst: stageBuf(u), DstOff: int64(pos[v])*block - stageBase(u),
				Bytes: int64(sizes[v]) * block,
				Deps:  deps,
			})
		}
		done[u] = prev
	}
	// Final permutation at the root: DFS position → communicator rank.
	prev := done[t.Root]
	for p, r := range dfs {
		var deps []sched.OpID
		if prev >= 0 {
			deps = []sched.OpID{prev}
		}
		prev = s.AddOp(sched.Op{
			Rank: t.Root, Mode: sched.ModeLocal,
			Src: rootStage, SrcOff: int64(p) * block,
			Dst: recv, DstOff: int64(r) * block,
			Bytes: block,
			Deps:  deps,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled gather invalid: %w", err)
	}
	return s, nil
}

// CompileScatter compiles a distance-aware scatter: the root's "send"
// buffer (n·block, in communicator-rank order) is distributed so every
// rank's "recv" buffer holds its block.
func CompileScatter(t *Tree, block int64) (*sched.Schedule, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: scatter block %d", block)
	}
	n := t.Size()
	s := sched.New(n)
	// The root places n blocks, chained; every other rank pulls once from
	// its parent and, when inner, extracts its own block; the root's own
	// block is one more copy.
	in := max(innerRanks(t), 1) // a lone root stages too
	s.Grow(n+n-1+in-1+1, 1+n+in, n-1+n-1+in-1)
	send := s.AddBuffer(t.Root, "send", int64(n)*block)
	recv := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		recv[r] = s.AddBuffer(r, "recv", block)
	}
	dfs, pos := dfsLayout(t)
	sizes := subtreeSizes(t)

	stage := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		if len(t.Children[r]) > 0 || r == t.Root {
			stage[r] = s.AddBuffer(r, "stage", int64(sizes[r])*block)
		}
	}
	stageBase := func(r int) int64 {
		if r == t.Root {
			return 0
		}
		return int64(pos[r]) * block
	}

	// Root permutes rank order → DFS order into its stage.
	var rootPrev sched.OpID = -1
	for p, r := range dfs {
		var deps []sched.OpID
		if rootPrev >= 0 {
			deps = []sched.OpID{rootPrev}
		}
		rootPrev = s.AddOp(sched.Op{
			Rank: t.Root, Mode: sched.ModeLocal,
			Src: send, SrcOff: int64(r) * block,
			Dst: stage[t.Root], DstOff: int64(p) * block,
			Bytes: block,
			Deps:  deps,
		})
	}
	ready := make([]sched.OpID, n) // op making r's stage/block available
	ready[t.Root] = rootPrev

	// Top-down: children pull their subtree region, then extract their own
	// block.
	for _, u := range bfsOrder(t) {
		for _, v := range t.Children[u] {
			if len(t.Children[v]) > 0 {
				ready[v] = s.AddOp(sched.Op{
					Rank: v, Mode: sched.ModeKnem,
					Src: stage[u], SrcOff: int64(pos[v])*block - stageBase(u),
					Dst: stage[v], DstOff: 0,
					Bytes: int64(sizes[v]) * block,
					Deps:  []sched.OpID{ready[u]},
				})
				// Extract own block (first of the subtree region).
				s.AddOp(sched.Op{
					Rank: v, Mode: sched.ModeLocal,
					Src: stage[v], SrcOff: 0, Dst: recv[v], Bytes: block,
					Deps: []sched.OpID{ready[v]},
				})
			} else {
				ready[v] = s.AddOp(sched.Op{
					Rank: v, Mode: sched.ModeKnem,
					Src: stage[u], SrcOff: int64(pos[v])*block - stageBase(u),
					Dst: recv[v], DstOff: 0,
					Bytes: block,
					Deps:  []sched.OpID{ready[u]},
				})
			}
		}
	}
	// The root extracts its own block from its original send buffer.
	s.AddOp(sched.Op{
		Rank: t.Root, Mode: sched.ModeLocal,
		Src: send, SrcOff: int64(t.Root) * block,
		Dst: recv[t.Root], Bytes: block,
	})
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiled scatter invalid: %w", err)
	}
	return s, nil
}
