package baseline

import (
	"fmt"

	"distcoll/internal/core"
	"distcoll/internal/sched"
)

// BcastAlgorithm names a broadcast algorithm selectable by the decision
// functions.
type BcastAlgorithm int

const (
	BcastBinomial BcastAlgorithm = iota
	BcastChain
	BcastScatterRecDoubling // van de Geijn: scatter + recursive-doubling allgather
	BcastScatterRing        // van de Geijn: scatter + ring allgather
)

func (a BcastAlgorithm) String() string {
	switch a {
	case BcastBinomial:
		return "binomial"
	case BcastChain:
		return "chain"
	case BcastScatterRecDoubling:
		return "scatter+recdbl"
	case BcastScatterRing:
		return "scatter+ring"
	default:
		return fmt.Sprintf("BcastAlgorithm(%d)", int(a))
	}
}

// TunedBcastDecision approximates Open MPI tuned's fixed decision rules
// for intra-node broadcast: binomial for small messages, then segmented
// trees with growing segment sizes. Open MPI's actual mid/large stages are
// split-binary and chain pipelines; under the flow-level machine model a
// segmented binomial reproduces the measured curves (monotone rising
// contiguous bandwidth, >45 % cross-socket loss) most faithfully, so it
// stands in for both — see DESIGN.md.
func TunedBcastDecision(n int, size int64) (BcastAlgorithm, int64) {
	switch {
	case n <= 2:
		return BcastChain, 0
	case size < 32<<10:
		return BcastBinomial, 0
	case size < 512<<10:
		return BcastBinomial, 32 << 10
	default:
		return BcastBinomial, 128 << 10
	}
}

// MPICHBcastDecision reproduces MPICH2's (Thakur & Gropp) selection:
// binomial below 12 KB or for small communicators; otherwise scatter
// followed by an allgather — recursive doubling for power-of-two
// communicators below 512 KB, ring above.
func MPICHBcastDecision(n int, size int64) (BcastAlgorithm, int64) {
	switch {
	case size < 12<<10 || n < 8:
		return BcastBinomial, 0
	case size < 512<<10 && isPow2(n):
		return BcastScatterRecDoubling, 0
	default:
		return BcastScatterRing, 0
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// CompileBcast compiles a broadcast of size bytes over n ranks rooted at
// root, using the requested algorithm, segment size (0 = whole message)
// and transport. Every rank owns a "data" buffer of size bytes; the root's
// is the source.
func CompileBcast(alg BcastAlgorithm, n, root int, size, segBytes int64, cfg TransportConfig) (*sched.Schedule, error) {
	if size <= 0 {
		return nil, fmt.Errorf("baseline: broadcast size %d", size)
	}
	if err := checkTreeArgs(n, root); err != nil {
		return nil, err
	}
	switch alg {
	case BcastBinomial, BcastChain:
		tree, err := buildTree(alg, n, root)
		if err != nil {
			return nil, err
		}
		return CompileTreeBcast(tree, size, segBytes, cfg)
	case BcastScatterRecDoubling, BcastScatterRing:
		return compileVanDeGeijn(alg, n, root, size, cfg)
	default:
		return nil, fmt.Errorf("baseline: unknown bcast algorithm %d", alg)
	}
}

func buildTree(alg BcastAlgorithm, n, root int) (*core.Tree, error) {
	switch alg {
	case BcastBinomial:
		return BinomialTree(n, root)
	case BcastChain:
		return ChainTree(n, root)
	default:
		return nil, fmt.Errorf("baseline: %v is not a tree algorithm", alg)
	}
}

// CompileTreeBcast compiles a sender-driven, optionally segmented
// broadcast over an arbitrary tree (rank-based or distance-aware): each
// parent forwards every segment to its children in child order, as soon
// as it has received that segment.
func CompileTreeBcast(tree *core.Tree, size, segBytes int64, cfg TransportConfig) (*sched.Schedule, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, fmt.Errorf("baseline: broadcast size %d", size)
	}
	n := tree.Size()
	s := sched.New(n)
	buf := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		buf[r] = s.AddBuffer(r, "data", size)
	}
	tp := NewTransport(s, cfg)
	segs := sched.Chunks(size, segBytes)

	// BFS rank order, so parents precede children within each segment
	// block and per-rank op chains interleave receive/forward per segment.
	bfs := make([]int, 0, n)
	queue := []int{tree.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		bfs = append(bfs, u)
		queue = append(queue, tree.Children[u]...)
	}

	recvOp := make([][]sched.OpID, n) // recvOp[r][seg]; root entries stay -1
	for r := range recvOp {
		recvOp[r] = make([]sched.OpID, len(segs))
		for i := range recvOp[r] {
			recvOp[r][i] = -1
		}
	}
	for si, seg := range segs {
		for _, u := range bfs {
			var deps []sched.OpID
			if u != tree.Root {
				deps = []sched.OpID{recvOp[u][si]}
			}
			for _, v := range tree.Children[u] {
				done, err := tp.Send(u, v, buf[u], seg[0], buf[v], seg[0], seg[1], deps)
				if err != nil {
					return nil, err
				}
				recvOp[v][si] = done
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: compiled tree bcast invalid: %w", err)
	}
	return s, nil
}

// compileVanDeGeijn compiles MPICH's large-message broadcast: a binomial
// scatter of rank blocks followed by an in-place allgather (recursive
// doubling or ring) that reassembles the full message everywhere.
func compileVanDeGeijn(alg BcastAlgorithm, n, root int, size int64, cfg TransportConfig) (*sched.Schedule, error) {
	s := sched.New(n)
	buf := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		buf[r] = s.AddBuffer(r, "data", size)
	}
	tp := NewTransport(s, cfg)
	offs, lens := sched.BlockTable(size, n) // indexed by vrank

	rangeStart := func(v int) int64 { return offs[v] }
	rangeEnd := func(vEnd int) int64 { // exclusive vrank bound
		if vEnd >= n {
			return size
		}
		return offs[vEnd]
	}

	// Binomial scatter over virtual ranks: the parent sends each child the
	// byte range covering the child's whole subtree, largest subtree first.
	// holdDeps[v] gates everything vrank v currently holds.
	holdDeps := make([][]sched.OpID, n)
	var scatter func(v, mask int) error
	scatter = func(v, mask int) error {
		for ; mask >= 1; mask >>= 1 {
			cv := v + mask
			if cv >= n {
				continue
			}
			lo := rangeStart(cv)
			hi := rangeEnd(cv + mask)
			if hi > lo {
				done, err := tp.Send(rankOf(v, root, n), rankOf(cv, root, n),
					buf[rankOf(v, root, n)], lo, buf[rankOf(cv, root, n)], lo, hi-lo, holdDeps[v])
				if err != nil {
					return err
				}
				holdDeps[cv] = []sched.OpID{done}
			}
			if err := scatter(cv, mask>>1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := scatter(0, highestPow2Below(n)); err != nil {
		return nil, err
	}

	switch alg {
	case BcastScatterRecDoubling:
		if !isPow2(n) {
			return nil, fmt.Errorf("baseline: recursive doubling needs power-of-two ranks, got %d", n)
		}
		// In-place recursive doubling over vranks: at step k, v exchanges
		// its aligned 2^k-block range with partner v^2^k.
		for mask := 1; mask < n; mask <<= 1 {
			recvDone := make([]sched.OpID, n)
			for i := range recvDone {
				recvDone[i] = -1
			}
			for v := 0; v < n; v++ {
				p := v ^ mask
				lo := rangeStart(v &^ (mask - 1))
				hi := rangeEnd((v &^ (mask - 1)) + mask)
				if hi > lo {
					done, err := tp.Send(rankOf(v, root, n), rankOf(p, root, n),
						buf[rankOf(v, root, n)], lo, buf[rankOf(p, root, n)], lo, hi-lo, holdDeps[v])
					if err != nil {
						return nil, err
					}
					recvDone[p] = done
				}
			}
			for v := 0; v < n; v++ {
				if recvDone[v] >= 0 {
					holdDeps[v] = append(holdDeps[v], recvDone[v])
				}
			}
		}
	case BcastScatterRing:
		// In-place ring allgather over vranks: at step s, v sends block
		// (v−s+1) to v+1 and receives block (v−s) from v−1.
		blockOp := make([][]sched.OpID, n)
		for v := 0; v < n; v++ {
			blockOp[v] = make([]sched.OpID, n)
			for b := range blockOp[v] {
				blockOp[v][b] = -1
			}
			if len(holdDeps[v]) > 0 {
				blockOp[v][v] = holdDeps[v][0]
			}
		}
		for step := 1; step < n; step++ {
			for v := 0; v < n; v++ {
				sendBlk := ((v-step+1)%n + n) % n
				if lens[sendBlk] == 0 {
					continue
				}
				right := (v + 1) % n
				var deps []sched.OpID
				if blockOp[v][sendBlk] >= 0 {
					deps = []sched.OpID{blockOp[v][sendBlk]}
				}
				done, err := tp.Send(rankOf(v, root, n), rankOf(right, root, n),
					buf[rankOf(v, root, n)], offs[sendBlk], buf[rankOf(right, root, n)], offs[sendBlk], lens[sendBlk], deps)
				if err != nil {
					return nil, err
				}
				blockOp[right][sendBlk] = done
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: compiled van de Geijn bcast invalid: %w", err)
	}
	return s, nil
}
