package tune

import (
	"fmt"

	"distcoll/internal/baseline"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/sched"
)

// Collectives CompileFor compiles but the selector does not decide: no
// table holds rules for them (Table.Validate rejects them) and the
// calibrator does not sweep them, so they only ever run under a fixed
// component.
const (
	CollGather   Collective = "gather"
	CollScatter  Collective = "scatter"
	CollAlltoall Collective = "alltoall"
)

// AlltoallHierarchicalLimit: below this block size the distance-aware
// component aggregates inter-node traffic at machine leaders (one network
// message per node pair); above it the direct single-copy schedule wins —
// alltoall volume is irreducible, staging only adds copies and leaders
// become hot spots. Calibrated from the alltoall extension experiment.
const AlltoallHierarchicalLimit = 512

// CompileFor compiles the schedule a decision names, over the given
// distance view. It is the single mapping from (collective, component,
// tree shape, chunk) to compiled programs: the offline calibrator
// simulates its result, the mpi runtime executes it through the plan cache
// — for a fixed component (a decision with only Component set) as for the
// selector's choice — and the figure drivers plot it, so a calibrated
// table always describes exactly what the runtime will run. A new variant
// is one case here plus its compiler in core or baseline.
//
// A knemcoll decision names a tree shape and a chunk, not a construction:
// which builder turns the view into the tree or ring is core's rule
// (core.TreeFor, core.RingFor), and nothing here materializes a matrix.
// Gather and scatter run every component through the same subtree-staging
// compiler — over the distance-aware tree for knemcoll, the rank-based
// binomial tree for the baselines — so the comparison isolates topology.
//
// bytes is the full message for bcast/reduce/allreduce and the per-rank
// block for allgather, gather, scatter and alltoall; align is the
// reduction element size (reduce and allreduce; ≤1 means byte-wise).
func CompileFor(coll Collective, d Decision, v distance.View, root int, bytes, align int64) (*sched.Schedule, error) {
	n := v.Size()
	knem := d.Component == ComponentKNEM
	var tp baseline.TransportConfig
	switch d.Component {
	case ComponentKNEM:
	case ComponentTuned:
		tp = baseline.SMKnemBTL()
	case ComponentMPICH:
		tp = baseline.NemesisSM()
	default:
		return nil, fmt.Errorf("tune: cannot compile %s with decision %+v", coll, d)
	}
	switch coll {
	case CollBcast:
		if knem {
			tree, err := knemTree(d, v, root)
			if err != nil {
				return nil, err
			}
			return core.CompileBroadcast(tree, bytes, d.Chunk)
		}
		alg, seg := baseline.TunedBcastDecision(n, bytes)
		if d.Component == ComponentMPICH {
			alg, seg = baseline.MPICHBcastDecision(n, bytes)
		}
		return baseline.CompileBcast(alg, n, root, bytes, seg, tp)
	case CollAllgather:
		if knem {
			ring, err := core.RingFor(v)
			if err != nil {
				return nil, err
			}
			return core.CompileAllgather(ring, bytes)
		}
		return baseline.CompileAllgather(baseline.TunedAllgatherDecision(n, bytes), n, bytes, tp)
	case CollReduce:
		if knem {
			tree, err := knemTree(d, v, root)
			if err != nil {
				return nil, err
			}
			return core.CompileReduce(tree, bytes, d.Chunk, align)
		}
		return baseline.CompileReduce(n, root, bytes, baseline.TunedReduceDecision(n, bytes), tp)
	case CollAllreduce:
		if knem && d.Tree {
			tree, err := knemTree(d, v, root)
			if err != nil {
				return nil, err
			}
			return core.CompileAllreduceTree(tree, bytes, d.Chunk, align)
		}
		if knem {
			ring, err := core.RingFor(v)
			if err != nil {
				return nil, err
			}
			return core.CompileAllreduce(ring, bytes, align)
		}
		return baseline.CompileAllreduce(baseline.TunedAllreduceDecision(n, bytes), n, bytes, align, tp)
	case CollGather, CollScatter:
		var tree *core.Tree
		var err error
		if knem {
			tree, err = knemTree(d, v, root)
		} else {
			tree, err = baseline.BinomialTree(n, root)
		}
		if err != nil {
			return nil, err
		}
		if coll == CollGather {
			return core.CompileGather(tree, bytes)
		}
		return core.CompileScatter(tree, bytes)
	case CollAlltoall:
		switch {
		case !knem:
			return baseline.CompileAlltoallPairwise(n, bytes, tp)
		case bytes < AlltoallHierarchicalLimit:
			return core.CompileAlltoallHierarchical(v, bytes)
		}
		return core.CompileAlltoallDirect(n, bytes)
	}
	return nil, fmt.Errorf("tune: cannot compile %s with decision %+v", coll, d)
}

// knemTree builds the tree a knemcoll decision names: the linear topology
// (root fans out to every rank directly) when the decision collapses the
// distance structure, the view's distance-aware tree otherwise.
func knemTree(d Decision, v distance.View, root int) (*core.Tree, error) {
	if d.Linear {
		return core.NewLinearTree(v.Size(), root)
	}
	return core.TreeFor(v, root)
}
