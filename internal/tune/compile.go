package tune

import (
	"fmt"

	"distcoll/internal/baseline"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/sched"
)

// CompileFor compiles the schedule a decision names, over the given
// distance view. It is the single mapping from decisions to compiled
// programs, shared by the offline calibrator (which simulates the result)
// and the mpi Adaptive component (which executes it through the plan
// cache), so a calibrated table always describes exactly what the runtime
// will run.
//
// A knemcoll decision names a tree shape and a chunk, not a construction:
// which builder turns the view into the tree or ring is core's rule
// (core.TreeFor, core.RingFor), the same one a communicator's own cache
// uses, and nothing here materializes a matrix.
//
// bytes is the full message for bcast/reduce/allreduce and the per-rank
// block for allgather; align is the reduction element size (reduce and
// allreduce; ≤1 means byte-wise).
func CompileFor(coll Collective, d Decision, v distance.View, root int, bytes, align int64) (*sched.Schedule, error) {
	n := v.Size()
	switch coll {
	case CollBcast:
		switch d.Component {
		case ComponentKNEM:
			tree, err := knemTree(d, v, root)
			if err != nil {
				return nil, err
			}
			return core.CompileBroadcast(tree, bytes, d.Chunk)
		case ComponentTuned:
			alg, seg := baseline.TunedBcastDecision(n, bytes)
			return baseline.CompileBcast(alg, n, root, bytes, seg, baseline.SMKnemBTL())
		case ComponentMPICH:
			alg, seg := baseline.MPICHBcastDecision(n, bytes)
			return baseline.CompileBcast(alg, n, root, bytes, seg, baseline.NemesisSM())
		}
	case CollAllgather:
		switch d.Component {
		case ComponentKNEM:
			ring, err := core.RingFor(v)
			if err != nil {
				return nil, err
			}
			return core.CompileAllgather(ring, bytes)
		case ComponentTuned:
			return baseline.CompileAllgather(baseline.TunedAllgatherDecision(n, bytes), n, bytes, baseline.SMKnemBTL())
		case ComponentMPICH:
			return baseline.CompileAllgather(baseline.TunedAllgatherDecision(n, bytes), n, bytes, baseline.NemesisSM())
		}
	case CollReduce:
		switch d.Component {
		case ComponentKNEM:
			tree, err := knemTree(d, v, root)
			if err != nil {
				return nil, err
			}
			return core.CompileReduce(tree, bytes, d.Chunk, align)
		case ComponentTuned:
			return baseline.CompileReduce(n, root, bytes, baseline.TunedReduceDecision(n, bytes), baseline.SMKnemBTL())
		case ComponentMPICH:
			return baseline.CompileReduce(n, root, bytes, baseline.TunedReduceDecision(n, bytes), baseline.NemesisSM())
		}
	case CollAllreduce:
		switch d.Component {
		case ComponentKNEM:
			ring, err := core.RingFor(v)
			if err != nil {
				return nil, err
			}
			return core.CompileAllreduce(ring, bytes, align)
		case ComponentTuned:
			return baseline.CompileAllreduce(baseline.TunedAllreduceDecision(n, bytes), n, bytes, align, baseline.SMKnemBTL())
		case ComponentMPICH:
			return baseline.CompileAllreduce(baseline.TunedAllreduceDecision(n, bytes), n, bytes, align, baseline.NemesisSM())
		}
	}
	return nil, fmt.Errorf("tune: cannot compile %s with decision %+v", coll, d)
}

// knemTree builds the broadcast/reduce tree a knemcoll decision names: the
// linear topology (root fans out to every rank directly) when the decision
// collapses the distance structure, the view's distance-aware tree
// otherwise.
func knemTree(d Decision, v distance.View, root int) (*core.Tree, error) {
	if d.Linear {
		return core.NewLinearTree(v.Size(), root)
	}
	return core.TreeFor(v, root)
}
