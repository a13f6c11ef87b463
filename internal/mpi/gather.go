package mpi

import (
	"fmt"

	"distcoll/internal/baseline"
	"distcoll/internal/core"
	"distcoll/internal/sched"
)

// gatherArgs is each member's contribution to Gather/Scatter.
type gatherArgs struct {
	small, big []byte // block-sized and n·block-sized buffers
	root       int
	comp       Component
}

// gatherTree picks the staging tree: the distance-aware tree for KNEMColl,
// the rank-based binomial tree for the baselines. Both execute through the
// same subtree-staging compiler, so the comparison isolates topology.
func (c *Comm) gatherTree(root int, comp Component) (*core.Tree, error) {
	switch comp {
	case KNEMColl:
		return c.state.distanceTree(root)
	case Tuned, MPICH2:
		return baseline.BinomialTree(c.Size(), root)
	default:
		return nil, fmt.Errorf("mpi: unknown component %v", comp)
	}
}

// Gather collects every member's send block into the root's recv buffer
// (Size()·len(send) bytes) in communicator-rank order; recv is ignored on
// other ranks.
func (c *Comm) Gather(send, recv []byte, root int, comp Component) error {
	_, result, err := c.coordinate(gatherArgs{small: send, big: recv, root: root, comp: comp},
		func(vals []any) (any, error) {
			args, err := checkGatherArgs(vals, true)
			if err != nil {
				return nil, err
			}
			block := int64(len(args[0].small))
			if block == 0 {
				return c.state.emptyPlan("gather", len(args)), nil
			}
			s, err := c.fixedSchedule("gather", args[0].comp, args[0].root, block, 0, func() (*sched.Schedule, error) {
				tree, err := c.gatherTree(args[0].root, args[0].comp)
				if err != nil {
					return nil, err
				}
				return core.CompileGather(tree, block)
			})
			if err != nil {
				return nil, err
			}
			caller := func(rank int, name string) []byte {
				switch {
				case name == "send":
					return args[rank].small
				case name == "recv" && rank == args[0].root:
					return args[rank].big
				default:
					return nil
				}
			}
			return c.state.newPlan("gather", s, caller)
		})
	if err != nil {
		return err
	}
	return c.runPlanVerified(result.(*collPlan), nil, nil)
}

// Scatter distributes the root's send buffer (Size()·len(recv) bytes, in
// communicator-rank order) so every member's recv buffer holds its block;
// send is ignored on other ranks.
func (c *Comm) Scatter(send, recv []byte, root int, comp Component) error {
	_, result, err := c.coordinate(gatherArgs{small: recv, big: send, root: root, comp: comp},
		func(vals []any) (any, error) {
			args, err := checkGatherArgs(vals, false)
			if err != nil {
				return nil, err
			}
			block := int64(len(args[0].small))
			if block == 0 {
				return c.state.emptyPlan("scatter", len(args)), nil
			}
			s, err := c.fixedSchedule("scatter", args[0].comp, args[0].root, block, 0, func() (*sched.Schedule, error) {
				tree, err := c.gatherTree(args[0].root, args[0].comp)
				if err != nil {
					return nil, err
				}
				return core.CompileScatter(tree, block)
			})
			if err != nil {
				return nil, err
			}
			caller := func(rank int, name string) []byte {
				switch {
				case name == "recv":
					return args[rank].small
				case name == "send" && rank == args[0].root:
					return args[rank].big
				default:
					return nil
				}
			}
			return c.state.newPlan("scatter", s, caller)
		})
	if err != nil {
		return err
	}
	return c.runPlanVerified(result.(*collPlan), nil, nil)
}

// checkGatherArgs validates the coordinated arguments; gather=true checks
// the root's big buffer as the destination, false as the source.
func checkGatherArgs(vals []any, gather bool) ([]gatherArgs, error) {
	what := "gather"
	if !gather {
		what = "scatter"
	}
	args := make([]gatherArgs, len(vals))
	for i, v := range vals {
		a, ok := v.(gatherArgs)
		if !ok {
			return nil, fmt.Errorf("mpi: %s coordination corrupted", what)
		}
		args[i] = a
		if a.root != args[0].root || a.comp != args[0].comp || len(a.small) != len(args[0].small) {
			return nil, fmt.Errorf("mpi: %s arguments mismatch across ranks", what)
		}
	}
	rt := args[0].root
	if rt < 0 || rt >= len(args) {
		return nil, fmt.Errorf("mpi: %s root %d out of range", what, rt)
	}
	if len(args[0].small) > 0 && len(args[rt].big) != len(vals)*len(args[0].small) {
		return nil, fmt.Errorf("mpi: %s root buffer is %d bytes, want %d",
			what, len(args[rt].big), len(vals)*len(args[0].small))
	}
	return args, nil
}

// alltoallArgs is each member's contribution to an Alltoall.
type alltoallArgs struct {
	send, recv []byte
	comp       Component
}

// AlltoallHierarchicalLimit: below this block size the distance-aware
// component aggregates inter-node traffic at machine leaders (one network
// message per node pair); above it the direct single-copy schedule wins —
// alltoall volume is irreducible, staging only adds copies and leaders
// become hot spots. Calibrated from the alltoall extension experiment.
const AlltoallHierarchicalLimit = 512

// Alltoall exchanges one block with every member: send and recv are
// Size()·block bytes; recv[a·block:] ends up holding rank a's block for
// the caller.
func (c *Comm) Alltoall(send, recv []byte, comp Component) error {
	_, result, err := c.coordinate(alltoallArgs{send: send, recv: recv, comp: comp},
		func(vals []any) (any, error) {
			n := len(vals)
			args := make([]alltoallArgs, n)
			for i, v := range vals {
				a, ok := v.(alltoallArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: alltoall coordination corrupted")
				}
				args[i] = a
				if a.comp != args[0].comp || len(a.send) != len(args[0].send) || len(a.recv) != len(a.send) {
					return nil, fmt.Errorf("mpi: alltoall arguments mismatch across ranks")
				}
				if len(a.send)%n != 0 {
					return nil, fmt.Errorf("mpi: alltoall buffer of %d bytes is not a multiple of %d ranks", len(a.send), n)
				}
			}
			block := int64(len(args[0].send) / n)
			if block == 0 {
				return c.state.emptyPlan("alltoall", n), nil
			}
			s, err := c.fixedSchedule("alltoall", args[0].comp, 0, block, 0, func() (*sched.Schedule, error) {
				switch args[0].comp {
				case KNEMColl:
					if block < AlltoallHierarchicalLimit {
						return core.CompileAlltoallHierarchical(c.distanceMatrix(), block)
					}
					return core.CompileAlltoallDirect(n, block)
				case Tuned:
					return baseline.CompileAlltoallPairwise(n, block, baseline.SMKnemBTL())
				default:
					return baseline.CompileAlltoallPairwise(n, block, baseline.NemesisSM())
				}
			})
			if err != nil {
				return nil, err
			}
			caller := func(rank int, name string) []byte {
				switch name {
				case "send":
					return args[rank].send
				case "recv":
					return args[rank].recv
				default:
					return nil
				}
			}
			return c.state.newPlan("alltoall", s, caller)
		})
	if err != nil {
		return err
	}
	return c.runPlanVerified(result.(*collPlan), nil, nil)
}
