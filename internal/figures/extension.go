package figures

import (
	"distcoll/internal/baseline"
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/sched"
)

// ExtAllreduce is the §VI future-work experiment the paper proposes but
// does not run: Allreduce on IG, 48 processes, tuned (recursive doubling /
// Rabenseifner ring by rank) vs the distance-aware component (Algorithm-2
// ring reduce-scatter + allgather), contiguous vs cross-socket bindings.
// Bandwidth is the allgather-style aggregate 2·P·(P−1)/P·… — we report
// (P−1)·size/t·2 (reduce-scatter + allgather each move (P−1)/P·size per
// rank), consistent across series.
func ExtAllreduce(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	cont, cross, err := igModels(48)
	if err != nil {
		return nil, err
	}
	const n = 48
	fig := &Figure{ID: "allreduce", Title: "Allreduce on IG, 48 processes: tuned vs distance-aware (extension)", Procs: n}
	type cfg struct {
		label string
		run   imb.Runner
	}
	knemRun := func(m *machine.Model) imb.Runner {
		return func(size int64) (float64, error) {
			ring, err := core.BuildAllgatherRing(view(m), core.RingOptions{})
			if err != nil {
				return 0, err
			}
			s, err := core.CompileAllreduce(ring, size, 8)
			if err != nil {
				return 0, err
			}
			return makespan(m, s)
		}
	}
	tunedRun := func(m *machine.Model) imb.Runner {
		return func(size int64) (float64, error) {
			alg := baseline.TunedAllreduceDecision(n, size)
			s, err := baseline.CompileAllreduce(alg, n, size, 8, baseline.SMKnemBTL())
			if err != nil {
				return 0, err
			}
			return makespan(m, s)
		}
	}
	for _, c := range []cfg{
		{"tuned_contiguous", tunedRun(cont)},
		{"tuned_crosssocket", tunedRun(cross)},
		{"KNEMColl_contiguous", knemRun(cont)},
		{"KNEMColl_crosssocket", knemRun(cross)},
	} {
		s, err := imb.Sweep(c.label, sizes, c.run,
			func(size int64, sec float64) float64 {
				// Two ring passes, each moving (P−1)/P·size per rank.
				return 2 * float64(n-1) * float64(size) / sec / imb.MB
			})
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// ExtAlltoall compares alltoall strategies on the 4-node cluster: the
// rank-based pairwise exchange, the direct single-copy pull, and the
// distance-aware hierarchical aggregation (ranks grouped by machine, ONE
// network transfer per ordered node pair instead of 144 small ones).
// Aggregation wins at small blocks where the per-message network cost
// dominates; direct/pairwise catch up at large blocks where volume rules.
// Bandwidth = P·(P−1)·block/t.
func ExtAlltoall(sizes []int64) (*Figure, error) {
	if sizes == nil {
		// Per-rank block sizes; alltoall buffers are P× larger, so sweep a
		// smaller range than the other figures.
		for s := int64(64); s <= 256<<10; s <<= 1 {
			sizes = append(sizes, s)
		}
	}
	topo := hwtopo.NewIGCluster()
	cross, err := binding.CrossSocket(topo, 48) // scatters ranks across all 4 nodes
	if err != nil {
		return nil, err
	}
	model, err := machine.NewModel(cross, machine.ClusterParams(machine.IGParams()))
	if err != nil {
		return nil, err
	}
	const n = 48
	fig := &Figure{ID: "alltoall", Title: "Alltoall on a 4-node cluster, 48 processes, scattered binding: strategies", Procs: n}
	mk := func(label string, build func(block int64) (*sched.Schedule, error)) error {
		s, err := imb.Sweep(label, sizes,
			func(block int64) (float64, error) {
				sch, err := build(block)
				if err != nil {
					return 0, err
				}
				return makespan(model, sch)
			},
			func(block int64, sec float64) float64 {
				return float64(n) * float64(n-1) * float64(block) / sec / imb.MB
			})
		if err != nil {
			return err
		}
		fig.Series = append(fig.Series, s)
		return nil
	}
	if err := mk("pairwise(tuned)", func(b int64) (*sched.Schedule, error) {
		return baseline.CompileAlltoallPairwise(n, b, baseline.SMKnemBTL())
	}); err != nil {
		return nil, err
	}
	if err := mk("direct", func(b int64) (*sched.Schedule, error) {
		return core.CompileAlltoallDirect(n, b)
	}); err != nil {
		return nil, err
	}
	m := distance.NewMatrix(cross.Topology(), cross.Cores())
	if err := mk("hierarchical", func(b int64) (*sched.Schedule, error) {
		return core.CompileAlltoallHierarchical(m, b)
	}); err != nil {
		return nil, err
	}
	return fig, nil
}
