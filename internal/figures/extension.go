package figures

import (
	"distcoll/internal/imb"
	"distcoll/internal/tune"
)

// ExtAllreduce is the §VI future-work experiment the paper proposes but
// does not run: Allreduce on IG, 48 processes, tuned (recursive doubling /
// Rabenseifner ring by rank) vs the distance-aware component (Algorithm-2
// ring reduce-scatter + allgather) and its tree variant (reduce up
// Algorithm 1's tree, pipelined broadcast back down: what Adaptive runs
// below the ring's crossover), contiguous vs cross-socket bindings.
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
	const n, align = 48, 8
	tree := tune.Decision{Component: tune.ComponentKNEM, Tree: true}
	fig := &Figure{ID: "allreduce", Title: "Allreduce on IG, 48 processes: tuned vs distance-aware (extension)", Procs: n}
	err = fig.sweep(sizes,
		func(p int, size int64, sec float64) float64 {
			// Two ring passes, each moving (P−1)/P·size per rank.
			return 2 * float64(p-1) * float64(size) / sec / imb.MB
		},
		curve{"tuned_contiguous", decided(cont, tune.CollAllreduce, tuned, 0, align)},
		curve{"tuned_crosssocket", decided(cross, tune.CollAllreduce, tuned, 0, align)},
		curve{"KNEMColl_contiguous", decided(cont, tune.CollAllreduce, knem, 0, align)},
		curve{"KNEMColl_crosssocket", decided(cross, tune.CollAllreduce, knem, 0, align)},
		curve{"KNEMCollTree_contiguous", decided(cont, tune.CollAllreduce, tree, 0, align)},
		curve{"KNEMCollTree_crosssocket", decided(cross, tune.CollAllreduce, tree, 0, align)})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
