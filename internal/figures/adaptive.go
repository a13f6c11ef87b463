package figures

import "distcoll/internal/tune"

// This file is the adaptive-selection experiment (DESIGN.md §8): the
// paper's Fig. 6/7 sweeps with a third curve — the Adaptive component,
// which consults the calibrated decision tables per size. The claim the
// experiment demonstrates is the paper's headline: an adaptive runtime
// needs no manual component choice because its curve tracks the upper
// envelope of tuned and the distance-aware collective at every point.

// AdaptiveBcast extends Fig. 6 with the Adaptive component: broadcast on
// IG, 48 processes, tuned vs distance-aware KNEM vs adaptive, under the
// contiguous and cross-socket bindings.
func AdaptiveBcast(sizes []int64) (*Figure, error) {
	return igSweep("adaptive-bcast", "Broadcast on IG, 48 processes: tuned vs KNEM vs adaptive", tune.CollBcast, true, sizes)
}

// AdaptiveAllgather extends Fig. 7 with the Adaptive component.
func AdaptiveAllgather(sizes []int64) (*Figure, error) {
	return igSweep("adaptive-allgather", "Allgather on IG, 48 processes: tuned vs KNEM vs adaptive", tune.CollAllgather, true, sizes)
}
