package figures

import (
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/tune"
)

// This file is the adaptive-selection experiment (DESIGN.md §8): the
// paper's Fig. 6/7 sweeps with a third curve — the Adaptive component,
// which consults the calibrated decision tables per size. The claim the
// experiment demonstrates is the paper's headline: an adaptive runtime
// needs no manual component choice because its curve tracks the upper
// envelope of tuned and the distance-aware collective at every point.

// AdaptiveBcastTime simulates the broadcast the selector picks for this
// (binding, size) — the schedule the mpi Adaptive component would run.
func AdaptiveBcastTime(sel *tune.Selector, m *machine.Model, root int, size int64) (float64, error) {
	v := view(m)
	s, err := tune.CompileFor(tune.CollBcast, sel.Select(tune.CollBcast, v, size), v, root, size, 0)
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// AdaptiveAllgatherTime simulates the allgather the selector picks.
func AdaptiveAllgatherTime(sel *tune.Selector, m *machine.Model, block int64) (float64, error) {
	v := view(m)
	s, err := tune.CompileFor(tune.CollAllgather, sel.Select(tune.CollAllgather, v, block), v, 0, block, 0)
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// AdaptiveBcast extends Fig. 6 with the Adaptive component: broadcast on
// IG, 48 processes, tuned vs distance-aware KNEM vs adaptive, under the
// contiguous and cross-socket bindings.
func AdaptiveBcast(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	cont, cross, err := igModels(48)
	if err != nil {
		return nil, err
	}
	sel := tune.DefaultSelector()
	const n, root = 48, 0
	fig := &Figure{ID: "adaptive-bcast", Title: "Broadcast on IG, 48 processes: tuned vs KNEM vs adaptive", Procs: n}
	type cfg struct {
		label string
		run   imb.Runner
	}
	for _, c := range []cfg{
		{"OpenMPI_contiguous", func(size int64) (float64, error) { return TunedBcastTime(cont, root, size) }},
		{"OpenMPI_crosssocket", func(size int64) (float64, error) { return TunedBcastTime(cross, root, size) }},
		{"KNEMColl_contiguous", func(size int64) (float64, error) { return KNEMBcastTime(cont, root, size, nil) }},
		{"KNEMColl_crosssocket", func(size int64) (float64, error) { return KNEMBcastTime(cross, root, size, nil) }},
		{"Adaptive_contiguous", func(size int64) (float64, error) { return AdaptiveBcastTime(sel, cont, root, size) }},
		{"Adaptive_crosssocket", func(size int64) (float64, error) { return AdaptiveBcastTime(sel, cross, root, size) }},
	} {
		s, err := imb.Sweep(c.label, sizes, c.run,
			func(size int64, sec float64) float64 { return imb.BcastBandwidth(n, size, sec) })
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AdaptiveAllgather extends Fig. 7 with the Adaptive component.
func AdaptiveAllgather(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	cont, cross, err := igModels(48)
	if err != nil {
		return nil, err
	}
	sel := tune.DefaultSelector()
	const n = 48
	fig := &Figure{ID: "adaptive-allgather", Title: "Allgather on IG, 48 processes: tuned vs KNEM vs adaptive", Procs: n}
	type cfg struct {
		label string
		run   imb.Runner
	}
	for _, c := range []cfg{
		{"OpenMPI_contiguous", func(size int64) (float64, error) { return TunedAllgatherTime(cont, size) }},
		{"OpenMPI_crosssocket", func(size int64) (float64, error) { return TunedAllgatherTime(cross, size) }},
		{"KNEMColl_contiguous", func(size int64) (float64, error) { return KNEMAllgatherTime(cont, size) }},
		{"KNEMColl_crosssocket", func(size int64) (float64, error) { return KNEMAllgatherTime(cross, size) }},
		{"Adaptive_contiguous", func(size int64) (float64, error) { return AdaptiveAllgatherTime(sel, cont, size) }},
		{"Adaptive_crosssocket", func(size int64) (float64, error) { return AdaptiveAllgatherTime(sel, cross, size) }},
	} {
		s, err := imb.Sweep(c.label, sizes, c.run,
			func(size int64, sec float64) float64 { return imb.AllgatherBandwidth(n, size, sec) })
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
