// Package figures contains one driver per figure of the paper's
// evaluation, shared by the distbench CLI and the repository's Go
// benchmarks. Each driver assembles the exact experiment: machine model,
// process bindings, collective component, IMB sweep — and returns the
// bandwidth series the paper plots.
package figures

import (
	"fmt"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// Figure is a reproduced experiment: a set of bandwidth curves.
type Figure struct {
	ID     string
	Title  string
	Procs  int
	Series []imb.Series
}

// makespan simulates s on m and returns its completion time in seconds.
func makespan(m *machine.Model, s *sched.Schedule) (float64, error) {
	res, err := m.Simulate(s)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// view is the distance matrix of the model's placement.
func view(m *machine.Model) distance.Matrix {
	b := m.Binding()
	return distance.NewMatrix(b.Topology(), b.Cores())
}

// TimeOf simulates, on m's placement, the schedule tune.CompileFor
// compiles for decision d — exactly what the runtime executes for it,
// whether a fixed component names it or the selector picked it. size is
// the full message or the per-rank block, as CompileFor defines it for
// coll; align the reduction element size.
func TimeOf(m *machine.Model, coll tune.Collective, d tune.Decision, root int, size, align int64) (float64, error) {
	s, err := tune.CompileFor(coll, d, view(m), root, size, align)
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// The fixed components as decisions.
var (
	knem  = tune.Decision{Component: tune.ComponentKNEM}
	tuned = tune.Decision{Component: tune.ComponentTuned}
	mpich = tune.Decision{Component: tune.ComponentMPICH}
)

// curve is one plotted series: its label and what it times at each size.
type curve struct {
	label string
	run   imb.Runner
}

// decided times the schedule of one decision at every size.
func decided(m *machine.Model, coll tune.Collective, d tune.Decision, root int, align int64) imb.Runner {
	return func(size int64) (float64, error) { return TimeOf(m, coll, d, root, size, align) }
}

// sweep appends one series per curve over sizes; toMBps converts each
// timing given the figure's process count (imb.BcastBandwidth and
// imb.AllgatherBandwidth have this shape).
func (f *Figure) sweep(sizes []int64, toMBps func(procs int, size int64, seconds float64) float64, curves ...curve) error {
	for _, c := range curves {
		s, err := imb.Sweep(c.label, sizes, c.run,
			func(size int64, sec float64) float64 { return toMBps(f.Procs, size, sec) })
		if err != nil {
			return err
		}
		f.Series = append(f.Series, s)
	}
	return nil
}

// Fig2 reproduces Figure 2: MPICH2-1.4 broadcast bandwidth on Zoot with 16
// processes under four bindings (rr, user:0..15, cpu, cache). Cache reuse
// is modeled (the motivation experiment ran IMB defaults); rr and user
// scatter neighbor ranks across sockets and lose up to ~35 % at large
// sizes.
func Fig2(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	zoot := hwtopo.NewZoot()
	params := machine.ZootParams()
	params.CacheModel = true
	const n, root = 16, 0

	userIDs := make([]int, n)
	for i := range userIDs {
		userIDs[i] = i
	}
	user, err := binding.User(zoot, userIDs)
	if err != nil {
		return nil, err
	}
	bindings := []*binding.Binding{}
	if rr, err := binding.RoundRobin(zoot, n); err == nil {
		bindings = append(bindings, rr)
	} else {
		return nil, err
	}
	bindings = append(bindings, user)
	cpu, err := binding.Contiguous(zoot, n)
	if err != nil {
		return nil, err
	}
	cpu2 := *cpu
	cpu2.Name = "cache"
	bindings = append(bindings, cpu, &cpu2)

	var curves []curve
	for _, b := range bindings {
		label := map[string]string{"rr": "RR", "user": "user:0..15", "contiguous": "cpu", "cache": "cache"}[b.Name]
		if label == "" {
			label = b.Name
		}
		m, err := machine.NewModel(b, params)
		if err != nil {
			return nil, err
		}
		curves = append(curves, curve{label, decided(m, tune.CollBcast, mpich, root, 0)})
	}
	fig := &Figure{ID: "2", Title: "MPICH2-1.4 Broadcast on Zoot, 16 processes, 4 bindings", Procs: n}
	if err := fig.sweep(sizes, imb.BcastBandwidth, curves...); err != nil {
		return nil, err
	}
	return fig, nil
}

// models builds the machine model of each binding, once per figure: every
// point of a sweep runs on the same immutable model.
func models(params machine.Params, bindings ...*binding.Binding) ([]*machine.Model, error) {
	ms := make([]*machine.Model, len(bindings))
	for i, b := range bindings {
		var err error
		if ms[i], err = machine.NewModel(b, params); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// igModels returns IG under the contiguous and cross-socket bindings of
// §V-A.
func igModels(n int) (cont, cross *machine.Model, err error) {
	ig := hwtopo.NewIG()
	cb, err := binding.Contiguous(ig, n)
	if err != nil {
		return nil, nil, err
	}
	xb, err := binding.CrossSocket(ig, n)
	if err != nil {
		return nil, nil, err
	}
	ms, err := models(machine.IGParams(), cb, xb)
	if err != nil {
		return nil, nil, err
	}
	return ms[0], ms[1], nil
}

// igSweep is the experiment Figs. 6 and 7 and their adaptive extensions
// share: coll (bcast or allgather) on IG with 48 processes, Open MPI tuned
// vs the distance-aware KNEM collective — and, when adaptive, the Adaptive
// component, timed on whatever the shipped tables select per size — each
// under the contiguous and cross-socket bindings, off-cache.
func igSweep(id, title string, coll tune.Collective, adaptive bool, sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	cont, cross, err := igModels(48)
	if err != nil {
		return nil, err
	}
	const n, root = 48, 0
	curves := []curve{
		{"OpenMPI_contiguous", decided(cont, coll, tuned, root, 0)},
		{"OpenMPI_crosssocket", decided(cross, coll, tuned, root, 0)},
		{"KNEMColl_contiguous", decided(cont, coll, knem, root, 0)},
		{"KNEMColl_crosssocket", decided(cross, coll, knem, root, 0)},
	}
	if adaptive {
		sel := tune.DefaultSelector()
		selected := func(m *machine.Model) imb.Runner {
			v := view(m)
			return func(size int64) (float64, error) {
				return TimeOf(m, coll, sel.Select(coll, v, size), root, size, 0)
			}
		}
		curves = append(curves, curve{"Adaptive_contiguous", selected(cont)}, curve{"Adaptive_crosssocket", selected(cross)})
	}
	toMBps := imb.BcastBandwidth
	if coll == tune.CollAllgather {
		toMBps = imb.AllgatherBandwidth
	}
	fig := &Figure{ID: id, Title: title, Procs: n}
	if err := fig.sweep(sizes, toMBps, curves...); err != nil {
		return nil, err
	}
	return fig, nil
}

// Fig6 reproduces Figure 6: broadcast bandwidth on IG with 48 processes —
// Open MPI tuned vs the distance-aware KNEM collective, each under the
// contiguous and cross-socket bindings, off-cache.
func Fig6(sizes []int64) (*Figure, error) {
	return igSweep("6", "Broadcast on IG, 48 processes: tuned vs KNEM collective", tune.CollBcast, false, sizes)
}

// Fig7 reproduces Figure 7: allgather bandwidth on IG with 48 processes —
// tuned vs the distance-aware KNEM collective under both bindings.
func Fig7(sizes []int64) (*Figure, error) {
	return igSweep("7", "Allgather on IG, 48 processes: tuned vs KNEM collective", tune.CollAllgather, false, sizes)
}

// Fig8 reproduces Figure 8: KNEM broadcast on Zoot, 16 processes, two
// topologies — the two-level "4 sets" hierarchy (splitting at distance 3)
// vs the linear topology (distance structure ignored) — under both
// bindings. On Zoot's single memory controller, linear wins for large
// messages.
func Fig8(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.LargeSizes()
	}
	zoot := hwtopo.NewZoot()
	params := machine.ZootParams()
	const n, root = 16, 0
	cont, err := binding.Contiguous(zoot, n)
	if err != nil {
		return nil, err
	}
	cross, err := binding.CrossSocket(zoot, n)
	if err != nil {
		return nil, err
	}
	ms, err := models(params, cont, cross)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "8", Title: "KNEM Broadcast on Zoot, 16 processes: 4-set hierarchy vs linear", Procs: n}
	levels := func(m *machine.Model, l core.Levels) imb.Runner {
		return func(size int64) (float64, error) { return LevelsBcastTime(m, root, size, l) }
	}
	err = fig.sweep(sizes, imb.BcastBandwidth,
		curve{"4sets_contiguous", levels(ms[0], core.CollapseBelow(2))},
		curve{"4sets_crosssocket", levels(ms[1], core.CollapseBelow(2))},
		curve{"linear_contiguous", levels(ms[0], core.FlatLevels)},
		curve{"linear_crosssocket", levels(ms[1], core.FlatLevels)})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// ByID returns the driver output for a figure id ("2", "6", "7", "8",
// "chunk", "ordering", "allreduce", "cluster", "alltoall",
// "adaptive-bcast", "adaptive-allgather").
func ByID(id string, sizes []int64) (*Figure, error) {
	switch id {
	case "2":
		return Fig2(sizes)
	case "6":
		return Fig6(sizes)
	case "7":
		return Fig7(sizes)
	case "8":
		return Fig8(sizes)
	case "chunk":
		return AblationChunk(sizes)
	case "ordering":
		return AblationRingOrdering(sizes)
	case "allreduce":
		return ExtAllreduce(sizes)
	case "cluster":
		return ExtCluster(sizes)
	case "alltoall":
		return ExtAlltoall(sizes)
	case "adaptive-bcast":
		return AdaptiveBcast(sizes)
	case "adaptive-allgather":
		return AdaptiveAllgather(sizes)
	default:
		return nil, fmt.Errorf("figures: unknown figure %q (known: 2, 6, 7, 8, chunk, ordering, allreduce, cluster, alltoall, adaptive-bcast, adaptive-allgather)", id)
	}
}

// All returns every paper figure in order.
func All(sizes []int64) ([]*Figure, error) {
	var out []*Figure
	for _, id := range []string{"2", "6", "7", "8"} {
		f, err := ByID(id, sizes)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Explain simulates one configuration and returns the compiled schedule
// with its simulated result, for trace diagnostics (distbench -explain).
// machineName ∈ {zoot, ig, igcluster}; component ∈ {knemcoll, tuned,
// mpich2}; op is any collective tune.CompileFor knows.
func Explain(machineName, bindName, component, op string, size int64) (*sched.Schedule, *des.Result, *binding.Binding, error) {
	topo, err := hwtopo.ByName(machineName)
	if err != nil {
		return nil, nil, nil, err
	}
	params, err := machine.ParamsFor(machineName)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := binding.ByName(topo, bindName, topo.NumCores(), 1)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := machine.NewModel(b, params)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := tune.CompileFor(tune.Collective(op), tune.Decision{Component: component}, view(m), 0, size, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("figures: explain %s/%s: %w", op, component, err)
	}
	res, err := m.Simulate(s)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, res, b, nil
}
