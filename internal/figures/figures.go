// Package figures contains one driver per figure of the paper's
// evaluation, shared by the distbench CLI and the repository's Go
// benchmarks. Each driver assembles the exact experiment: machine model,
// process bindings, collective component, IMB sweep — and returns the
// bandwidth series the paper plots.
package figures

import (
	"fmt"

	"distcoll/internal/baseline"
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/sched"
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

// KNEMBcastTime simulates one distance-aware KNEM broadcast.
func KNEMBcastTime(m *machine.Model, root int, size int64, levels core.Levels) (float64, error) {
	tree, err := core.BuildBroadcastTree(view(m), root, core.TreeOptions{Levels: levels})
	if err != nil {
		return 0, err
	}
	s, err := core.CompileBroadcast(tree, size, 0)
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// TunedBcastTime simulates Open MPI tuned's broadcast over the SM/KNEM BTL.
func TunedBcastTime(m *machine.Model, root int, size int64) (float64, error) {
	n := m.Binding().NumRanks()
	alg, seg := baseline.TunedBcastDecision(n, size)
	s, err := baseline.CompileBcast(alg, n, root, size, seg, baseline.SMKnemBTL())
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// MPICHBcastTime simulates MPICH2-1.4's broadcast over nemesis shared
// memory (double copy).
func MPICHBcastTime(m *machine.Model, root int, size int64) (float64, error) {
	n := m.Binding().NumRanks()
	alg, seg := baseline.MPICHBcastDecision(n, size)
	s, err := baseline.CompileBcast(alg, n, root, size, seg, baseline.NemesisSM())
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// KNEMAllgatherTime simulates the distance-aware KNEM allgather.
func KNEMAllgatherTime(m *machine.Model, block int64) (float64, error) {
	ring, err := core.BuildAllgatherRing(view(m), core.RingOptions{})
	if err != nil {
		return 0, err
	}
	s, err := core.CompileAllgather(ring, block)
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// TunedAllgatherTime simulates Open MPI tuned's allgather.
func TunedAllgatherTime(m *machine.Model, block int64) (float64, error) {
	n := m.Binding().NumRanks()
	alg := baseline.TunedAllgatherDecision(n, block)
	s, err := baseline.CompileAllgather(alg, n, block, baseline.SMKnemBTL())
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
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

	fig := &Figure{ID: "2", Title: "MPICH2-1.4 Broadcast on Zoot, 16 processes, 4 bindings", Procs: n}
	for _, b := range bindings {
		label := map[string]string{"rr": "RR", "user": "user:0..15", "contiguous": "cpu", "cache": "cache"}[b.Name]
		if label == "" {
			label = b.Name
		}
		m, err := machine.NewModel(b, params)
		if err != nil {
			return nil, err
		}
		s, err := imb.Sweep(label, sizes,
			func(size int64) (float64, error) { return MPICHBcastTime(m, root, size) },
			func(size int64, sec float64) float64 { return imb.BcastBandwidth(n, size, sec) })
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
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

// Fig6 reproduces Figure 6: broadcast bandwidth on IG with 48 processes —
// Open MPI tuned vs the distance-aware KNEM collective, each under the
// contiguous and cross-socket bindings, off-cache.
func Fig6(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	cont, cross, err := igModels(48)
	if err != nil {
		return nil, err
	}
	const n, root = 48, 0
	fig := &Figure{ID: "6", Title: "Broadcast on IG, 48 processes: tuned vs KNEM collective", Procs: n}
	type cfg struct {
		label string
		run   imb.Runner
	}
	for _, c := range []cfg{
		{"OpenMPI_contiguous", func(size int64) (float64, error) { return TunedBcastTime(cont, root, size) }},
		{"OpenMPI_crosssocket", func(size int64) (float64, error) { return TunedBcastTime(cross, root, size) }},
		{"KNEMColl_contiguous", func(size int64) (float64, error) { return KNEMBcastTime(cont, root, size, nil) }},
		{"KNEMColl_crosssocket", func(size int64) (float64, error) { return KNEMBcastTime(cross, root, size, nil) }},
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

// Fig7 reproduces Figure 7: allgather bandwidth on IG with 48 processes —
// tuned vs the distance-aware KNEM collective under both bindings.
func Fig7(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	cont, cross, err := igModels(48)
	if err != nil {
		return nil, err
	}
	const n = 48
	fig := &Figure{ID: "7", Title: "Allgather on IG, 48 processes: tuned vs KNEM collective", Procs: n}
	type cfg struct {
		label string
		run   imb.Runner
	}
	for _, c := range []cfg{
		{"OpenMPI_contiguous", func(size int64) (float64, error) { return TunedAllgatherTime(cont, size) }},
		{"OpenMPI_crosssocket", func(size int64) (float64, error) { return TunedAllgatherTime(cross, size) }},
		{"KNEMColl_contiguous", func(size int64) (float64, error) { return KNEMAllgatherTime(cont, size) }},
		{"KNEMColl_crosssocket", func(size int64) (float64, error) { return KNEMAllgatherTime(cross, size) }},
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
	type cfg struct {
		label  string
		m      *machine.Model
		levels core.Levels
	}
	for _, c := range []cfg{
		{"4sets_contiguous", ms[0], core.CollapseBelow(2)},
		{"4sets_crosssocket", ms[1], core.CollapseBelow(2)},
		{"linear_contiguous", ms[0], core.FlatLevels},
		{"linear_crosssocket", ms[1], core.FlatLevels},
	} {
		s, err := imb.Sweep(c.label, sizes,
			func(size int64) (float64, error) { return KNEMBcastTime(c.m, root, size, c.levels) },
			func(size int64, sec float64) float64 { return imb.BcastBandwidth(n, size, sec) })
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
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

// Explain simulates one broadcast or allgather configuration and returns
// the compiled schedule with its simulated result, for trace diagnostics
// (distbench -explain). machineName ∈ {zoot, ig, igcluster}; component ∈
// {knemcoll, tuned, mpich2}; op ∈ {bcast, allgather}.
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
	n := b.NumRanks()
	var s *sched.Schedule
	switch {
	case op == "bcast" && component == "knemcoll":
		m := distance.NewMatrix(topo, b.Cores())
		tree, err := core.BuildBroadcastTree(m, 0, core.TreeOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		s, err = core.CompileBroadcast(tree, size, 0)
		if err != nil {
			return nil, nil, nil, err
		}
	case op == "bcast" && component == "tuned":
		alg, seg := baseline.TunedBcastDecision(n, size)
		s, err = baseline.CompileBcast(alg, n, 0, size, seg, baseline.SMKnemBTL())
		if err != nil {
			return nil, nil, nil, err
		}
	case op == "bcast" && component == "mpich2":
		alg, seg := baseline.MPICHBcastDecision(n, size)
		s, err = baseline.CompileBcast(alg, n, 0, size, seg, baseline.NemesisSM())
		if err != nil {
			return nil, nil, nil, err
		}
	case op == "allgather" && component == "knemcoll":
		m := distance.NewMatrix(topo, b.Cores())
		ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
		if err != nil {
			return nil, nil, nil, err
		}
		s, err = core.CompileAllgather(ring, size)
		if err != nil {
			return nil, nil, nil, err
		}
	case op == "allgather" && component == "tuned":
		alg := baseline.TunedAllgatherDecision(n, size)
		s, err = baseline.CompileAllgather(alg, n, size, baseline.SMKnemBTL())
		if err != nil {
			return nil, nil, nil, err
		}
	default:
		return nil, nil, nil, fmt.Errorf("figures: unknown explain config %s/%s", op, component)
	}
	res, err := machine.Simulate(b, params, s)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, res, b, nil
}
