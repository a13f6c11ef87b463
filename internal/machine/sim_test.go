package machine

import (
	"math"
	"testing"

	"distcoll/internal/baseline"
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// simCase is one (placement, schedule) pair the simulator tests run.
type simCase struct {
	name string
	bind *binding.Binding
	s    *sched.Schedule
}

// simCases compiles, under the cross-socket binding: the IG-48 broadcast
// unchunked (47 ops) and in four chunks (188), the Zoot-16 and IG-48
// distance-aware allgathers (256 and 2,304 ops), and MPICH's double-copy
// (ModeShm) broadcast on Zoot — the only one whose ops touch the cache
// model.
func simCases(t *testing.T) []simCase {
	t.Helper()
	must := func(s *sched.Schedule, err error) *sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ig, zoot := hwtopo.NewIG(), hwtopo.NewZoot()
	igB, zootB := mustBinding(t, ig, "crosssocket", 48), mustBinding(t, zoot, "crosssocket", 16)
	igM, zootM := distance.NewMatrix(ig, igB.Cores()), distance.NewMatrix(zoot, zootB.Cores())
	tree, err := core.BuildBroadcastTree(igM, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	igRing, err := core.BuildAllgatherRing(igM, core.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zootRing, err := core.BuildAllgatherRing(zootM, core.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alg, seg := baseline.MPICHBcastDecision(16, 256<<10)
	cases := []simCase{
		{"ig48/bcast/47", igB, must(core.CompileBroadcast(tree, 64<<10, 64<<10))},
		{"ig48/bcast/188", igB, must(core.CompileBroadcast(tree, 64<<10, 16<<10))},
		{"zoot16/allgather/256", zootB, must(core.CompileAllgather(zootRing, 16<<10))},
		{"ig48/allgather/2304", igB, must(core.CompileAllgather(igRing, 64<<10))},
		{"zoot16/mpich-shm-bcast", zootB, must(baseline.CompileBcast(alg, 16, 0, 256<<10, seg, baseline.NemesisSM()))},
	}
	for i, want := range []int{47, 188, 256, 2304} {
		if got := len(cases[i].s.Ops); got != want {
			t.Fatalf("%s has %d ops", cases[i].name, got)
		}
	}
	return cases
}

func paramsOf(t *testing.T, b *binding.Binding) Params {
	t.Helper()
	p, err := ParamsFor(b.Topology().Name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSimulateBitDeterministic: the simulator's loops run in ascending op
// and resource id, so repeated runs agree to the last bit — on every op's
// start and finish, not only on the makespan.
func TestSimulateBitDeterministic(t *testing.T) {
	for _, c := range simCases(t)[3:] {
		model, err := NewModel(c.bind, paramsOf(t, c.bind))
		if err != nil {
			t.Fatal(err)
		}
		var first *des.Result
		for run := 0; run < 50; run++ {
			res, err := model.Simulate(c.s)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				continue
			}
			if math.Float64bits(res.Makespan) != math.Float64bits(first.Makespan) {
				t.Fatalf("%s run %d: makespan %.17g, first run %.17g", c.name, run, res.Makespan, first.Makespan)
			}
			for i := range res.OpStart {
				if math.Float64bits(res.OpStart[i]) != math.Float64bits(first.OpStart[i]) ||
					math.Float64bits(res.OpFinish[i]) != math.Float64bits(first.OpFinish[i]) {
					t.Fatalf("%s run %d: op %d ran [%.17g, %.17g], first run [%.17g, %.17g]", c.name, run, i,
						res.OpStart[i], res.OpFinish[i], first.OpStart[i], first.OpFinish[i])
				}
			}
		}
	}
}

// TestSimulateAllocBudget: one simulation on a prebuilt model allocates its
// flat state once, plus heap doublings and arena chunks — nothing per
// event, per flow or per reallocation. Building the model formats no
// resource names.
func TestSimulateAllocBudget(t *testing.T) {
	for _, c := range simCases(t) {
		for _, cache := range []bool{false, true} {
			p := paramsOf(t, c.bind)
			p.CacheModel = cache
			model, err := NewModel(c.bind, p)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(5, func() {
				if _, err := model.Simulate(c.s); err != nil {
					t.Fatal(err)
				}
			})
			if budget := 64 + 0.1*float64(len(c.s.Ops)); got > budget {
				t.Errorf("%s cache=%v: %.0f allocations per simulation of %d ops, budget %.0f", c.name, cache, got, len(c.s.Ops), budget)
			}
			t.Logf("%s cache=%v: %.0f allocations, %d ops", c.name, cache, got, len(c.s.Ops))
		}
	}
	ig := mustBinding(t, hwtopo.NewIG(), "crosssocket", 48)
	if got := testing.AllocsPerRun(5, func() {
		if _, err := NewModel(ig, IGParams()); err != nil {
			t.Fatal(err)
		}
	}); got > 40 {
		t.Errorf("NewModel(IG-48): %.0f allocations, budget 40", got)
	} else {
		t.Logf("NewModel(IG-48): %.0f allocations", got)
	}
}
