package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distcoll/internal/sched"
)

// testModel is a configurable cost model for engine tests.
type testModel struct {
	plat     *Platform
	latency  float64
	notify   float64
	usesFn   func(op *sched.Op) []Use
	observed []sched.OpID
}

func (m *testModel) Platform() *Platform                { return m.plat }
func (m *testModel) StartLatency(op *sched.Op) float64  { return m.latency }
func (m *testModel) NotifyLatency(from, to int) float64 { return m.notify }
func (m *testModel) Uses(op *sched.Op) []Use            { return m.usesFn(op) }
func (m *testModel) Observe(op *sched.Op)               { m.observed = append(m.observed, op.ID) }

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func singleOpSchedule(bytes int64) *sched.Schedule {
	s := sched.New(2)
	a := s.AddBuffer(0, "a", bytes)
	b := s.AddBuffer(1, "b", bytes)
	s.AddOp(sched.Op{Rank: 1, Src: a, Dst: b, Bytes: bytes})
	return s
}

func TestSingleFlowTime(t *testing.T) {
	plat := NewPlatform()
	r := plat.AddResource("wire", 1e9)
	m := &testModel{plat: plat, latency: 1e-6,
		usesFn: func(op *sched.Op) []Use { return []Use{{Resource: r, Demand: 1}} }}
	s := singleOpSchedule(1 << 20)
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-6 + float64(1<<20)/1e9
	near(t, res.Makespan, want, 1e-9, "makespan")
	if len(m.observed) != 1 {
		t.Errorf("observed %d ops", len(m.observed))
	}
	if res.BusiestResource != "wire" {
		t.Errorf("busiest = %q", res.BusiestResource)
	}
	near(t, res.BusiestUtilization, float64(1<<20)/1e9/want, 1e-3, "utilization")
}

func TestTwoFlowsShareFairly(t *testing.T) {
	plat := NewPlatform()
	r := plat.AddResource("wire", 1e9)
	m := &testModel{plat: plat,
		usesFn: func(op *sched.Op) []Use { return []Use{{Resource: r, Demand: 1}} }}
	s := sched.New(2)
	a := s.AddBuffer(0, "a", 1<<20)
	b := s.AddBuffer(1, "b", 1<<20)
	s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 1 << 20})
	s.AddOp(sched.Op{Rank: 1, Src: b, Dst: b, Bytes: 1 << 20})
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	// Both share 1 GB/s → each at 0.5 GB/s → both finish at 2·(1MB/1GB/s).
	near(t, res.Makespan, 2*float64(1<<20)/1e9, 1e-9, "makespan")
	near(t, res.OpFinish[0], res.OpFinish[1], 1e-12, "simultaneous finish")
}

func TestDemandWeighting(t *testing.T) {
	// A demand-2 flow (read+write on one controller) runs at half the
	// resource's byte rate.
	plat := NewPlatform()
	r := plat.AddResource("mc", 2e9)
	m := &testModel{plat: plat,
		usesFn: func(op *sched.Op) []Use { return []Use{{Resource: r, Demand: 2}} }}
	res, err := Simulate(singleOpSchedule(2<<20), m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, res.Makespan, float64(2<<20)*2/2e9, 1e-9, "makespan")
}

func TestMaxMinBottleneck(t *testing.T) {
	// Flow A uses fat+thin, flow B uses fat only. Thin (0.5 GB/s) caps A;
	// B then takes the fat link's leftover: 1.5 GB/s.
	plat := NewPlatform()
	fat := plat.AddResource("fat", 2e9)
	thin := plat.AddResource("thin", 0.5e9)
	m := &testModel{plat: plat,
		usesFn: func(op *sched.Op) []Use {
			if op.ID == 0 {
				return []Use{{Resource: fat, Demand: 1}, {Resource: thin, Demand: 1}}
			}
			return []Use{{Resource: fat, Demand: 1}}
		}}
	s := sched.New(2)
	a := s.AddBuffer(0, "a", 1<<30)
	b := s.AddBuffer(1, "b", 1<<30)
	s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 1 << 30}) // A
	s.AddOp(sched.Op{Rank: 1, Src: b, Dst: b, Bytes: 1 << 30}) // B
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	gb := float64(1 << 30)
	near(t, res.OpFinish[1], gb/1.5e9, 2e-3, "B finish")
	// After B finishes, A continues at 0.5 GB/s throughout (thin-capped).
	near(t, res.OpFinish[0], gb/0.5e9, 2e-3, "A finish")
}

func TestStaggeredArrivalPiecewiseRates(t *testing.T) {
	// Op 1 starts only after op 0 (same rank, no notify). Sharing never
	// overlaps → total = 2 sequential transfers.
	plat := NewPlatform()
	r := plat.AddResource("wire", 1e9)
	m := &testModel{plat: plat,
		usesFn: func(op *sched.Op) []Use { return []Use{{Resource: r, Demand: 1}} }}
	s := sched.New(1)
	a := s.AddBuffer(0, "a", 1<<20)
	op0 := s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 1 << 20})
	s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 1 << 20, Deps: []sched.OpID{op0}})
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, res.Makespan, 2*float64(1<<20)/1e9, 1e-9, "makespan")
}

func TestNotifyLatencyOnlyAcrossRanks(t *testing.T) {
	plat := NewPlatform()
	r := plat.AddResource("wire", 1e9)
	m := &testModel{plat: plat, notify: 5e-6,
		usesFn: func(op *sched.Op) []Use { return []Use{{Resource: r, Demand: 1}} }}
	// Chain: op0 (rank 0) → op1 (rank 1, +notify) → op2 (rank 1, no notify).
	s := sched.New(2)
	a := s.AddBuffer(0, "a", 1000)
	b := s.AddBuffer(1, "b", 1000)
	op0 := s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 1000})
	op1 := s.AddOp(sched.Op{Rank: 1, Src: a, Dst: b, Bytes: 1000, Deps: []sched.OpID{op0}})
	s.AddOp(sched.Op{Rank: 1, Src: b, Dst: b, Bytes: 1000, Deps: []sched.OpID{op1}})
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	per := 1000 / 1e9
	near(t, res.OpFinish[0], per, 1e-12, "op0")
	near(t, res.OpFinish[1], per+5e-6+per, 1e-12, "op1")
	near(t, res.OpFinish[2], per+5e-6+2*per, 1e-12, "op2 (no extra notify)")
}

func TestZeroByteOpCostsOnlyLatency(t *testing.T) {
	plat := NewPlatform()
	plat.AddResource("wire", 1e9)
	m := &testModel{plat: plat, latency: 3e-6,
		usesFn: func(op *sched.Op) []Use { return nil }}
	s := sched.New(1)
	a := s.AddBuffer(0, "a", 16)
	s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 0})
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, res.Makespan, 3e-6, 1e-12, "makespan")
}

func TestEmptySchedule(t *testing.T) {
	plat := NewPlatform()
	m := &testModel{plat: plat, usesFn: func(op *sched.Op) []Use { return nil }}
	res, err := Simulate(sched.New(1), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Errorf("makespan = %g", res.Makespan)
	}
}

func TestSimulateRejectsInvalidSchedule(t *testing.T) {
	plat := NewPlatform()
	m := &testModel{plat: plat, usesFn: func(op *sched.Op) []Use { return nil }}
	s := sched.New(1)
	a := s.AddBuffer(0, "a", 8)
	s.AddOp(sched.Op{Rank: 0, Src: a, Dst: a, Bytes: 99})
	if _, err := Simulate(s, m); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestAddResourceRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-capacity resource")
		}
	}()
	NewPlatform().AddResource("bad", 0)
}

func TestManyFlowsConvergeAndConserve(t *testing.T) {
	// 40 parallel flows over one resource: aggregate throughput equals
	// capacity, makespan = total bytes / capacity.
	plat := NewPlatform()
	r := plat.AddResource("mc", 8e9)
	m := &testModel{plat: plat,
		usesFn: func(op *sched.Op) []Use { return []Use{{Resource: r, Demand: 1}} }}
	s := sched.New(40)
	var total int64
	for i := 0; i < 40; i++ {
		bytes := int64((i + 1) * 4096)
		total += bytes
		b := s.AddBuffer(i, "b", bytes)
		s.AddOp(sched.Op{Rank: i, Src: b, Dst: b, Bytes: bytes})
	}
	res, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	near(t, res.Makespan, float64(total)/8e9, 1e-6, "makespan")
}

// TestRandomFlowConservation: under random DAGs of flows over shared
// resources, the simulator must satisfy two invariants: every op finishes
// no earlier than its work could possibly complete (capacity bound), and
// the makespan is at least total-demand / capacity for every resource
// (conservation — no resource moves more bytes than capacity·time).
func TestRandomFlowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		plat := NewPlatform()
		nres := 1 + rng.Intn(4)
		caps := make([]float64, nres)
		ids := make([]ResourceID, nres)
		for i := range ids {
			caps[i] = 1e9 * float64(1+rng.Intn(8))
			ids[i] = plat.AddResource(fmt.Sprintf("r%d", i), caps[i])
		}
		nops := 1 + rng.Intn(30)
		s := sched.New(4)
		buf := s.AddBuffer(0, "b", 1<<30)
		uses := make([][]Use, nops)
		demand := make([]float64, nres)
		for i := 0; i < nops; i++ {
			var deps []sched.OpID
			if i > 0 && rng.Intn(2) == 0 {
				deps = append(deps, sched.OpID(rng.Intn(i)))
			}
			bytes := int64(1+rng.Intn(1<<20)) + 1
			nuse := 1 + rng.Intn(nres)
			seen := map[int]bool{}
			for u := 0; u < nuse; u++ {
				r := rng.Intn(nres)
				if seen[r] {
					continue
				}
				seen[r] = true
				d := float64(1 + rng.Intn(3))
				uses[i] = append(uses[i], Use{Resource: ids[r], Demand: d})
				demand[r] += d * float64(bytes)
			}
			s.AddOp(sched.Op{Rank: rng.Intn(4), Src: buf, Dst: buf, Bytes: bytes, Deps: deps})
		}
		m := &testModel{plat: plat, usesFn: func(op *sched.Op) []Use { return uses[op.ID] }}
		res, err := Simulate(s, m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for r := 0; r < nres; r++ {
			lower := demand[r] / caps[r]
			if res.Makespan < lower*(1-1e-9) {
				t.Fatalf("trial %d: makespan %g below resource %d lower bound %g (conservation violated)",
					trial, res.Makespan, r, lower)
			}
		}
		for i := range s.Ops {
			if res.OpFinish[i] < res.OpStart[i] {
				t.Fatalf("trial %d: op %d finishes before it starts", trial, i)
			}
			// Per-op bound: bytes·maxDemand/cap ≤ duration.
			dur := res.OpFinish[i] - res.OpStart[i]
			for _, u := range uses[i] {
				need := float64(s.Ops[i].Bytes) * u.Demand / plat.Capacity(u.Resource)
				if dur < need*(1-1e-9) {
					t.Fatalf("trial %d: op %d duration %g below capacity bound %g", trial, i, dur, need)
				}
			}
		}
	}
}

// contendedSchedule builds nops flows over eight ranks, each loading two or
// three of the platform's five resources (capacities and demands that are
// not exactly representable, so summation order would show). A rank's ops
// form a chain, and every third op also waits for another rank's.
func contendedSchedule(nops int) (*sched.Schedule, *testModel) {
	plat := NewPlatform()
	for i := 0; i < 5; i++ {
		plat.AddIndexed("r", i, 1e9/float64(3+i))
	}
	s := sched.New(8)
	buf := s.AddBuffer(0, "b", 1<<30)
	uses := make([][]Use, nops)
	for i := 0; i < nops; i++ {
		a, b, c := ResourceID(i%5), ResourceID((i*7+3)%5), ResourceID((i/5)%5)
		uses[i] = []Use{{a, 1.1}}
		if b != a {
			uses[i] = append(uses[i], Use{b, 0.7})
		}
		if c != a && c != b {
			uses[i] = append(uses[i], Use{c, 1.3})
		}
		var deps []sched.OpID
		if i >= 8 {
			deps = append(deps, sched.OpID(i-8))
		}
		if i%3 == 0 && i > 0 {
			deps = append(deps, sched.OpID(i/2))
		}
		s.AddOp(sched.Op{Rank: i % 8, Src: buf, Dst: buf, Bytes: int64(1000 + 37*i), Deps: deps})
	}
	return s, &testModel{plat: plat, latency: 1e-7, notify: 3e-8, usesFn: func(op *sched.Op) []Use { return uses[op.ID] }}
}

func TestSimulateBitDeterministic(t *testing.T) {
	s, m := contendedSchedule(300)
	first, err := Simulate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 50; run++ {
		res, err := Simulate(s, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.OpFinish {
			if math.Float64bits(res.OpStart[i]) != math.Float64bits(first.OpStart[i]) ||
				math.Float64bits(res.OpFinish[i]) != math.Float64bits(first.OpFinish[i]) {
				t.Fatalf("run %d: op %d ran [%.17g, %.17g], first run [%.17g, %.17g]", run, i,
					res.OpStart[i], res.OpFinish[i], first.OpStart[i], first.OpFinish[i])
			}
		}
		if math.Float64bits(res.Makespan) != math.Float64bits(first.Makespan) {
			t.Fatalf("run %d: makespan %.17g, first run %.17g", run, res.Makespan, first.Makespan)
		}
	}
}

// TestSimulateAllocBudget: the simulator's own state is allocated once per
// call; only the event heap grows with the schedule.
func TestSimulateAllocBudget(t *testing.T) {
	for _, nops := range []int{47, 2304} {
		s, m := contendedSchedule(nops)
		got := testing.AllocsPerRun(5, func() {
			m.observed = m.observed[:0]
			if _, err := Simulate(s, m); err != nil {
				t.Fatal(err)
			}
		})
		if budget := 64 + 0.1*float64(nops); got > budget {
			t.Errorf("%d ops: %.0f allocations per simulation, budget %.0f", nops, got, budget)
		}
	}
}

func TestUtilizationByResourceID(t *testing.T) {
	plat := NewPlatform()
	idle := plat.AddIndexed("uplink", 3, 1e9)
	wire := plat.AddResource("wire", 1e9)
	m := &testModel{plat: plat, usesFn: func(op *sched.Op) []Use { return []Use{{Resource: wire, Demand: 1}} }}
	res, err := Simulate(singleOpSchedule(1<<20), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) != 2 || res.Utilization[idle] != 0 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
	near(t, res.Utilization[wire], 1, 1e-9, "wire utilization")
	if got := res.Platform.Name(idle) + " " + res.Platform.Name(wire) + " " + res.BusiestResource; got != "uplink3 wire wire" {
		t.Errorf("names = %q", got)
	}
}
