package chaos

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"distcoll/internal/fault"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

func mustPass(t *testing.T, res *Result) {
	t.Helper()
	if !res.OK() {
		t.Errorf("%s failed:", res.Scenario)
		for _, v := range res.Violations {
			t.Errorf("  %s", v)
		}
	}
}

func TestPlanForIsDeterministic(t *testing.T) {
	sc := Scenario{Seed: 42, Ranks: 8, Cell: Cell{Name: "crash2", Crashes: 2}}
	a, b := PlanFor(sc), PlanFor(sc)
	if len(a.CrashAtOp) != 2 || len(b.CrashAtOp) != 2 {
		t.Fatalf("want 2 victims, got %v and %v", a.CrashAtOp, b.CrashAtOp)
	}
	for r, op := range a.CrashAtOp {
		if r == 0 {
			t.Fatalf("rank 0 (broadcast root) drawn as crash victim: %v", a.CrashAtOp)
		}
		if b.CrashAtOp[r] != op {
			t.Fatalf("plans diverge: %v vs %v", a.CrashAtOp, b.CrashAtOp)
		}
	}
}

func TestPayloadDeterministicAndDistinct(t *testing.T) {
	a := Payload(7, 3, 64)
	b := Payload(7, 3, 64)
	c := Payload(7, 4, 64)
	if string(a) != string(b) {
		t.Fatal("payload not deterministic")
	}
	if string(a) == string(c) {
		t.Fatal("payloads for different ranks collide")
	}
}

// TestCalmRunsAllCollectives: with no faults, every collective passes
// every check, including the structural schedule invariants and metrics
// cross-check.
func TestCalmRunsAllCollectives(t *testing.T) {
	for _, coll := range columns() {
		res := RunSeed(Scenario{
			Seed: 1, Ranks: 6, Collective: coll, Size: 2048,
			Cell: Cell{Name: "calm"}, Integrity: true,
		})
		mustPass(t, res)
		if res.Completed != 6 {
			t.Errorf("%s: %d ranks completed, want 6", coll, res.Completed)
		}
		if coll == "bcast" || coll == "allgather" {
			if res.Attempts != 1 {
				t.Errorf("%s: %d attempts on a calm run, want 1", coll, res.Attempts)
			}
		}
	}
}

// columns is every collective the harness can sweep: the rows of the one
// table plus the tree-allreduce column. A collective is a column because it
// is a row, not because a switch names it.
func columns() []string {
	cols := []string{treeAllreduce}
	for name := range collectives {
		cols = append(cols, name)
	}
	sort.Strings(cols)
	return cols
}

// TestSlowRankClassifiedAlikeOnEveryColumn is the parity the one exclusion
// rule buys: one rank stalls every op past the watchdog and NOBODY is dead.
// On every column that is a hang on the ranks that waited for it — never a
// shrink attempt, never a "nothing to shrink" booked as a legitimate
// exclusion, which is what the hand-rolled allreduce and barrier loops did
// while the ladder's columns reported hangs.
func TestSlowRankClassifiedAlikeOnEveryColumn(t *testing.T) {
	for _, coll := range columns() {
		sc := Scenario{Seed: 1, Ranks: 6, Collective: coll, Size: 512,
			Cell: Cell{Name: "slow-rank"}, OpDeadline: 25 * time.Millisecond}
		res := RunPlan(sc, fault.Plan{Seed: 1, SlowRanks: map[int]time.Duration{2: 100 * time.Millisecond}})
		if res.Excluded != 0 || len(res.Failed) != 0 || res.AgreeCalls != 0 {
			t.Errorf("%s: %d exclusions, failed %v, %d agreement calls with nobody dead",
				coll, res.Excluded, res.Failed, res.AgreeCalls)
		}
		for _, v := range res.Violations {
			if v.Kind != "hang" {
				t.Errorf("%s: %s, want nothing but hangs", coll, v)
			}
		}
		if res.Completed+len(res.Violations) != sc.Ranks {
			t.Errorf("%s: %d completed + %d hung of %d ranks", coll, res.Completed, len(res.Violations), sc.Ranks)
		}
	}
}

// TestCrashRunsRecover: crash scenarios complete on the survivors with a
// consistent shrunken membership. A victim whose crash-at op index
// exceeds its schedule's op count never dies (the plan is per schedule
// op, not per collective) — those runs legitimately keep the full group.
func TestCrashRunsRecover(t *testing.T) {
	crashes := int64(0)
	for _, coll := range columns() {
		for seed := int64(1); seed <= 4; seed++ {
			res := RunSeed(Scenario{
				Seed: seed, Ranks: 6, Collective: coll, Size: 1024,
				Cell: Cell{Name: "crash", Crashes: 1}, Integrity: true,
			})
			mustPass(t, res)
			if res.Completed == 0 {
				t.Errorf("%s seed %d: no rank completed", coll, seed)
			}
			crashes += res.Fault.Crashes
			if res.Fault.Crashes > 0 && len(res.Group) >= 6 {
				t.Errorf("%s seed %d: a rank crashed but group %v did not shrink", coll, seed, res.Group)
			}
		}
	}
	if crashes == 0 {
		t.Fatal("no seed ever fired a crash; the sweep proved nothing")
	}
}

// TestCorruptionWithIntegrityDeliversCleanData is half of the core
// acceptance criterion: with CorruptProb > 0 and integrity verification
// on, every completing run delivers byte-identical, oracle-correct
// buffers — the checks inside RunPlan enforce it.
func TestCorruptionWithIntegrityDeliversCleanData(t *testing.T) {
	corrupted := int64(0)
	for _, coll := range []string{"bcast", "allgather", "allreduce", treeAllreduce} {
		for seed := int64(1); seed <= 5; seed++ {
			res := RunSeed(Scenario{
				Seed: seed, Ranks: 6, Collective: coll, Size: 4096,
				Cell:      Cell{Name: "corrupt", CorruptProb: 0.3},
				Integrity: true, Repulls: 12,
			})
			mustPass(t, res)
			corrupted += res.Fault.Corruptions
			if res.Integrity.Mismatches == 0 && res.Fault.Corruptions > 0 {
				t.Errorf("%s seed %d: %d corruptions injected but none detected",
					coll, seed, res.Fault.Corruptions)
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("no corruption was ever injected; the test proved nothing")
	}
}

// TestCorruptionWithoutIntegrityDeliversCorruptedData is the other half:
// the same seeds with verification off demonstrably deliver corrupted
// bytes — proving the integrity layer is what saves the runs above.
func TestCorruptionWithoutIntegrityDeliversCorruptedData(t *testing.T) {
	oracleViolations := 0
	for _, coll := range []string{"bcast", "allgather"} {
		for seed := int64(1); seed <= 5; seed++ {
			res := RunSeed(Scenario{
				Seed: seed, Ranks: 6, Collective: coll, Size: 4096,
				Cell:      Cell{Name: "corrupt", CorruptProb: 0.3},
				Integrity: false,
			})
			for _, v := range res.Violations {
				switch v.Kind {
				case "oracle":
					oracleViolations++
				case "membership", "hang":
					t.Errorf("%s seed %d: unexpected %s", coll, seed, v)
				}
			}
		}
	}
	if oracleViolations == 0 {
		t.Fatal("integrity off never delivered corrupted data; injection is broken")
	}
}

// TestMembershipAgreementAcrossSeeds is the agreement acceptance
// criterion: across 100+ seeded crash scenarios, every completing rank
// reports the identical post-shrink membership (checked inside RunPlan;
// a divergence surfaces as a "membership" violation).
func TestMembershipAgreementAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed soak; skipped with -short")
	}
	colls := []string{"bcast", "allgather", "allreduce", treeAllreduce, "barrier"}
	cells := []Cell{
		{Name: "crash", Crashes: 1},
		{Name: "crash2", Crashes: 2},
	}
	runs := 0
	for seed := int64(1); runs < 104; seed++ {
		coll := colls[int(seed)%len(colls)]
		cell := cells[int(seed)%len(cells)]
		res := RunSeed(Scenario{
			Seed: seed, Ranks: 6, Collective: coll, Size: 512,
			Cell: cell, Integrity: true,
		})
		runs++
		for _, v := range res.Violations {
			if v.Kind == "membership" {
				t.Errorf("seed %d (%s/%s): %s", seed, coll, cell.Name, v)
			}
		}
		mustPass(t, res)
	}
}

// TestMixedFaultSweep: the combined cell (transients + corruption +
// delays + a crash) still converges to clean data and agreed membership.
func TestMixedFaultSweep(t *testing.T) {
	cell := Cell{
		Name: "mixed", CopyFailProb: 0.15, MaxTransients: 200,
		CorruptProb: 0.15, DelayProb: 0.1, Delay: 20 * time.Microsecond,
		Crashes: 1,
	}
	for _, coll := range []string{"bcast", "allgather", "allreduce", treeAllreduce} {
		for seed := int64(1); seed <= 3; seed++ {
			res := RunSeed(Scenario{
				Seed: seed, Ranks: 6, Collective: coll, Size: 1024,
				Cell: cell, Integrity: true, Repulls: 12,
			})
			mustPass(t, res)
		}
	}
}

// TestSweepSmoke: the sweep driver itself — small grid, all green.
func TestSweepSmoke(t *testing.T) {
	sum := Sweep(Config{
		Seed:        100,
		Seeds:       1,
		Ranks:       4,
		Size:        512,
		Cells:       []Cell{{Name: "calm"}, {Name: "crash", Crashes: 1}},
		Collectives: []string{"bcast", "allreduce"},
		Topologies:  []string{"cross"},
		Integrity:   true,
	})
	if !sum.OK() {
		for _, f := range sum.Failing {
			t.Errorf("failing: %s", f.Scenario)
			for _, v := range f.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
	if sum.Runs != 4 {
		t.Fatalf("grid produced %d runs, want 4", sum.Runs)
	}
}

// TestSweepBudgetExpires: a zero-ish budget stops the sweep early and
// says so.
func TestSweepBudgetExpires(t *testing.T) {
	sum := Sweep(Config{
		Seed:   200,
		Seeds:  50,
		Ranks:  4,
		Budget: time.Nanosecond,
	})
	if !sum.TimedOut {
		t.Fatal("nanosecond budget did not expire")
	}
}

// TestMinimizeReducesCorruptionPlan: a failing integrity-off corruption
// scenario minimizes to a plan that still fails with only the corruption
// dimension active.
func TestMinimizeReducesCorruptionPlan(t *testing.T) {
	sc := Scenario{
		Seed: 1, Ranks: 6, Collective: "bcast", Size: 4096,
		Cell: Cell{
			Name: "mixed", CopyFailProb: 0.1, MaxTransients: 100,
			CorruptProb: 0.4, DelayProb: 0.1, Delay: 10 * time.Microsecond,
		},
		Integrity: false,
	}
	first := RunSeed(sc)
	hasOracle := false
	for _, v := range first.Violations {
		if v.Kind == "oracle" {
			hasOracle = true
		}
	}
	if !hasOracle {
		t.Skip("seed did not corrupt the broadcast; nothing to minimize")
	}
	plan, res, runs, ok := Minimize(sc, 30*time.Second)
	if !ok {
		t.Fatal("original plan did not reproduce")
	}
	if res.OK() {
		t.Fatal("minimized plan no longer fails")
	}
	if plan.CorruptProb == 0 {
		t.Fatalf("minimization dropped the faulting dimension: %+v", plan)
	}
	if plan.CopyFailProb != 0 || plan.DelayProb != 0 {
		t.Errorf("irrelevant dimensions survived minimization: %+v (%d runs)", plan, runs)
	}

	// Determinism: minimizing again lands on the identical plan.
	plan2, _, _, _ := Minimize(sc, 30*time.Second)
	if !samePlan(plan, plan2) {
		t.Errorf("minimization not deterministic: %+v vs %+v", plan, plan2)
	}
}

// samePlan compares the plan fields the harness varies (fault.Plan is
// not comparable — it holds a map).
func samePlan(a, b fault.Plan) bool {
	if a.Seed != b.Seed || a.CopyFailProb != b.CopyFailProb ||
		a.CorruptProb != b.CorruptProb || a.DelayProb != b.DelayProb ||
		len(a.CrashAtOp) != len(b.CrashAtOp) {
		return false
	}
	for r, op := range a.CrashAtOp {
		if b.CrashAtOp[r] != op {
			return false
		}
	}
	return true
}

// TestStringsAndHelpers pins the human-readable forms the CLI prints and
// the small pure helpers.
func TestStringsAndHelpers(t *testing.T) {
	sc := Scenario{Seed: 3, Ranks: 4, Topology: "cross", Collective: "bcast",
		Size: 64, Cell: Cell{Name: "calm"}, Integrity: true}
	s := sc.String()
	for _, want := range []string{"seed=3", "cell=calm", "coll=bcast", "integrity=on"} {
		if !strings.Contains(s, want) {
			t.Errorf("Scenario.String() = %q, missing %q", s, want)
		}
	}
	sc.Integrity = false
	if !strings.Contains(sc.String(), "integrity=off") {
		t.Error("integrity=off missing from scenario string")
	}
	v := Violation{Kind: "oracle", Rank: 2, Detail: "boom"}
	if got := v.String(); got != "[oracle] rank 2: boom" {
		t.Errorf("Violation.String() = %q", got)
	}
}

// TestBuildBindingVariants: every named topology resolves; unknown names
// surface as config violations, not panics.
func TestBuildBindingVariants(t *testing.T) {
	for _, name := range []string{"cross", "crosssocket", "", "contiguous", "zoot"} {
		if _, _, err := buildBinding(Scenario{Topology: name, Ranks: 4}); err != nil {
			t.Errorf("buildBinding(%q): %v", name, err)
		}
	}
	res := RunSeed(Scenario{Seed: 1, Ranks: 4, Topology: "marsrover", Collective: "bcast",
		Cell: Cell{Name: "calm"}})
	if res.OK() || res.Violations[0].Kind != "config" {
		t.Fatalf("unknown topology produced %v, want config violation", res.Violations)
	}
	res = RunSeed(Scenario{Seed: 1, Ranks: 4, Collective: "allscatter", Cell: Cell{Name: "calm"}})
	if res.OK() || res.Violations[0].Kind != "config" {
		t.Fatalf("unknown collective produced %v, want config violation", res.Violations)
	}
	res = RunSeed(Scenario{Seed: 1, Ranks: 1, Collective: "bcast", Cell: Cell{Name: "calm"}})
	if res.OK() || res.Violations[0].Kind != "config" {
		t.Fatalf("1-rank scenario produced %v, want config violation", res.Violations)
	}
	res = RunSeed(Scenario{Seed: 1, Ranks: 4, Collective: "scan", Cell: Cell{Name: "calm"}})
	if res.OK() {
		t.Fatal("unknown collective should produce a violation")
	}
}

// TestZootTopologyRuns: the second evaluation machine works end to end,
// including the structural invariant checks.
func TestZootTopologyRuns(t *testing.T) {
	for _, coll := range []string{"bcast", "allgather"} {
		res := RunSeed(Scenario{Seed: 5, Ranks: 6, Topology: "zoot", Collective: coll,
			Size: 1024, Cell: Cell{Name: "calm"}, Integrity: true})
		mustPass(t, res)
		if res.Completed != 6 || res.Attempts != 1 {
			t.Errorf("zoot %s: completed=%d attempts=%d", coll, res.Completed, res.Attempts)
		}
	}
}

// TestSummaryString covers the sweep's terminal forms.
func TestSummaryString(t *testing.T) {
	sum := Sweep(Config{Seed: 300, Seeds: 1, Ranks: 4, Size: 256,
		Cells:       []Cell{{Name: "calm"}},
		Collectives: []string{"barrier"},
		Topologies:  []string{"cross"},
	})
	if !strings.Contains(sum.String(), "PASS") {
		t.Errorf("Summary.String() = %q, want PASS", sum)
	}
	sum.Failing = append(sum.Failing, &Result{})
	sum.TimedOut = true
	s := sum.String()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "budget expired") {
		t.Errorf("Summary.String() = %q, want FAIL + budget note", s)
	}
}

// TestSweepVerboseOutput exercises the per-run reporting path, including
// a failing run's violation lines.
func TestSweepVerboseOutput(t *testing.T) {
	var buf bytes.Buffer
	sum := Sweep(Config{Seed: 1, Seeds: 3, Ranks: 6, Size: 4096,
		Cells:       []Cell{{Name: "corrupt", CorruptProb: 0.3}},
		Collectives: []string{"bcast"},
		Topologies:  []string{"cross"},
		Integrity:   false,
		Verbose:     &buf,
	})
	out := buf.String()
	if !strings.Contains(out, "seed=") {
		t.Fatalf("verbose output missing run lines: %q", out)
	}
	if sum.OK() {
		t.Skip("no seed corrupted; nothing to assert about FAIL lines")
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "[oracle]") {
		t.Errorf("verbose output missing FAIL/violation lines: %q", out)
	}
}

// TestMinimizeNonReproducing: minimizing a scenario that passes reports
// ok=false and spends exactly one run.
func TestMinimizeNonReproducing(t *testing.T) {
	_, res, runs, ok := Minimize(Scenario{Seed: 1, Ranks: 4, Collective: "bcast",
		Size: 256, Cell: Cell{Name: "calm"}, Integrity: true}, time.Second)
	if ok || runs != 1 || !res.OK() {
		t.Fatalf("calm minimize: ok=%v runs=%d violations=%v", ok, runs, res.Violations)
	}
}

// TestMinimizeDropsCrashVictims: a two-crash plan whose failure needs only
// the corruption dimension sheds both victims.
func TestMinimizeDropsCrashVictims(t *testing.T) {
	sc := Scenario{Seed: 2, Ranks: 6, Collective: "bcast", Size: 4096,
		Cell:      Cell{Name: "mixed", CorruptProb: 0.3, Crashes: 2},
		Integrity: false,
	}
	if RunSeed(sc).OK() {
		t.Skip("seed did not fail; nothing to minimize")
	}
	plan, res, _, ok := Minimize(sc, 30*time.Second)
	if !ok || res.OK() {
		t.Fatalf("minimize: ok=%v res=%v", ok, res.Violations)
	}
	if len(plan.CrashAtOp) != 0 {
		// Only acceptable if the violation genuinely needs a crash.
		t.Logf("crash victims survived minimization: %v", plan.CrashAtOp)
	}
	if plan.CorruptProb == 0 {
		t.Fatalf("minimization dropped corruption, the faulting dimension: %+v", plan)
	}
}

// TestClonePlanIsolation: reductions must not alias the parent's map.
func TestClonePlanIsolation(t *testing.T) {
	p := fault.Plan{Seed: 1, CrashAtOp: map[int]int{1: 0, 2: 1}}
	q := clonePlan(p)
	delete(q.CrashAtOp, 1)
	if len(p.CrashAtOp) != 2 {
		t.Fatal("clonePlan aliased the parent map")
	}
	r := clonePlan(fault.Plan{Seed: 1})
	if r.CrashAtOp != nil {
		t.Fatal("clonePlan invented a map")
	}
	reds := reductions(p)
	if len(reds) != 2 {
		t.Fatalf("crash-only plan has %d reductions, want 2", len(reds))
	}
}

// TestLateCrashRecoversIncrementally: the crash-late cell kills a victim
// after ≥ 75% of its chunks were delivered; every completing run must
// save payload bytes against a full restart — the checkRecovery property
// plus the standard oracle and membership checks, across seeds, ranks,
// and both ledger-backed collectives.
func TestLateCrashRecoversIncrementally(t *testing.T) {
	crashes := int64(0)
	for _, coll := range []string{"bcast", "allgather"} {
		for seed := int64(1); seed <= 4; seed++ {
			res := RunSeed(Scenario{
				Seed: seed, Ranks: 16, Topology: "zoot", Collective: coll, Size: 256 << 10,
				Cell:      Cell{Name: "crash-late", Crashes: 1, CrashOpFrac: 0.75},
				Integrity: true,
			})
			// Byte saving is asserted per-run by checkRecovery inside
			// RunPlan; mustPass surfaces its violations.
			mustPass(t, res)
			if res.Completed == 0 {
				t.Errorf("%s seed %d: no rank completed", coll, seed)
			}
			crashes += res.Fault.Crashes
		}
	}
	if crashes == 0 {
		t.Fatal("no late crash ever fired; the cell proved nothing")
	}
}

// TestLateCrashOpMapsFractions pins the fraction → op-index mapping the
// crash-late cells rely on against the schedule each collective actually
// compiles to: the index is the fraction of the ops the victim executes in
// it, so it always names one of them and sits at least that far in. (The
// count used to be a formula — one op per member for allreduce, where a ring
// rank runs 3n−2 and "late" fired a quarter of the way in, and where a leaf
// of the tree runs two and it would never have fired at all.)
func TestLateCrashOpMapsFractions(t *testing.T) {
	// 256 KiB broadcast → 16 chunks of 16 KiB.
	bc := Scenario{Collective: "bcast", Size: 256 << 10, Ranks: 16}
	if got := lateCrashOp(bc, 5, 0.75); got != 12 {
		t.Errorf("bcast 256KiB frac 0.75: op %d, want 12", got)
	}
	if got := lateCrashOp(bc, 5, 1.0); got != 15 {
		t.Errorf("bcast 256KiB frac 1.0: op %d, want clamp 15", got)
	}
	// Small broadcast: unpipelined, single chunk, op 0 regardless.
	small := Scenario{Collective: "bcast", Size: 4096, Ranks: 16}
	if got := lateCrashOp(small, 5, 0.75); got != 0 {
		t.Errorf("bcast 4KiB frac 0.75: op %d, want 0", got)
	}
	ag := Scenario{Collective: "allgather", Size: 8192, Ranks: 8}
	if got := lateCrashOp(ag, 3, 0.75); got != 6 {
		t.Errorf("allgather np=8 frac 0.75: op %d, want 6", got)
	}
	// A ring-allreduce rank runs n copies, n−1 combines and n−1 pulls.
	ring := Scenario{Collective: "allreduce", Size: 8192, Ranks: 8}
	if got := lateCrashOp(ring, 3, 0.75); got != 16 {
		t.Errorf("ring allreduce np=8 frac 0.75: op %d, want 16 of 22", got)
	}

	for _, sc := range []Scenario{bc, small, ag, ring,
		{Collective: treeAllreduce, Size: 4096, Ranks: 8},
		{Collective: treeAllreduce, Size: 256 << 10, Ranks: 16, Topology: "zoot"},
		{Collective: "barrier", Ranks: 8},
	} {
		var idx *sched.Index
		if coll, d, ok := sc.decision(); ok {
			_, v, err := worldView(sc)
			if err != nil {
				t.Fatal(err)
			}
			s, err := tune.CompileFor(coll, d, v, 0, sc.Size, 1)
			if err != nil {
				t.Fatal(err)
			}
			if idx, err = s.Index(); err != nil {
				t.Fatal(err)
			}
		}
		sc.Seed, sc.Cell = 11, Cell{Name: "crash-late", Crashes: sc.Ranks - 1, CrashOpFrac: 0.75}
		plan := PlanFor(sc)
		if len(plan.CrashAtOp) != sc.Ranks-1 {
			t.Fatalf("%s: %d victims, want every non-root rank", sc.Collective, len(plan.CrashAtOp))
		}
		for victim, at := range plan.CrashAtOp {
			ops := 1
			if idx != nil {
				ops = len(idx.RankOps(victim))
			}
			if at >= ops || float64(at) < 0.75*float64(ops)-1 {
				t.Errorf("%s np=%d: victim %d crashes at op %d of the %d it executes, want three quarters in",
					sc.Collective, sc.Ranks, victim, at, ops)
			}
		}
	}
}

// TestTreeAllreduceColumnRunsTheTree: the grid's second allreduce column
// executes core.CompileAllreduceTree's schedule, not the ring — with every
// copy delayed, the injector counts 2(n−1) kernel copies (each tree edge
// once up, once down) against the ring's 2n(n−1) — and a late crash on it
// fires, leaves included.
func TestTreeAllreduceColumnRunsTheTree(t *testing.T) {
	const n = 6
	everyCopy := Cell{Name: "delay-all", DelayProb: 1, Delay: time.Microsecond}
	for coll, want := range map[string]int64{treeAllreduce: 2 * (n - 1), "allreduce": 2 * n * (n - 1)} {
		res := RunSeed(Scenario{Seed: 1, Ranks: n, Collective: coll, Size: 2048, Cell: everyCopy})
		mustPass(t, res)
		if res.Completed != n || res.Fault.Delays != want {
			t.Errorf("%s: %d ranks completed, %d kernel copies; want %d and %d", coll, res.Completed, res.Fault.Delays, n, want)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		res := RunSeed(Scenario{
			Seed: seed, Ranks: n, Collective: treeAllreduce, Size: 2048,
			Cell: Cell{Name: "crash-late", Crashes: 1, CrashOpFrac: 0.75}, Integrity: true,
		})
		mustPass(t, res)
		if res.Fault.Crashes != 1 || len(res.Group) != n-1 {
			t.Errorf("seed %d: %d crashes fired, final group %v; want the late crash to fire and the survivors to finish",
				seed, res.Fault.Crashes, res.Group)
		}
	}
}

// TestSweepStopInterrupts: a pre-closed Stop channel halts the sweep
// before its first run and marks the summary interrupted — the signal
// path distchaos uses for graceful SIGINT/SIGTERM shutdown.
func TestSweepStopInterrupts(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	sum := Sweep(Config{
		Seed:  300,
		Seeds: 50,
		Ranks: 4,
		Stop:  stop,
	})
	if !sum.Interrupted {
		t.Fatal("closed Stop channel did not interrupt the sweep")
	}
	if sum.Runs != 0 {
		t.Fatalf("interrupted-before-start sweep ran %d scenarios", sum.Runs)
	}
	if s := sum.String(); !strings.Contains(s, "interrupted") {
		t.Fatalf("summary does not mention the interrupt: %s", s)
	}
}
