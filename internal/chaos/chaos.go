// Package chaos is the deterministic soak harness of the runtime: it
// sweeps seed-driven fault plans (transient copy failures, corrupted
// transfers, delays, rank crashes — alone and combined) across
// topologies and collectives, runs the self-healing collectives under
// each plan, and checks the three properties the robustness layer
// promises:
//
//   - Oracle correctness: every resilient operation that completes
//     delivers byte-identical, byte-correct buffers on every survivor —
//     with integrity verification on, even under injected corruption.
//   - Membership agreement: every completing rank reports the SAME final
//     communicator membership (the Agree/Shrink guarantee).
//   - Trace invariants: for runs that never shrank or retried, the
//     executed copy events still satisfy the §IV schedule invariants,
//     and the metrics registry agrees with the event stream.
//
// Everything is a pure function of the scenario seed: a failing seed
// replays exactly, and Minimize greedily shrinks its fault plan to a
// minimal plan that still reproduces the violation.
package chaos

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/mpi"
	"distcoll/internal/trace"
	"distcoll/internal/trace/check"
	"distcoll/internal/tune"
)

// Cell is one point of the fault grid: which fault classes are active
// and how hard they hit. Crashes counts crash victims to derive from the
// scenario seed (never the broadcast root, world rank 0).
type Cell struct {
	Name          string
	CopyFailProb  float64
	MaxTransients int64
	CorruptProb   float64
	DelayProb     float64
	Delay         time.Duration
	Crashes       int
	// CrashOpFrac > 0 places every crash at that fraction of the victim's
	// per-rank op count instead of a seed-derived early op — e.g. 0.75
	// kills a victim after three quarters of its chunks were delivered,
	// the partial-progress shape delta repair exists for.
	CrashOpFrac float64
	// LeaderCrash draws crash victims from the elected inter-node leaders
	// of the scenario's hierarchical broadcast tree (never the root):
	// killing the one rank that bridges its machine's subtree forces a
	// re-election on the shrunken communicator. On single-machine
	// topologies, where no leaders exist, victims fall back to the
	// ordinary pool.
	LeaderCrash bool
}

// DefaultGrid is the standard sweep: each fault class alone, then
// combined. The crash-late cells kill victims after ≥ 75% of their
// chunks landed, so recovery must pay off incrementally (bytes saved
// versus a full restart) — checkRecovery enforces that.
func DefaultGrid() []Cell {
	return []Cell{
		{Name: "calm"},
		{Name: "transient", CopyFailProb: 0.3, MaxTransients: 400},
		{Name: "corrupt", CorruptProb: 0.3},
		{Name: "delay", DelayProb: 0.2, Delay: 100 * time.Microsecond},
		{Name: "crash", Crashes: 1},
		{Name: "crash2", Crashes: 2},
		{Name: "crash-late", Crashes: 1, CrashOpFrac: 0.75},
		{Name: "crash-late2", Crashes: 2, CrashOpFrac: 0.8},
		{Name: "leader-crash", Crashes: 1, LeaderCrash: true},
		{Name: "leader-crash-late", Crashes: 1, LeaderCrash: true, CrashOpFrac: 0.8},
		{Name: "mixed", CopyFailProb: 0.15, MaxTransients: 200, CorruptProb: 0.15,
			DelayProb: 0.1, Delay: 50 * time.Microsecond, Crashes: 1},
	}
}

// Scenario fully determines one chaos run.
type Scenario struct {
	Seed       int64
	Ranks      int
	Topology   string // "cross" | "contiguous" | "zoot"
	Collective string // a row of the collectives table (oracle.go), or "allreduce-tree"
	Size       int64  // payload (bcast, reduce, allreduce) or per-rank block
	Cell       Cell
	Integrity  bool
	Repulls    int           // integrity re-pull budget (0 = default)
	OpDeadline time.Duration // watchdog (0 = 5s)
}

func (sc Scenario) String() string {
	integ := "integrity=off"
	if sc.Integrity {
		integ = "integrity=on"
	}
	return fmt.Sprintf("seed=%d cell=%s coll=%s topo=%s np=%d size=%d %s",
		sc.Seed, sc.Cell.Name, sc.Collective, sc.Topology, sc.Ranks, sc.Size, integ)
}

// Violation is one failed check of a chaos run.
type Violation struct {
	Kind   string // "oracle" | "membership" | "invariant" | "metrics" | "recovery" | "hang" | "error" | "config"
	Rank   int    // world rank it was observed on (-1 global)
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] rank %d: %s", v.Kind, v.Rank, v.Detail)
}

// Result is the outcome of one chaos run.
type Result struct {
	Scenario   Scenario
	Plan       fault.Plan
	Violations []Violation
	Completed  int   // ranks whose resilient op completed
	Excluded   int   // ranks that legitimately could not complete (dead, corrupting, lost root)
	Group      []int // agreed final membership of the completing ranks
	Attempts   int   // distinct collective plans executed (retries + 1)
	Fault      fault.Stats
	Integrity  integrity.Stats
	AgreeCalls int64
	Failed     []int // world ranks dead at the end
}

// OK reports whether the run passed every check.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

func (r *Result) violate(kind string, rank int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Kind: kind, Rank: rank, Detail: fmt.Sprintf(format, args...)})
}

// defaultSize is the payload of a scenario that names none.
const defaultSize = 4096

// Payload is the oracle buffer: a deterministic per-(seed, rank) byte
// pattern, so any corrupted or misplaced block is detectable.
func Payload(seed int64, rank int, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int64(rank*131) + seed*31 + int64(i)*7 + 13)
	}
	return out
}

// mix64 is a splitmix64 step — the same generator family the fault
// injector uses, so plans derive deterministically from seeds.
func mix64(h uint64) uint64 {
	h += 0x9E3779B97F4A7C15
	z := h
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// PlanFor derives the scenario's fault plan: the cell's probabilities
// verbatim, plus Crashes crash victims drawn deterministically from the
// seed among ranks 1..n-1 (world rank 0 — the broadcast root — always
// survives, since a dead root is unrecoverable by design). LeaderCrash
// cells narrow the victim pool to the elected inter-node leaders.
func PlanFor(sc Scenario) fault.Plan {
	c := sc.Cell
	p := fault.Plan{
		Seed:          sc.Seed,
		CopyFailProb:  c.CopyFailProb,
		MaxTransients: c.MaxTransients,
		CorruptProb:   c.CorruptProb,
		DelayProb:     c.DelayProb,
		Delay:         c.Delay,
	}
	if c.Crashes > 0 && sc.Ranks > 1 {
		pool := make([]int, 0, sc.Ranks-1)
		if c.LeaderCrash {
			pool = LeaderPool(sc)
		}
		if len(pool) == 0 {
			for r := 1; r < sc.Ranks; r++ {
				pool = append(pool, r)
			}
		}
		p.CrashAtOp = make(map[int]int)
		h := uint64(sc.Seed)
		for len(p.CrashAtOp) < c.Crashes && len(p.CrashAtOp) < len(pool) {
			h = mix64(h)
			victim := pool[int(h%uint64(len(pool)))]
			h = mix64(h)
			if _, dup := p.CrashAtOp[victim]; !dup {
				if c.CrashOpFrac > 0 {
					p.CrashAtOp[victim] = lateCrashOp(sc, victim, c.CrashOpFrac)
				} else {
					p.CrashAtOp[victim] = int(h % 4)
				}
			}
		}
	}
	return p
}

// LeaderPool returns the crash-eligible elected leaders of the
// scenario's hierarchical broadcast tree: the inter-node leaders under
// the scenario's topology and binding, minus the root (world rank 0).
// Empty on single-machine topologies and on any resolution error — the
// caller falls back to the ordinary victim pool.
func LeaderPool(sc Scenario) []int {
	_, cv, err := worldView(sc)
	if err != nil || !cv.MultiMachine() {
		return nil
	}
	tree, err := core.TreeFor(cv, 0) // the tree the world communicator builds
	if err != nil {
		return nil
	}
	var pool []int
	for _, l := range core.TreeLeaders(tree, cv) {
		if l != 0 {
			pool = append(pool, l)
		}
	}
	return pool
}

// treeAllreduce is the collective name of the grid's second allreduce
// column: the same operation, oracle and trace op as "allreduce", run under
// Adaptive with a selector whose only allreduce rule is the tree variant
// (treeSelector) where "allreduce" runs the fixed component's ring.
const treeAllreduce = "allreduce-tree"

// op is the scenario's operation as traces and the oracle name it.
func (sc Scenario) op() string {
	if sc.Collective == treeAllreduce {
		return "allreduce"
	}
	return sc.Collective
}

// decision is what the scenario's collective compiles as on the healthy
// world communicator (the runtime and the compiler name collectives alike);
// ok is false for barrier, which has no schedule.
func (sc Scenario) decision() (coll tune.Collective, d tune.Decision, ok bool) {
	d = tune.Decision{Component: tune.ComponentKNEM, Tree: sc.Collective == treeAllreduce}
	return tune.Collective(sc.op()), d, collectives[sc.op()].want != nil
}

// worldView resolves the scenario's binding and the distance view of its
// world communicator.
func worldView(sc Scenario) (*binding.Binding, *distance.Clustered, error) {
	topo, b, err := buildBinding(sc)
	if err != nil {
		return nil, nil, err
	}
	v, err := distance.NewClustered(topo, b.Cores())
	return b, v, err
}

// treeSelector is the selector of the tree-allreduce column: one table whose
// only rule set matches the world communicator exactly and sends every
// allreduce to the tree, so each fault cell reaches core's
// CompileAllreduceTree whatever the shipped tables say at this size.
// (A shrunken successor no longer matches exactly and takes the class or
// fallback tier — any schedule is a valid retry.)
func treeSelector(sc Scenario, v distance.View) *tune.Selector {
	_, d, _ := sc.decision()
	return tune.NewSelector(&tune.Table{Name: "chaos-" + treeAllreduce, RuleSets: []tune.RuleSet{{
		Coll: tune.CollAllreduce, Binding: sc.Topology, Fingerprint: tune.FingerprintOf(v),
		Rules: []tune.Rule{{Decision: d}},
	}}})
}

// rankOps is the number of ops the victim executes in the schedule the
// scenario's collective actually compiles to on the healthy world
// communicator — the first attempt's, where a crash plan fires. It is
// counted, not derived: a ring-allreduce rank runs 3n−2 ops, a tree-allreduce
// leaf two per chunk, an interior rank more. Barrier has no schedule: one.
func rankOps(sc Scenario, victim int) int {
	coll, d, ok := sc.decision()
	if !ok {
		return 1
	}
	size := sc.Size
	if size <= 0 {
		size = defaultSize
	}
	_, v, err := worldView(sc)
	if err != nil {
		return 1 // RunPlan reports the configuration error
	}
	s, err := tune.CompileFor(coll, d, v, 0, size, mpi.OpBXOR.ElemSize)
	if err != nil {
		return 1
	}
	idx, err := s.Index()
	if err != nil {
		return 1
	}
	return len(idx.RankOps(victim))
}

// lateCrashOp maps a crash fraction onto the victim's op index: frac
// 0.75 of a 16-chunk broadcast crashes before the 13th pull, after 12
// chunks (75%) already landed.
func lateCrashOp(sc Scenario, victim int, frac float64) int {
	ops := rankOps(sc, victim)
	op := int(frac * float64(ops))
	if op >= ops {
		op = ops - 1
	}
	if op < 0 {
		op = 0
	}
	return op
}

// buildBinding resolves the scenario's topology name.
func buildBinding(sc Scenario) (*hwtopo.Topology, *binding.Binding, error) {
	switch sc.Topology {
	case "cross", "crosssocket", "":
		t := hwtopo.NewIG()
		b, err := binding.CrossSocket(t, sc.Ranks)
		return t, b, err
	case "contiguous":
		t := hwtopo.NewIG()
		b, err := binding.Contiguous(t, sc.Ranks)
		return t, b, err
	case "zoot":
		t := hwtopo.NewZoot()
		b, err := binding.Contiguous(t, sc.Ranks)
		return t, b, err
	case "igcluster":
		t := hwtopo.NewIGCluster()
		b, err := binding.Contiguous(t, sc.Ranks)
		return t, b, err
	case "igrack":
		t := hwtopo.NewIGRack()
		b, err := binding.Contiguous(t, sc.Ranks)
		return t, b, err
	default:
		return nil, nil, fmt.Errorf("chaos: unknown topology %q (known: cross, contiguous, zoot, igcluster, igrack)", sc.Topology)
	}
}

// rankOut is what one rank reports back from a run.
type rankOut struct {
	completed bool
	group     []int
	data      []byte
	err       error
}

// RunSeed runs the scenario derived from its own seed.
func RunSeed(sc Scenario) *Result {
	return RunPlan(sc, PlanFor(sc))
}

// RunPlan runs the scenario under an explicit fault plan (Minimize uses
// this to re-run reduced plans) and checks every harness property.
func RunPlan(sc Scenario, plan fault.Plan) *Result {
	res := &Result{Scenario: sc, Plan: plan}
	if sc.Ranks < 2 {
		res.violate("config", -1, "need at least 2 ranks, got %d", sc.Ranks)
		return res
	}
	if _, ok := collectives[sc.op()]; !ok {
		res.violate("config", -1, "unknown collective %q", sc.Collective)
		return res
	}
	if sc.Size <= 0 {
		sc.Size = defaultSize
	}
	b, v, err := worldView(sc)
	if err != nil {
		res.violate("config", -1, "%v", err)
		return res
	}
	deadline := sc.OpDeadline
	if deadline <= 0 {
		deadline = 5 * time.Second
	}
	ring := trace.NewRing(0)
	tr := trace.New(ring)
	opts := []mpi.Option{
		mpi.WithFault(plan),
		mpi.WithTracer(tr),
		mpi.WithOpDeadline(deadline),
	}
	if sc.Integrity {
		opts = append(opts, mpi.WithIntegrity(integrity.Config{Repulls: sc.Repulls}))
	}
	if sc.Collective == treeAllreduce {
		opts = append(opts, mpi.WithSelector(treeSelector(sc, v)))
	}
	w := mpi.NewWorld(b, opts...)

	n := sc.Ranks
	outs := make([]rankOut, n)
	var mu sync.Mutex
	_ = w.Run(func(p *mpi.Proc) error {
		out := runCollective(sc, p)
		mu.Lock()
		outs[p.Rank()] = out
		mu.Unlock()
		return nil
	})

	res.Fault = w.Injector().Stats()
	if ic := w.Integrity(); ic != nil {
		res.Integrity = ic.Stats()
	}
	res.AgreeCalls = tr.Metrics().Counter("agree.calls").Load()
	res.Failed = w.Failed()
	checkOutcomes(res, sc, outs)
	checkTraces(res, sc, v, ring, tr)
	checkRecovery(res, sc, tr)
	return res
}

// checkRecovery enforces the incremental-recovery payoff: a late crash
// (≥ 75% of the victim's chunks delivered) in a ledger-backed collective
// that the survivors completed must recover for strictly fewer payload
// bytes than a full restart — recovery.bytes_saved must be positive,
// whether the saving came from a delta repair or from a repair that
// found nothing missing at all. Early or mid-run crashes are exempt:
// there a full restart can legitimately be the cheaper plan.
func checkRecovery(res *Result, sc Scenario, tr *trace.Tracer) {
	if sc.Cell.CrashOpFrac < 0.75 || res.Fault.Crashes == 0 || res.Completed == 0 {
		return
	}
	if !collectives[sc.op()].ledgered {
		return // recovers by restart; no ledger to save from
	}
	// An unpipelined broadcast has a single chunk; "late" does not exist and
	// a restart moves the same bytes a repair would.
	if lateCrashOp(sc, 1, sc.Cell.CrashOpFrac) < 1 { // every non-root rank pulls once per chunk
		return
	}
	mx := tr.Metrics()
	if saved := mx.Counter("recovery.bytes_saved").Load(); saved <= 0 {
		res.violate("recovery", -1,
			"late crash (frac %.2f) recovered without saving bytes: saved=%d repairs=%d restarts=%d",
			sc.Cell.CrashOpFrac, saved,
			mx.Counter("recovery.repairs").Load(), mx.Counter("recovery.restarts").Load())
	}
}

// runCollective executes one rank's share of the scenario's collective on
// the runtime's resilient ladder.
func runCollective(sc Scenario, p *mpi.Proc) rankOut {
	comp := mpi.KNEMColl
	if sc.Collective == treeAllreduce {
		comp = mpi.Adaptive
	}
	nc, out, err := Run(context.Background(), p.Comm(), sc.op(), sc.Seed, sc.Size, comp)
	if err != nil {
		return rankOut{err: err}
	}
	return rankOut{completed: true, group: nc.Group(), data: out}
}

// checkOutcomes verifies the oracle and membership properties over the
// per-rank outcomes.
func checkOutcomes(res *Result, sc Scenario, outs []rankOut) {
	var refGroup []int
	refRank := -1
	for r, out := range outs {
		if !out.completed {
			switch kind := mpi.Classify(out.err); {
			case kind == mpi.OutcomeOK:
			case expectedExclusion(kind, r, res.Failed):
				res.Excluded++
			case kind == mpi.OutcomeHang:
				res.violate("hang", r, "%v", out.err)
			default:
				res.violate("error", r, "%v", out.err)
			}
			continue
		}
		res.Completed++

		// Membership agreement: every completing rank must report the
		// identical final group.
		if refGroup == nil {
			refGroup = out.group
			refRank = r
			res.Group = out.group
		} else if !slices.Equal(refGroup, out.group) {
			res.violate("membership", r,
				"final group %v differs from rank %d's %v (split-brain shrink)", out.group, refRank, refGroup)
		}

		// Oracle: the delivered bytes must match what the survivors'
		// membership implies.
		if err := Verify(sc.op(), sc.Seed, out.group, sc.Size, slices.Index(out.group, r), out.data); err != nil {
			res.violate("oracle", r, "%v", err)
		}
	}
	// Completing ranks must never include a dead one, and the final group
	// must only contain ranks that were allowed to survive.
	for _, wr := range res.Group {
		if slices.Contains(res.Failed, wr) {
			res.violate("membership", wr, "final group %v contains failed rank %d", res.Group, wr)
		}
	}
}

// expectedExclusion reports whether a per-rank error of the given outcome
// is a legitimate result of the run, not a harness violation: the rank is
// dead (crashed), its island lost a quorum decision or its stale traffic was
// fenced (it is out of the membership by design, and the op completes on the
// surviving component), recovery refused or was exhausted (mpi.Classify's
// exclusion rule) — or, the harness's own half of the rule, the world marked
// the rank failed while it was still running (e.g. declared corrupting): its
// Shrink correctly refuses, its collectives correctly fail, whatever error
// that surfaces as.
func expectedExclusion(kind mpi.Outcome, rank int, failed []int) bool {
	switch kind {
	case mpi.OutcomeCrashed, mpi.OutcomePartitioned, mpi.OutcomeExcluded:
		return true
	}
	return slices.Contains(failed, rank)
}

// checkTraces runs the structural §IV invariant checks and the metrics
// cross-check where they are applicable: metrics whenever no events were
// dropped, structure only for single-attempt runs that never failed over
// (a shrink or retry legitimately changes the executed schedule).
func checkTraces(res *Result, sc Scenario, m *distance.Clustered, ring *trace.RingSink, tr *trace.Tracer) {
	if ring.Dropped() > 0 {
		return
	}
	events := ring.Events()
	if r := check.VerifyMetrics(tr.Metrics(), events); !r.OK() {
		for _, v := range r.Violations {
			res.violate("metrics", -1, "%s", v)
		}
	}

	res.Attempts = distinctPlans(events, sc.op())
	if len(res.Failed) > 0 || res.Attempts != 1 || res.Completed == 0 {
		return
	}
	if structure := collectives[sc.op()].structure; structure != nil {
		for _, v := range structure(trace.FilterOp(events, trace.KindCopy, sc.op()), m, sc.Size).Violations {
			res.violate("invariant", -1, "%s", v)
		}
	}
}

// distinctPlans counts the collective's executed plans (1 = no retry).
func distinctPlans(events []trace.Event, op string) int {
	ids := make(map[int64]bool)
	for _, e := range events {
		if e.Kind == trace.KindOpBegin && e.Op == op {
			ids[e.Plan] = true
		}
	}
	return len(ids)
}

// sortedVictims returns a plan's crash victims in deterministic order.
func sortedVictims(p fault.Plan) []int {
	out := make([]int, 0, len(p.CrashAtOp))
	for r := range p.CrashAtOp {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
