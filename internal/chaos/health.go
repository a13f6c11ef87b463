package chaos

// Gray-failure chaos cells (DESIGN.md §15): each cell injects a
// DEGRADED data path — links that still move bytes, just slowly, so the
// watchdog and the crash ladder both stay quiet — and checks that the
// health subsystem detects the degradation from trace timings, demotes
// the affected edges or ranks, replans around them, and recovers:
//
//   - slow-link: one sustained directed stall on a relay edge of the
//     broadcast tree. The scorer must demote the edge within a bounded
//     number of collectives, the steady-state completion time after
//     demotion must be at most half of a frozen control world running
//     the same fault without health, and clearing the stall must
//     reinstate the edge through the probation probe.
//   - slow-leader: every serving link of one non-root relay rank
//     stalls — the "slow NIC-send" shape. Edge demotions must converge
//     to a wholesale rank demotion, after which the rank serves nobody
//     and the steady state again beats the frozen control by 2×.
//   - flap: the relay stall toggles every few collectives, forever. The
//     monotone probation ladder must converge instead of plan-thrashing:
//     the revision count over the whole run stays under a fixed cap.
//
// Like the crash cells, everything is deterministic: stalls are fixed
// durations on fixed links, and the only wall-clock dependence is the
// (coarse, 2×-margin) steady-vs-control comparison.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/mpi"
)

// HealthCell parameterizes one gray-failure scenario.
type HealthCell struct {
	Name  string
	Ranks int           // world size (zoot contiguous binding)
	Bytes int64         // bcast payload
	Stall time.Duration // injected per-copy stall
	// Budgets, in collectives.
	Warmup     int // healthy ops before injection
	DemoteOps  int // max ops from injection to demotion
	SteadyOps  int // ops measured for the steady/control medians
	RecoverOps int // max ops from clearing the fault to reinstatement
	FlapPeriod int // slow-link toggle period (flap cell only)
	FlapOps    int // total flap ops (flap cell only)
	MaxRevs    int64
	// ProbationColl is the first-probe probation in collectives. The
	// sustained cells keep it past their steady-measurement window so no
	// probe re-opens the slow path mid-measurement; the flap cell keeps
	// it short so the ladder is exercised.
	ProbationColl int
}

// SlowLinkCell returns the default slow-link scenario: 16 zoot ranks so
// the cross-quad class has three relay edges — two healthy peers keep
// the class baseline honest while the third is stalled.
func SlowLinkCell() HealthCell {
	return HealthCell{
		Name: "slow-link", Ranks: 16, Bytes: 4096, Stall: 10 * time.Millisecond,
		Warmup: 6, DemoteOps: 30, SteadyOps: 8, RecoverOps: 120,
		ProbationColl: 40,
	}
}

// SlowLeaderCell returns the default slow-leader scenario: 12 zoot
// ranks; rank 4 (a quad relay) serves its quad over stalled links.
func SlowLeaderCell() HealthCell {
	return HealthCell{
		Name: "slow-leader", Ranks: 12, Bytes: 4096, Stall: 10 * time.Millisecond,
		Warmup: 6, DemoteOps: 40, SteadyOps: 8,
		ProbationColl: 40,
	}
}

// FlapCell returns the default flapping-link scenario.
func FlapCell() HealthCell {
	return HealthCell{
		Name: "flap", Ranks: 16, Bytes: 4096, Stall: 2 * time.Millisecond,
		Warmup: 6, FlapPeriod: 4, FlapOps: 120, MaxRevs: 30,
		ProbationColl: 4,
	}
}

// HealthReport is the outcome of one gray-failure cell.
type HealthReport struct {
	Cell         string
	DemoteAfter  int // collectives from injection to first demotion (-1: never)
	Revisions    int64
	Reinstates   int64
	DemotedRanks []int
	Steady       time.Duration // median completion after demotion, fault still armed
	Control      time.Duration // median completion of the frozen control world
	Violations   []string
}

// OK reports whether the cell held every property it checks.
func (r *HealthReport) OK() bool { return len(r.Violations) == 0 }

func (r *HealthReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *HealthReport) String() string {
	s := fmt.Sprintf("%s: demoted after %d ops, %d revisions, steady %v vs control %v, ranks %v",
		r.Cell, r.DemoteAfter, r.Revisions, r.Steady, r.Control, r.DemotedRanks)
	for _, v := range r.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}

// healthCfg is the cell scorer configuration, in the scorer's unit —
// collectives. DemoteRatio 5 leaves the injected stalls (ratio ≥ 20) a
// wide margin while scheduler noise under parallel test load — which must
// persist across a majority of one edge's window AND two collectives to
// matter — stays below it.
func healthCfg(cell HealthCell) health.Config {
	return health.Config{
		Window:       8,
		MinSamples:   4,
		DemoteRatio:  5,
		Strikes:      2,
		ProbationOps: cell.ProbationColl,
		ProbationMax: 16 * cell.ProbationColl,
	}
}

// healthWorld builds the instrumented world: an (initially empty) fault
// injector for runtime SetSlowLink, and the health scorer under test.
func healthWorld(cell HealthCell, cfg *health.Config) (*mpi.World, error) {
	b, err := binding.Contiguous(hwtopo.NewZoot(), cell.Ranks)
	if err != nil {
		return nil, err
	}
	opts := []mpi.Option{
		mpi.WithFault(fault.Plan{}),
		mpi.WithOpDeadline(10 * time.Second),
	}
	if cfg != nil {
		opts = append(opts, mpi.WithHealth(*cfg))
	}
	return mpi.NewWorld(b, opts...), nil
}

// controlWorld builds the frozen control: the same binding and fault
// plan, no health subsystem — what the job looks like when nobody
// routes around the gray failure.
func controlWorld(cell HealthCell, slow map[[2]int]time.Duration) (*mpi.World, error) {
	b, err := binding.Contiguous(hwtopo.NewZoot(), cell.Ranks)
	if err != nil {
		return nil, err
	}
	return mpi.NewWorld(b,
		mpi.WithFault(fault.Plan{SlowLinks: slow}),
		mpi.WithOpDeadline(10*time.Second)), nil
}

// bcastOnce runs one verified broadcast over every rank and returns its
// wall-clock completion time.
func bcastOnce(w *mpi.World, cell HealthCell, seq int) (time.Duration, error) {
	start := time.Now()
	err := w.Run(func(p *mpi.Proc) error {
		_, err := RunVerified(context.Background(), p.Comm(), "bcast", int64(seq)+1, cell.Bytes, mpi.KNEMColl)
		return err
	})
	return time.Since(start), err
}

// runOps runs count broadcasts and returns their median completion time.
func runOps(w *mpi.World, cell HealthCell, seq *int, count int) (time.Duration, error) {
	durs := make([]time.Duration, 0, count)
	for i := 0; i < count; i++ {
		d, err := bcastOnce(w, cell, *seq)
		*seq++
		if err != nil {
			return 0, err
		}
		durs = append(durs, d)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}

// relayLink is the stalled directed link of the slow-link and flap
// cells: quad relay rank 4 pulling from root 0 — {owner, caller}.
const (
	relayOwner  = 0
	relayCaller = 4
	leaderRank  = 4 // slow-leader victim: serves its quad
)

// relayEdge is the relay link as the scorer keys it (lower rank first).
var relayEdge = [2]int{relayOwner, relayCaller}

// RunSlowLink executes the slow-link cell.
func RunSlowLink(cell HealthCell) *HealthReport {
	rep := &HealthReport{Cell: cell.Name, DemoteAfter: -1}
	cfg := healthCfg(cell)
	w, err := healthWorld(cell, &cfg)
	if err != nil {
		rep.violate("world: %v", err)
		return rep
	}
	defer w.Close()
	s := w.Health()
	seq := 0
	if _, err := runOps(w, cell, &seq, cell.Warmup); err != nil {
		rep.violate("warmup: %v", err)
		return rep
	}

	// Inject the sustained stall and count collectives until the STALLED
	// pair is demoted — not until any demotion: under parallel-suite CPU
	// load a noise demotion of some µs-scale edge can land first, and
	// breaking on it would start the steady measurement with the slow
	// path still in the tree. Snapshot.Demoted covers both the edge
	// demotion and a rank demotion absorbing it.
	w.Injector().SetSlowLink(relayOwner, relayCaller, cell.Stall)
	for i := 0; i < cell.DemoteOps; i++ {
		if _, err := bcastOnce(w, cell, seq); err != nil {
			rep.violate("degraded op %d: %v", i, err)
			return rep
		}
		seq++
		if s.Snapshot().Demoted(relayOwner, relayCaller) {
			rep.DemoteAfter = i + 1
			break
		}
	}
	if rep.DemoteAfter < 0 {
		rep.violate("stalled link not demoted within %d degraded collectives (edges %v)",
			cell.DemoteOps, s.DemotedEdges())
		return rep
	}

	// Steady state with the fault still armed, against the frozen control.
	rep.Steady, err = runOps(w, cell, &seq, cell.SteadyOps)
	if err != nil {
		rep.violate("steady: %v", err)
		return rep
	}
	ctl, err := controlWorld(cell, map[[2]int]time.Duration{{relayOwner, relayCaller}: cell.Stall})
	if err != nil {
		rep.violate("control world: %v", err)
		return rep
	}
	defer ctl.Close()
	cseq := 0
	rep.Control, err = runOps(ctl, cell, &cseq, cell.SteadyOps)
	if err != nil {
		rep.violate("control: %v", err)
		return rep
	}
	if rep.Steady > rep.Control/2 {
		rep.violate("steady %v exceeds half the control %v: demotion did not route around the slow link",
			rep.Steady, rep.Control)
	}

	// Clear the fault; the probation probe must reinstate the edge.
	w.Injector().SetSlowLink(relayOwner, relayCaller, 0)
	recovered := func() bool {
		return s.Reinstates() > 0 && !slices.Contains(s.Snapshot().Edges(), relayEdge)
	}
	for i := 0; i < cell.RecoverOps && !recovered(); i++ {
		if _, err := bcastOnce(w, cell, seq); err != nil {
			rep.violate("recovery op %d: %v", i, err)
			return rep
		}
		seq++
	}
	rep.Reinstates = s.Reinstates()
	if rep.Reinstates == 0 {
		rep.violate("recovered link never reinstated within %d collectives", cell.RecoverOps)
	} else if slices.Contains(s.Snapshot().Edges(), relayEdge) {
		rep.violate("recovered link still demoted after reinstatement: %v", s.Snapshot().Edges())
	}
	rep.Revisions = s.Revision()
	return rep
}

// RunSlowLeader executes the slow-leader cell.
func RunSlowLeader(cell HealthCell) *HealthReport {
	rep := &HealthReport{Cell: cell.Name, DemoteAfter: -1}
	cfg := healthCfg(cell)
	// Rank demotion needs most of the leader's measured edges demoted.
	cfg.RankMinEdges = 2
	cfg.RankFraction = 0.5
	w, err := healthWorld(cell, &cfg)
	if err != nil {
		rep.violate("world: %v", err)
		return rep
	}
	defer w.Close()
	s := w.Health()
	seq := 0
	if _, err := runOps(w, cell, &seq, cell.Warmup); err != nil {
		rep.violate("warmup: %v", err)
		return rep
	}

	// Every pull FROM the leader stalls: the slow-server shape.
	slow := make(map[[2]int]time.Duration, cell.Ranks)
	for r := 0; r < cell.Ranks; r++ {
		if r != leaderRank {
			w.Injector().SetSlowLink(leaderRank, r, cell.Stall)
			slow[[2]int{leaderRank, r}] = cell.Stall
		}
	}
	for i := 0; i < cell.DemoteOps; i++ {
		if _, err := bcastOnce(w, cell, seq); err != nil {
			rep.violate("degraded op %d: %v", i, err)
			return rep
		}
		seq++
		if ranks := s.DemotedRanks(); slices.Contains(ranks, leaderRank) {
			rep.DemoteAfter = i + 1
			rep.DemotedRanks = ranks
			break
		}
	}
	if rep.DemoteAfter < 0 {
		rep.violate("leader %d not rank-demoted within %d degraded collectives (ranks %v, edges %v)",
			leaderRank, cell.DemoteOps, s.DemotedRanks(), s.DemotedEdges())
		return rep
	}

	rep.Steady, err = runOps(w, cell, &seq, cell.SteadyOps)
	if err != nil {
		rep.violate("steady: %v", err)
		return rep
	}
	ctl, err := controlWorld(cell, slow)
	if err != nil {
		rep.violate("control world: %v", err)
		return rep
	}
	defer ctl.Close()
	cseq := 0
	rep.Control, err = runOps(ctl, cell, &cseq, cell.SteadyOps)
	if err != nil {
		rep.violate("control: %v", err)
		return rep
	}
	if rep.Steady > rep.Control/2 {
		rep.violate("steady %v exceeds half the control %v: the demoted leader still serves traffic",
			rep.Steady, rep.Control)
	}
	rep.Revisions = s.Revision()
	return rep
}

// RunFlap executes the flapping-link cell.
func RunFlap(cell HealthCell) *HealthReport {
	rep := &HealthReport{Cell: cell.Name, DemoteAfter: -1}
	cfg := healthCfg(cell)
	w, err := healthWorld(cell, &cfg)
	if err != nil {
		rep.violate("world: %v", err)
		return rep
	}
	defer w.Close()
	s := w.Health()
	seq := 0
	if _, err := runOps(w, cell, &seq, cell.Warmup); err != nil {
		rep.violate("warmup: %v", err)
		return rep
	}
	for i := 0; i < cell.FlapOps; i++ {
		if (i/cell.FlapPeriod)%2 == 0 {
			w.Injector().SetSlowLink(relayOwner, relayCaller, cell.Stall)
		} else {
			w.Injector().SetSlowLink(relayOwner, relayCaller, 0)
		}
		if _, err := bcastOnce(w, cell, seq); err != nil {
			rep.violate("flap op %d: %v", i, err)
			return rep
		}
		seq++
		if rep.DemoteAfter < 0 && s.Demotions() > 0 {
			rep.DemoteAfter = i + 1
		}
	}
	rep.Revisions = s.Revision()
	rep.Reinstates = s.Reinstates()
	if rep.DemoteAfter < 0 {
		rep.violate("flapping link never demoted over %d collectives", cell.FlapOps)
	}
	if rep.Revisions > cell.MaxRevs {
		rep.violate("flap produced %d topology revisions over %d collectives (cap %d): probation ladder did not converge",
			rep.Revisions, cell.FlapOps, cell.MaxRevs)
	}
	return rep
}
