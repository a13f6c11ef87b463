package chaos

// Network-partition chaos cells (DESIGN.md §16): each cell severs links
// at runtime — cleanly, asymmetrically, along hardware boundaries, or
// repeatedly — and checks the full partition-tolerance contract:
//
//   - exactly one component survives each quorum decision, shrinks, and
//     keeps completing collectives with oracle-correct payloads under
//     the new partition epoch;
//   - every minority rank comes back with a typed PartitionError (or a
//     FenceError if its traffic raced the decision), never a hang and
//     never a silently wrong buffer;
//   - the fence holds: the partition.fenced counter equals the number of
//     fence trace events, and the trace-level boundary check (no copy
//     crosses a decided cut, epochs strictly monotone) passes;
//   - detection-to-decision is bounded: the decision lands within
//     DetectBudget collectives of the cut on every rank.
//
// Severs are injected at runtime through the world's fault injector (the
// same path the gray-failure cells use for stalls), so the detector sees
// a healthy network first and the cut arrives mid-workload.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/mpi"
	"distcoll/internal/partition"
	"distcoll/internal/trace"
	"distcoll/internal/trace/check"
)

// PartitionCell parameterizes one partition scenario.
type PartitionCell struct {
	Name     string
	Topology string // "zoot" or "igcluster" (contiguous binding)
	Ranks    int
	Bytes    int64 // bcast payload

	// Islands is the cut: SeverGroups semantics, every inter-island link
	// severed in both directions. The first island must contain rank 0
	// and is the expected quorum winner (nil winner cells are covered by
	// the serve tests).
	Islands [][]int
	// OneWay severs only the minority→majority direction (the asym cell):
	// bytes still flow toward the minority, but a collective cannot run
	// over a half-duplex cut, so mutual reachability must split anyway.
	OneWay bool
	// SecondCut, if set, is a second round: after the first decision the
	// network heals and this cut is applied to the survivors. Epochs must
	// advance strictly across rounds.
	SecondCut [][]int
	// HealAfter, if set, heals the cut from a harness goroutine that
	// many milliseconds after injection — racing the quorum decision on
	// purpose (the heal-mid-collective cell).
	HealAfter time.Duration

	Warmup       int // healthy collectives before the cut
	DetectBudget int // max collectives from cut to decision, per rank
	Settle       int // post-decision collectives on the survivor comm
}

// SplitCell: a clean 8/4 two-island cut on the single-node 12-rank zoot.
func SplitCell() PartitionCell {
	return PartitionCell{
		Name: "part-split", Topology: "zoot", Ranks: 12, Bytes: 4096,
		Islands:      [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11}},
		Warmup:       3,
		DetectBudget: 5,
		Settle:       3,
	}
}

// AsymCell: only the minority→majority direction is cut. The detector
// must refuse to call a half-duplex link "reachable".
func AsymCell() PartitionCell {
	return PartitionCell{
		Name: "part-asym", Topology: "zoot", Ranks: 8, Bytes: 2048,
		Islands:      [][]int{{0, 1, 2, 3, 4}, {5, 6, 7}},
		OneWay:       true,
		Warmup:       3,
		DetectBudget: 5,
		Settle:       3,
	}
}

// RackCell: a switch-aligned cut on the 48-core igcluster — the
// classic ToR failure. The split is exactly half/half, so the decision
// exercises the lowest-rank tiebreak at scale.
func RackCell() PartitionCell {
	half1 := make([]int, 24)
	half2 := make([]int, 24)
	for i := 0; i < 24; i++ {
		half1[i], half2[i] = i, 24+i
	}
	return PartitionCell{
		Name: "part-rack", Topology: "igcluster", Ranks: 48, Bytes: 4096,
		Islands:      [][]int{half1, half2},
		Warmup:       2,
		DetectBudget: 5,
		Settle:       2,
	}
}

// PartitionFlapCell ("part-flap"): two partitions in sequence with a
// heal in between. The second decision must land under a strictly
// larger epoch and the first cut's fenced ranks must stay fenced
// through the heal.
func PartitionFlapCell() PartitionCell {
	return PartitionCell{
		Name: "part-flap", Topology: "zoot", Ranks: 12, Bytes: 2048,
		Islands:      [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11}},
		SecondCut:    [][]int{{0, 1, 2, 3, 4, 5}, {6, 7}},
		Warmup:       3,
		DetectBudget: 5,
		Settle:       3,
	}
}

// HealMidCell: the cut heals ~25ms after injection, racing the quorum
// decision. Both outcomes are legal — the probes catch the heal and the
// full membership completes (no decision), or the decision lands first
// and the minority stays fenced forever — but half-states are not.
func HealMidCell() PartitionCell {
	return PartitionCell{
		Name: "part-healmid", Topology: "zoot", Ranks: 8, Bytes: 2048,
		Islands:      [][]int{{0, 1, 2, 3, 4, 5}, {6, 7}},
		HealAfter:    25 * time.Millisecond,
		Warmup:       3,
		DetectBudget: 40, // generous: a healed cut legitimately never decides
		Settle:       3,
	}
}

// PartitionGrid is the default partition chaos grid.
func PartitionGrid() []PartitionCell {
	return []PartitionCell{SplitCell(), AsymCell(), RackCell(), PartitionFlapCell(), HealMidCell()}
}

// PartitionReport is the outcome of one partition cell.
type PartitionReport struct {
	Cell        string
	Epoch       int64 // final partition epoch (0: cut healed undecided)
	Winner      []int // final surviving component
	Fenced      []int // fenced world ranks
	DetectOps   int   // worst-rank collectives from cut to decision
	FenceEvents int64 // trace fence events ≡ partition.fenced counter
	Violations  []string
}

// OK reports whether the cell held every property it checks.
func (r *PartitionReport) OK() bool { return len(r.Violations) == 0 }

func (r *PartitionReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *PartitionReport) String() string {
	s := fmt.Sprintf("%s: epoch %d, winner %v, fenced %v, detected in %d ops, %d fence events",
		r.Cell, r.Epoch, r.Winner, r.Fenced, r.DetectOps, r.FenceEvents)
	for _, v := range r.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}

// partitionWorld builds the instrumented world: empty injector for the
// runtime cut, partition detector armed, full tracing for the boundary
// checks.
func partitionWorld(cell PartitionCell) (*mpi.World, *trace.RingSink, *trace.Tracer, error) {
	var topo *hwtopo.Topology
	switch cell.Topology {
	case "zoot":
		topo = hwtopo.NewZoot()
	case "igcluster":
		topo = hwtopo.NewIGCluster()
	default:
		return nil, nil, nil, fmt.Errorf("chaos: unknown partition topology %q", cell.Topology)
	}
	b, err := binding.Contiguous(topo, cell.Ranks)
	if err != nil {
		return nil, nil, nil, err
	}
	ring := trace.NewRing(0)
	tr := trace.New(ring)
	w := mpi.NewWorld(b,
		mpi.WithFault(fault.Plan{}),
		mpi.WithTracer(tr),
		mpi.WithOpDeadline(5*time.Second),
		mpi.WithPartitionDetector(partition.Config{}))
	return w, ring, tr, nil
}

// applyCut severs the cell's islands from each other — bidirectionally,
// or minority→majority only for the asym shape.
func applyCut(w *mpi.World, islands [][]int, oneWay bool) {
	if !oneWay {
		w.Injector().SeverGroups(islands...)
		return
	}
	for _, minority := range islands[1:] {
		for _, a := range minority {
			for _, b := range islands[0] {
				w.Injector().Sever(a, b)
			}
		}
	}
}

// partRankResult is one rank's account of one partition round.
type partRankResult struct {
	detectOps int   // collectives from cut to decision (-1: none needed)
	err       error // terminal error (minority: the PartitionError)
	survived  bool  // finished the round inside the surviving component
}

// runPartitionRound drives one rank from the moment of the cut to its
// round verdict: verified resilient broadcasts until either the comm shrinks
// to the expected winner (survivor), a partition/fence error arrives
// (minority), or the budget is spent. Returns the comm for the next
// round. seq numbers keep oracle payloads distinct across ops.
func runPartitionRound(cell PartitionCell, p *mpi.Proc, cur *mpi.Comm, winner []int, budget int, seq *int) (partRankResult, *mpi.Comm) {
	for op := 0; op < budget; op++ {
		*seq++
		nc, err := RunVerified(context.Background(), cur, "bcast", int64(*seq), cell.Bytes, mpi.Adaptive)
		if err != nil {
			if mpi.Classify(err) == mpi.OutcomePartitioned {
				return partRankResult{detectOps: op + 1, err: err}, cur
			}
			return partRankResult{err: fmt.Errorf("rank %d op %d: %w", p.Rank(), op, err)}, cur
		}
		cur = nc
		// A shrink keeps the parent's rank order, so the world's successors
		// list their members ascending, like winner.
		if slices.Equal(cur.Group(), winner) {
			return partRankResult{detectOps: op + 1, survived: true}, cur
		}
	}
	// Budget spent without a decision: legal only when the cut healed
	// (heal-mid cell) and the full membership kept completing.
	return partRankResult{detectOps: -1, survived: true}, cur
}

// settleOps runs the post-decision phase: the surviving component must
// keep completing verified broadcasts on a stable membership.
func settleOps(cell PartitionCell, p *mpi.Proc, cur *mpi.Comm, seq *int) error {
	for op := 0; op < cell.Settle; op++ {
		*seq++
		nc, err := RunVerified(context.Background(), cur, "bcast", int64(*seq), cell.Bytes, mpi.Adaptive)
		if err != nil {
			return fmt.Errorf("rank %d settle op %d: %w", p.Rank(), op, err)
		}
		if nc.Size() != cur.Size() {
			return fmt.Errorf("rank %d settle op %d: membership moved again (%d → %d)",
				p.Rank(), op, cur.Size(), nc.Size())
		}
		cur = nc
	}
	return nil
}

// RunPartitionCell executes one partition cell and checks every
// property it promises.
func RunPartitionCell(cell PartitionCell) *PartitionReport {
	rep := &PartitionReport{Cell: cell.Name}
	w, ring, tr, err := partitionWorld(cell)
	if err != nil {
		rep.violate("world: %v", err)
		return rep
	}
	defer w.Close()

	winner1 := append([]int(nil), cell.Islands[0]...)
	sort.Ints(winner1)
	finalWinner := winner1
	var winner2 []int
	if cell.SecondCut != nil {
		winner2 = append([]int(nil), cell.SecondCut[0]...)
		sort.Ints(winner2)
		finalWinner = winner2
	}

	n := cell.Ranks
	results := make([]partRankResult, n)
	var mu sync.Mutex

	// Synchronization: every rank finishes warmup, then the harness
	// goroutine injects the cut (and optionally schedules the heal)
	// before any rank enters the degraded phase — the cut always lands
	// between collectives, never mid-warmup.
	var warmupDone, round1Done sync.WaitGroup
	warmupDone.Add(n)
	round1Done.Add(n)
	cutApplied := make(chan struct{})
	secondCut := make(chan struct{})
	go func() {
		warmupDone.Wait()
		applyCut(w, cell.Islands, cell.OneWay)
		if cell.HealAfter > 0 {
			go func() {
				time.Sleep(cell.HealAfter)
				w.Injector().HealAll()
			}()
		}
		close(cutApplied)
		round1Done.Wait()
		if cell.SecondCut != nil {
			w.Injector().HealAll()
			applyCut(w, cell.SecondCut, false)
		}
		close(secondCut)
	}()

	runErr := w.Run(func(p *mpi.Proc) error {
		seq := 0 // op counter; all ranks agree on it, so oracle seeds line up
		cur := p.Comm()
		for op := 0; op < cell.Warmup; op++ {
			seq++
			if _, err := RunVerified(context.Background(), cur, "bcast", int64(seq), cell.Bytes, mpi.KNEMColl); err != nil {
				warmupDone.Done()
				round1Done.Done()
				return fmt.Errorf("rank %d warmup op %d: %w", p.Rank(), op, err)
			}
		}
		warmupDone.Done()
		<-cutApplied

		res, cur := runPartitionRound(cell, p, cur, winner1, cell.DetectBudget, &seq)
		round1Done.Done()
		if res.survived && res.err == nil && cell.SecondCut != nil {
			<-secondCut
			res2, nc := runPartitionRound(cell, p, cur, winner2, cell.DetectBudget, &seq)
			cur = nc
			// The round-2 verdict supersedes round 1 for this rank; keep
			// the worst detection latency of the two.
			if res2.detectOps > res.detectOps {
				res.detectOps = res2.detectOps
			}
			res.err, res.survived = res2.err, res2.survived
		}
		if res.survived && res.err == nil {
			if serr := settleOps(cell, p, cur, &seq); serr != nil {
				res.err, res.survived = serr, false
			}
		}
		mu.Lock()
		results[p.Rank()] = res
		mu.Unlock()
		return nil
	})
	if runErr != nil {
		rep.violate("run: %v", runErr)
	}

	rep.Epoch = w.PartitionEpoch()
	rep.Fenced = w.FencedRanks()
	if v := w.PartitionVerdict(); v != nil {
		rep.Winner = v.Winner
	}
	checkPartitionOutcomes(rep, cell, results, finalWinner)
	checkPartitionTraces(rep, ring, tr)
	return rep
}

// checkPartitionOutcomes enforces the per-rank contract against the
// cell's expected final winner.
func checkPartitionOutcomes(rep *PartitionReport, cell PartitionCell, results []partRankResult, finalWinner []int) {
	inWinner := make(map[int]bool, len(finalWinner))
	for _, r := range finalWinner {
		inWinner[r] = true
	}
	decided := rep.Epoch > 0

	if cell.HealAfter > 0 && !decided {
		// The heal beat the decision: the only legal shape is full
		// membership, nobody fenced, everybody survived.
		if len(rep.Fenced) != 0 {
			rep.violate("undecided heal left fenced ranks %v", rep.Fenced)
		}
		for r, res := range results {
			if !res.survived || res.err != nil {
				rep.violate("undecided heal, but rank %d did not survive: %v", r, res.err)
			}
		}
		return
	}

	if !decided {
		rep.violate("cut never produced a quorum decision (epoch 0)")
		return
	}
	wantEpoch := int64(1)
	if cell.SecondCut != nil {
		wantEpoch = 2
	}
	if rep.Epoch < wantEpoch {
		rep.violate("final epoch %d, want >= %d", rep.Epoch, wantEpoch)
	}
	if !slices.Equal(rep.Winner, finalWinner) {
		rep.violate("surviving component %v, want %v", rep.Winner, finalWinner)
	}
	expectFenced := make([]int, 0, len(results))
	for r := range results {
		if !inWinner[r] {
			expectFenced = append(expectFenced, r)
		}
	}
	if !slices.Equal(rep.Fenced, expectFenced) {
		rep.violate("fenced ranks %v, want %v", rep.Fenced, expectFenced)
	}
	for r, res := range results {
		switch {
		case inWinner[r]:
			if !res.survived || res.err != nil {
				rep.violate("winner rank %d did not complete: %v", r, res.err)
			}
			if res.detectOps > cell.DetectBudget {
				rep.violate("winner rank %d took %d collectives to converge (budget %d)",
					r, res.detectOps, cell.DetectBudget)
			}
			if res.detectOps > rep.DetectOps {
				rep.DetectOps = res.detectOps
			}
		default:
			if res.err == nil {
				rep.violate("minority rank %d finished without an error", r)
			} else if mpi.Classify(res.err) != mpi.OutcomePartitioned {
				rep.violate("minority rank %d got %v, want PartitionError/FenceError", r, res.err)
			}
			if res.detectOps > cell.DetectBudget {
				rep.violate("minority rank %d took %d collectives to fail fast (budget %d)",
					r, res.detectOps, cell.DetectBudget)
			}
			if res.detectOps > rep.DetectOps {
				rep.DetectOps = res.detectOps
			}
		}
	}
}

// checkPartitionTraces cross-checks the trace: fence counter ≡ fence
// events, and the structural partition invariants (strictly monotone
// epochs, no copy across a decided boundary) hold.
func checkPartitionTraces(rep *PartitionReport, ring *trace.RingSink, tr *trace.Tracer) {
	if ring.Dropped() > 0 {
		rep.violate("trace ring dropped %d events; boundary checks impossible", ring.Dropped())
		return
	}
	events := ring.Events()
	rep.FenceEvents = int64(len(trace.Filter(events, trace.KindFence)))
	if c := tr.Metrics().Counter("partition.fenced").Load(); c != rep.FenceEvents {
		rep.violate("partition.fenced counter %d != %d fence trace events", c, rep.FenceEvents)
	}
	if d := tr.Metrics().Counter("partition.decisions").Load(); d != int64(len(trace.Filter(events, trace.KindPartition))) {
		rep.violate("partition.decisions counter %d != %d partition trace events",
			d, len(trace.Filter(events, trace.KindPartition)))
	}
	if r := check.VerifyPartition(events); !r.OK() {
		for _, v := range r.Violations {
			rep.violate("trace: %s", v)
		}
	}
}
