package health

import (
	"math/rand"
	"testing"
	"time"

	"distcoll/internal/distance"
	"distcoll/internal/trace"
)

// cfg is the fast test configuration: tiny windows, short probation so
// every ladder transition fits in a few dozen collectives.
func cfg() Config {
	return Config{
		Window:       8,
		MinSamples:   4,
		DemoteRatio:  3,
		Strikes:      2,
		ProbationOps: 8,
		ProbationMax: 64,
	}
}

// copyEv fabricates one copy event on edge (src, dst) at distance class
// dist taking durUs microseconds for 1 KiB.
func copyEv(src, dst, dist int, durUs int64) trace.Event {
	return trace.Event{Kind: trace.KindCopy, Src: src, Dst: dst,
		Bytes: 1024, Dist: dist, Dur: durUs * 1000}
}

func planReap() trace.Event { return trace.Event{Kind: trace.KindPlanReap} }

// feedRound emits one "collective" worth of samples: every edge of a
// 4-rank star at class 2 runs at 10µs except the edges in slow, which
// run at slowUs. One plan_reap closes the round.
func feedRound(s *Scorer, slow map[[2]int]int64) {
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		d := int64(10)
		if su, ok := slow[e]; ok {
			d = su
		}
		s.Emit(copyEv(e[0], e[1], 2, d))
	}
	s.Emit(planReap())
}

func TestScorerDemotesPersistentlySlowEdge(t *testing.T) {
	s := NewScorer(cfg())
	slow := map[[2]int]int64{{0, 3}: 200}
	for i := 0; i < 3; i++ { // below MinSamples: no judgement possible
		feedRound(s, slow)
	}
	if s.Demotions() != 0 {
		t.Fatalf("demoted before the min-sample gate: %d", s.Demotions())
	}
	for i := 0; i < 5; i++ {
		feedRound(s, slow)
	}
	if s.Demotions() != 1 {
		t.Fatalf("demotions = %d, want exactly 1", s.Demotions())
	}
	snap := s.Snapshot()
	if !snap.Demoted(0, 3) || !snap.Demoted(3, 0) {
		t.Error("snapshot does not demote edge 0-3 (both orders)")
	}
	if snap.Demoted(0, 1) || snap.Demoted(1, 2) {
		t.Error("healthy edges demoted")
	}
	if snap.DemoteTo() != distance.CrossSwitch {
		t.Errorf("DemoteTo = %d, want default %d", snap.DemoteTo(), distance.CrossSwitch)
	}
	if got := s.DemotedEdges(); len(got) != 1 || got[0] != [2]int{0, 3} {
		t.Errorf("DemotedEdges = %v", got)
	}
}

func TestScorerStrikesHysteresis(t *testing.T) {
	c := cfg()
	c.Strikes = 3
	s := NewScorer(c)
	slow := map[[2]int]int64{{0, 3}: 200}
	// Enough rounds to fill the window, then alternate: one slow scan is
	// one strike; a healthy scan resets the count, so alternating
	// slow/fast medians must never reach 3 consecutive strikes. With
	// window 8 and a single slow round per 3, the median stays fast.
	for i := 0; i < 24; i++ {
		if i%3 == 0 {
			feedRound(s, slow)
		} else {
			feedRound(s, nil)
		}
	}
	if s.Demotions() != 0 {
		t.Fatalf("occasional slow samples demoted the edge: %d demotions", s.Demotions())
	}
}

// TestScorerStrikesCountCollectives: Strikes is in collectives. One
// collective whose copies on an edge are all slow — enough of them to fill
// the window, closed by every rank's op_end — is one scan and one strike,
// however many ranks there are; the demotion needs a second collective.
func TestScorerStrikesCountCollectives(t *testing.T) {
	s := NewScorer(cfg())
	collective := func() {
		for i := 0; i < 8; i++ {
			s.Emit(copyEv(0, 3, 2, 200))
			for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
				s.Emit(copyEv(e[0], e[1], 2, 10))
			}
		}
		s.Emit(planReap())
		for r := 0; r < 48; r++ {
			s.Emit(trace.Event{Kind: trace.KindOpEnd, Rank: r})
		}
	}
	collective()
	if s.Clock() != 1 || s.Demotions() != 0 {
		t.Fatalf("after one slow collective: clock %d, %d demotions; want 1 and none (Strikes = 2)", s.Clock(), s.Demotions())
	}
	collective()
	if s.Demotions() != 1 || !s.Snapshot().Demoted(0, 3) {
		t.Fatalf("after two slow collectives: %d demotions, edges %v; want edge 0-3 demoted", s.Demotions(), s.DemotedEdges())
	}
}

// TestLadderProperty drives an edge's ladder and a rank's with the same
// random ratio sequences, the way a scan does (a probe opens when probation
// expires, an open probe gets a verdict, a trusted ladder over the ratio is
// demoted): they are one type, so they must walk the same (state,
// probation) trajectory, and on it probation never shrinks, never exceeds
// ProbationMax, and a ladder is never probing without being demoted.
func TestLadderProperty(t *testing.T) {
	c := cfg().withDefaults()
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		es, rank := &edgeState{}, &ladder{}
		var last int64
		for clock := int64(1); clock <= 400; clock++ {
			ratio := []float64{1, 1.2, 2, 3.5, 50}[rng.Intn(5)]
			for _, l := range []*ladder{&es.ladder, rank} {
				switch {
				case l.startProbe(clock):
				case l.probing:
					l.verdict(&c, clock, ratio)
				case !l.demoted && ratio >= c.DemoteRatio:
					l.demote(&c, clock, ratio)
				}
			}
			if es.ladder != *rank {
				t.Fatalf("trial %d clock %d: edge ladder %+v, rank ladder %+v", trial, clock, es.ladder, *rank)
			}
			if rank.probation < last || rank.probation > int64(c.ProbationMax) {
				t.Fatalf("trial %d clock %d: probation %d after %d (max %d)", trial, clock, rank.probation, last, c.ProbationMax)
			}
			if rank.probing && !rank.demoted {
				t.Fatalf("trial %d clock %d: probing without a demotion: %+v", trial, clock, *rank)
			}
			if rank.down() && rank.probeAt != 0 && rank.probeAt > clock+rank.probation {
				t.Fatalf("trial %d clock %d: probe scheduled past its probation: %+v", trial, clock, *rank)
			}
			last = rank.probation
		}
		if last != int64(c.ProbationMax) {
			t.Fatalf("trial %d: 400 collectives of flapping left probation at %d, want the cap %d", trial, last, c.ProbationMax)
		}
	}
}

func TestScorerProbeReinstatesRecoveredEdge(t *testing.T) {
	s := NewScorer(cfg())
	slow := map[[2]int]int64{{0, 3}: 200}
	for i := 0; i < 8; i++ {
		feedRound(s, slow)
	}
	if s.Demotions() != 1 {
		t.Fatalf("setup: demotions = %d, want 1", s.Demotions())
	}
	// Ride out probation (8 ops), then behave: the probe window refills
	// with healthy samples and the edge is reinstated.
	for i := 0; i < 24 && s.Reinstates() == 0; i++ {
		feedRound(s, nil)
	}
	if s.Probes() == 0 {
		t.Fatal("probation never opened a probe")
	}
	if s.Reinstates() != 1 {
		t.Fatalf("reinstates = %d, want 1", s.Reinstates())
	}
	if !s.Snapshot().Empty() {
		t.Errorf("snapshot still demotes %v after reinstatement", s.Snapshot().Edges())
	}
}

func TestScorerRelapseDoublesProbation(t *testing.T) {
	s := NewScorer(cfg())
	slow := map[[2]int]int64{{0, 3}: 200}
	for i := 0; i < 8; i++ {
		feedRound(s, slow)
	}
	if s.Demotions() != 1 {
		t.Fatalf("setup: demotions = %d, want 1", s.Demotions())
	}
	// Stay slow through the probe: the probe must relapse into a
	// re-demotion with doubled probation.
	rev0 := s.Revision()
	for i := 0; i < 40 && s.Relapses() == 0; i++ {
		feedRound(s, slow)
	}
	if s.Relapses() != 1 {
		t.Fatalf("relapses = %d, want 1", s.Relapses())
	}
	if s.Snapshot().Empty() {
		t.Fatal("relapsed edge left the snapshot")
	}
	s.mu.Lock()
	prob := s.edges[[2]int{0, 3}].probation
	s.mu.Unlock()
	if prob != 16 {
		t.Errorf("probation after relapse = %d, want doubled 16", prob)
	}
	if s.Revision() <= rev0 {
		t.Error("relapse did not advance the revision")
	}
}

func TestScorerFlapConvergesBoundedRevisions(t *testing.T) {
	s := NewScorer(cfg())
	// Flap: the edge alternates slow/fast every 4 rounds, forever. The
	// monotone probation ladder must converge to long probations, so the
	// revision count over 600 rounds stays far below the flap count.
	for i := 0; i < 600; i++ {
		if (i/4)%2 == 0 {
			feedRound(s, map[[2]int]int64{{0, 3}: 200})
		} else {
			feedRound(s, nil)
		}
	}
	if s.Demotions() == 0 {
		t.Fatal("flapping edge never demoted")
	}
	// 600 rounds with 8-round flap period = 75 flaps; an unconverged
	// scorer would revise ~2 per flap. The ladder (8→16→32→64 capped)
	// bounds probe starts to roughly clock/ProbationMax + ladder climb.
	if rev := s.Revision(); rev > 40 {
		t.Errorf("flap produced %d revisions over 600 rounds; ladder did not converge", rev)
	}
}

func TestScorerRankDemotionAbsorbsEdges(t *testing.T) {
	c := cfg()
	c.RankMinEdges = 2
	c.RankFraction = 0.5
	s := NewScorer(c)
	// Rank 3 is slow on every edge; 6 ranks give the baseline enough
	// trusted peers. Edges 3-x demote individually, then the rank-level
	// scan absorbs them.
	star := [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}, {0, 4}, {0, 5}}
	for i := 0; i < 12 && len(s.DemotedRanks()) == 0; i++ {
		for _, e := range star {
			d := int64(10)
			if e[0] == 3 || e[1] == 3 {
				d = 200
			}
			s.Emit(copyEv(e[0], e[1], 2, d))
		}
		s.Emit(planReap())
	}
	if got := s.DemotedRanks(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("DemotedRanks = %v, want [3]", got)
	}
	snap := s.Snapshot()
	if !snap.Demoted(3, 5) {
		t.Error("rank demotion must demote every pair touching rank 3")
	}
	if len(snap.Edges()) != 0 {
		t.Errorf("edge demotions not absorbed by the rank: %v", snap.Edges())
	}
}

func TestScorerEscalatesToDead(t *testing.T) {
	c := cfg()
	c.RankMinEdges = 2
	c.RankFraction = 0.5
	c.EscalateRatio = 10
	s := NewScorer(c)
	var dead []int
	s.OnDead(func(r int) { dead = append(dead, r) })
	star := [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}, {0, 4}, {0, 5}}
	for i := 0; i < 12 && len(dead) == 0; i++ {
		for _, e := range star {
			d := int64(10)
			if e[0] == 3 || e[1] == 3 {
				d = 500 // ratio 50 ≫ EscalateRatio
			}
			s.Emit(copyEv(e[0], e[1], 2, d))
		}
		s.Emit(planReap())
	}
	if len(dead) != 1 || dead[0] != 3 {
		t.Fatalf("OnDead fired with %v, want [3]", dead)
	}
}

func TestScorerRevisionCallbacks(t *testing.T) {
	s := NewScorer(cfg())
	var revs []Revision
	s.OnRevise(func(r Revision) { revs = append(revs, r) })
	for i := 0; i < 8; i++ {
		feedRound(s, map[[2]int]int64{{0, 3}: 200})
	}
	if len(revs) == 0 || revs[0].Action != "demote" || revs[0].Edge != [2]int{0, 3} {
		t.Fatalf("OnRevise saw %v, want a demote of 0-3 first", revs)
	}
}

func TestScorerIgnoresJunkEvents(t *testing.T) {
	s := NewScorer(cfg())
	s.Emit(trace.Event{Kind: trace.KindCopy, Src: 0, Dst: 0, Bytes: 1024, Dist: 2, Dur: 1000})
	s.Emit(trace.Event{Kind: trace.KindCopy, Src: 0, Dst: 1, Bytes: 0, Dist: 2, Dur: 1000})
	s.Emit(trace.Event{Kind: trace.KindCopy, Src: 0, Dst: 1, Bytes: 1024, Dist: 0, Dur: 1000})
	s.Emit(trace.Event{Kind: trace.KindCopy, Src: -1, Dst: 1, Bytes: 1024, Dist: 2, Dur: 1000})
	s.Emit(trace.Event{Kind: trace.KindFailure, Src: 0, Dst: 1})
	if s.Samples() != 0 {
		t.Errorf("junk events accepted: %d samples", s.Samples())
	}
}

// TestSnapshotReadTakesNoLock: every collective call of every rank reads
// the published snapshot while copy events queue on the scorer's mutex.
func TestSnapshotReadTakesNoLock(t *testing.T) {
	s := NewScorer(cfg())
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan *Snapshot)
	go func() {
		s.DemotedEdges()
		s.DemotedRanks()
		done <- s.Snapshot()
	}()
	select {
	case snap := <-done:
		if snap == nil || !snap.Empty() {
			t.Errorf("fresh scorer's snapshot = %v, want empty and non-nil", snap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot waited for the scorer's lock")
	}
}

func TestSnapshotHashStability(t *testing.T) {
	// The hash plan-cache keys fold is the wrapped view's: the demotion
	// set as the view's members see it. With the identity group that is
	// the snapshot's own set.
	base := uniformMatrix(8, 2)
	hash := func(group []int, s *Snapshot) uint64 {
		t.Helper()
		v, ok := WrapView(base, group, s).(*View)
		if !ok {
			t.Fatal("snapshot touching a member left the view unwrapped")
		}
		return v.Hash()
	}
	e := map[[2]int]bool{{0, 3}: true, {1, 2}: true}
	r := map[int]bool{5: true}
	a := newSnapshot(1, 8, e, r)
	b := newSnapshot(9, 8, map[[2]int]bool{{1, 2}: true, {0, 3}: true}, map[int]bool{5: true})
	if hash(nil, a) != hash(nil, b) {
		t.Error("identical demotion sets at different revisions must hash identically")
	}
	c := newSnapshot(1, 8, map[[2]int]bool{{0, 3}: true}, r)
	if hash(nil, a) == hash(nil, c) {
		t.Error("different edge sets hash identically")
	}
	// Edge {a,b} demoted vs rank a demoted must not collide.
	d := newSnapshot(1, 8, map[[2]int]bool{{5, 6}: true}, nil)
	f := newSnapshot(1, 8, nil, map[int]bool{5: true, 6: true})
	if hash(nil, d) == hash(nil, f) {
		t.Error("edge demotion and rank demotion hash identically")
	}
	// Member-relative: one snapshot demoting world edges 10-13 and 21-22
	// reads as edge 0-3 in group X and edge 1-2 in group Y — different
	// views, different hashes — while a group that sees its edge at the
	// same member-relative place as X shares X's hash, and an edge with one
	// endpoint outside the group does not count.
	two := newSnapshot(1, 8, map[[2]int]bool{{10, 13}: true, {21, 22}: true, {13, 40}: true}, nil)
	x := []int{10, 11, 12, 13, 14, 15, 16, 17}
	y := []int{20, 21, 22, 23, 24, 25, 26, 27}
	if hash(x, two) == hash(y, two) {
		t.Error("groups demoted on different member-relative edges hash identically")
	}
	z := []int{22, 30, 31, 21, 32, 33, 34, 35} // 21-22 sits at 0-3 here
	if hash(x, two) != hash(z, two) {
		t.Error("groups demoted on the same member-relative edge hash differently")
	}
	if hash(x, two) != hash(nil, newSnapshot(2, 8, map[[2]int]bool{{0, 3}: true}, nil)) {
		t.Error("member-relative hash differs from the same set under the identity group")
	}
}

// uniformMatrix builds an n-rank dense matrix with every off-diagonal
// distance d.
func uniformMatrix(n, d int) distance.Matrix {
	m := make(distance.Matrix, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = d
			}
		}
	}
	return m
}

func TestWrapViewIdentityWhenUntouched(t *testing.T) {
	base := uniformMatrix(4, 2)
	snap := newSnapshot(1, 8, map[[2]int]bool{{10, 11}: true}, nil)
	if _, wrapped := WrapView(base, nil, snap).(*View); wrapped {
		t.Error("snapshot touching no member must return the base view unchanged")
	}
	if _, wrapped := WrapView(base, []int{0, 1, 2, 3}, snap).(*View); wrapped {
		t.Error("group with no overlap must return the base view unchanged")
	}
	if _, wrapped := WrapView(base, nil, emptySnapshot(8)).(*View); wrapped {
		t.Error("empty snapshot must return the base view unchanged")
	}
	if _, wrapped := WrapView(base, nil, nil).(*View); wrapped {
		t.Error("nil snapshot must return the base view unchanged")
	}
}

func TestViewDemotesPairs(t *testing.T) {
	base := uniformMatrix(4, 2)
	snap := newSnapshot(1, 8, map[[2]int]bool{{1, 2}: true}, nil)
	v := WrapView(base, nil, snap)
	if _, ok := v.(*View); !ok {
		t.Fatalf("expected a health.View wrapper, got %T", v)
	}
	// Demotion is order-preserving: demoteTo + the base class, so among
	// demoted alternatives the nearest still wins minimum-weight picks.
	if got := v.At(1, 2); got != 10 {
		t.Errorf("At(1,2) = %d, want demoted 8+2", got)
	}
	if got := v.At(2, 1); got != 10 {
		t.Errorf("At(2,1) = %d, want demoted 8+2 (undirected)", got)
	}
	if got := v.At(0, 3); got != 2 {
		t.Errorf("At(0,3) = %d, want base 2", got)
	}
	if got := v.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %d, want 0 (diagonal untouched)", got)
	}
}

func TestViewGroupTranslation(t *testing.T) {
	base := uniformMatrix(2, 2)
	// The comm's two members are world ranks 4 and 7; the demoted world
	// edge 4-7 must demote comm pair (0, 1).
	snap := newSnapshot(1, 8, map[[2]int]bool{{4, 7}: true}, nil)
	v := WrapView(base, []int{4, 7}, snap)
	if got := v.At(0, 1); got != 10 {
		t.Errorf("At(0,1) = %d, want demoted 8+2 via group translation", got)
	}
}

func TestViewRankDemotion(t *testing.T) {
	base := uniformMatrix(3, 3)
	snap := newSnapshot(1, 8, nil, map[int]bool{1: true})
	v := WrapView(base, nil, snap)
	if v.At(0, 1) != 11 || v.At(1, 2) != 11 {
		t.Error("every pair touching the demoted rank must read demoteTo + base")
	}
	if got := v.At(0, 2); got != 3 {
		t.Errorf("At(0,2) = %d, want base 3", got)
	}
}

func TestReportRendersStates(t *testing.T) {
	s := NewScorer(cfg())
	for i := 0; i < 8; i++ {
		feedRound(s, map[[2]int]int64{{0, 3}: 200})
	}
	rep := s.Report()
	if len(rep.Edges) != 4 {
		t.Fatalf("report has %d edges, want 4", len(rep.Edges))
	}
	if rep.Edges[0].Edge != [2]int{0, 3} || rep.Edges[0].State != "demoted" {
		t.Errorf("worst-first edge = %+v, want demoted 0-3", rep.Edges[0])
	}
	out := rep.String()
	for _, want := range []string{"edge 0-3", "demoted", "copy samples"} {
		if !contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
