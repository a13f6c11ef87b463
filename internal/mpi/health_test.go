package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

// fastHealth is the test scorer configuration: tiny windows, probation
// long enough that demotions stay put for the test.
func fastHealth() health.Config {
	return health.Config{
		Window:       8,
		MinSamples:   4,
		DemoteRatio:  3,
		Strikes:      2,
		ProbationOps: 1 << 20,
	}
}

// feedEdge fabricates copy samples for the scorer: edge (a, b) at
// distance class dist, durUs microseconds per 1 KiB copy.
func feedEdge(s *health.Scorer, a, b, dist int, durUs int64) {
	s.Emit(trace.Event{Kind: trace.KindCopy, Src: a, Dst: b,
		Bytes: 1024, Dist: dist, Dur: durUs * 1000})
}

// demoteEdge drives the scorer until edge (a, b) is demoted, using three
// healthy same-class peer edges as the baseline.
func demoteEdge(t *testing.T, w *World, a, b, class int) {
	t.Helper()
	s := w.Health()
	for i := 0; i < 10 && s.Demotions() == 0; i++ {
		feedEdge(s, a, b, class, 200)
		feedEdge(s, a, b^1, class, 10)
		feedEdge(s, a^1, b, class, 10)
		feedEdge(s, a^1, b^1, class, 10)
		s.Emit(trace.Event{Kind: trace.KindPlanReap})
	}
	if got := s.DemotedEdges(); len(got) != 1 || got[0] != [2]int{a, b} {
		t.Fatalf("DemotedEdges = %v, want [[%d %d]]", got, a, b)
	}
}

// TestHealthClockCountsCollectives: the scorer's clock — what Strikes,
// ProbationOps and ProbationMax are counted in — is the collective, on the
// world and on a sub-communicator alike. One 48-rank broadcast is one tick
// (it was 48, one per rank's op_end), one allgather on a 12-rank Split child
// is one, and a Barrier, which moves no bytes and has no plan, is none.
func TestHealthClockCountsCollectives(t *testing.T) {
	const n, sub = 48, 12
	w := NewWorld(igWorld(t, "crosssocket", n).Binding(), WithHealth(health.Config{}))
	s := w.Health()
	var ticks [4]int64 // the clock after: the split, a world bcast, a child allgather, a world barrier
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		color := 1
		if p.Rank() < sub {
			color = 0
		}
		child, err := c.Split(color, p.Rank())
		if err != nil {
			return err
		}
		step := 0
		mark := func() error { // every member is back from the call before rank 0 reads
			err := c.Barrier()
			if p.Rank() == 0 {
				ticks[step] = s.Clock()
			}
			step++
			if err == nil {
				err = c.Barrier()
			}
			return err
		}
		if err := mark(); err != nil {
			return err
		}
		if err := c.Bcast(make([]byte, 4096), 0, KNEMColl); err != nil {
			return err
		}
		if err := mark(); err != nil {
			return err
		}
		if color == 0 {
			if err := child.Allgather(make([]byte, 64), make([]byte, sub*64), KNEMColl); err != nil {
				return err
			}
		}
		if err := mark(); err != nil {
			return err
		}
		return mark()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ticks[0] != 0 {
		t.Errorf("clock = %d after a Split and a Barrier, want 0: neither has a plan", ticks[0])
	}
	if got := ticks[1] - ticks[0]; got != 1 {
		t.Errorf("one %d-rank broadcast advanced the clock by %d, want 1", n, got)
	}
	if got := ticks[2] - ticks[1]; got != 1 {
		t.Errorf("one allgather on a %d-rank child advanced the clock by %d, want 1", sub, got)
	}
	if got := ticks[3] - ticks[2]; got != 0 {
		t.Errorf("barriers advanced the clock by %d, want 0", got)
	}
}

// TestHealthDemotionSteersTree is the core wiring assertion: a demoted
// edge raises its effective distance in the communicator's view, changes
// the topology hash (so cached plans cannot be reused), and the rebuilt
// broadcast tree routes around the demoted edge with no builder changes.
func TestHealthDemotionSteersTree(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithHealth(fastHealth()))
	st := w.worldComm
	st.mu.Lock()
	class := st.viewLocked().At(0, 4)
	topo0 := st.topoHashLocked()
	st.mu.Unlock()
	tree0, err := treeOf(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree0.Parent[4] != 0 {
		t.Fatalf("baseline tree does not use edge 0-4 (parent[4] = %d); pick another edge", tree0.Parent[4])
	}

	demoteEdge(t, w, 0, 4, class)

	st.mu.Lock()
	v := st.viewLocked()
	demotedClass := v.At(0, 4)
	otherClass := v.At(0, 5)
	topo1 := st.topoHashLocked()
	st.mu.Unlock()
	if want := w.Health().Config().DemoteTo + class; demotedClass != want {
		t.Errorf("view At(0,4) = %d, want demoted %d (DemoteTo + base)", demotedClass, want)
	}
	if otherClass != class {
		t.Errorf("view At(0,5) = %d, want untouched %d", otherClass, class)
	}
	if topo1 == topo0 {
		t.Error("topology hash unchanged across a demotion revision")
	}
	tree1, err := treeOf(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree1.Parent[4] == 0 {
		t.Errorf("rebuilt tree still attaches rank 4 to rank 0 over the demoted edge")
	}
	// The collective must still complete over the re-routed tree.
	want := pattern(0, 2048)
	err = w.Run(func(p *Proc) error {
		buf := make([]byte, 2048)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		if err := p.Comm().Bcast(buf, 0, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: payload mismatch", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCongruentSplitsKeyTheirOwnDemotions: two placement-congruent
// communicators share compiled plans (same topology hash), so under one
// demotion snapshot they may only keep sharing if the snapshot demotes the
// same member-relative pairs in both. Here it demotes a different edge of
// the shared tree in each: the keys must part, and each communicator's
// compiled broadcast must route around its own edge. (The world-wide
// snapshot hash used to be folded instead — equal for both — and the
// second communicator was served the first one's routing.)
func TestCongruentSplitsKeyTheirOwnDemotions(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 48)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithHealth(fastHealth()))
	var subs [2]*Comm // rank 0's handle on ranks 0–15 and on ranks 16–31
	err = w.Run(func(p *Proc) error {
		color := p.Rank() / 16
		sub, err := p.Comm().Split(color, p.Rank())
		if err == nil && color < len(subs) && sub.Rank() == 0 {
			subs[color] = sub
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	topoOf := func(c *Comm) uint64 {
		c.state.mu.Lock()
		defer c.state.mu.Unlock()
		return c.state.topoHashLocked()
	}
	if topoOf(subs[0]) != topoOf(subs[1]) {
		t.Fatal("the two splits are not placement-congruent; pick another pair")
	}
	tree, err := treeOf(subs[0].state, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kids []int // root children whose ^1 peer edges below stay off the root
	for _, k := range tree.Children[0] {
		if k > 1 {
			kids = append(kids, k)
		}
	}
	if len(kids) < 2 {
		t.Fatalf("root 0 has children %v; need two above rank 1", tree.Children[0])
	}
	// Demote comm-relative edge 0–kids[i] of split i, in world ranks, with
	// three healthy same-class peers each as the baseline.
	s := w.Health()
	for round := 0; round < 10 && s.Demotions() < 2; round++ {
		for i, c := range subs {
			class := c.state.baseView().At(0, kids[i])
			a, b := c.WorldRank(0), c.WorldRank(kids[i])
			feedEdge(s, a, b, class, 200)
			feedEdge(s, a, b^1, class, 10)
			feedEdge(s, a^1, b, class, 10)
			feedEdge(s, a^1, b^1, class, 10)
		}
		s.Emit(trace.Event{Kind: trace.KindPlanReap})
	}
	want := [][2]int{{subs[0].WorldRank(0), subs[0].WorldRank(kids[0])}, {subs[1].WorldRank(0), subs[1].WorldRank(kids[1])}}
	if got := s.DemotedEdges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DemotedEdges = %v, want %v", got, want)
	}
	if topoOf(subs[0]) == topoOf(subs[1]) {
		t.Error("splits demoted on different member-relative edges share a plan-cache key")
	}
	for i, c := range subs {
		sch, _, err := c.schedule(&collectives[opBcast], KNEMColl, 0, 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		if edges := copyEdges(sch); edges[[2]int{0, kids[i]}] || edges[[2]int{kids[i], 0}] {
			t.Errorf("split %d: compiled bcast still crosses its demoted edge 0-%d", i, kids[i])
		}
	}
}

// TestHealthRevisionInvalidatesPlans: a demotion revision must invalidate
// the tenant's cached plans and force the Adaptive component to recompile
// under the new topology hash.
func TestHealthRevisionInvalidatesPlans(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithHealth(fastHealth()))
	bcast := func() error {
		return w.Run(func(p *Proc) error {
			return p.Comm().Bcast(make([]byte, 4096), 0, Adaptive)
		})
	}
	if err := bcast(); err != nil {
		t.Fatal(err)
	}
	mx := w.tracer.Metrics()
	misses0 := mx.Counter("plancache.misses").Load()
	if misses0 == 0 {
		t.Fatal("priming bcast compiled no plan")
	}
	if err := bcast(); err != nil {
		t.Fatal(err)
	}
	if mx.Counter("plancache.misses").Load() != misses0 {
		t.Fatal("second bcast missed the plan cache before any demotion")
	}

	st := w.worldComm
	st.mu.Lock()
	class := st.viewLocked().At(0, 4)
	st.mu.Unlock()
	demoteEdge(t, w, 0, 4, class)

	if inv := mx.Counter("plancache.invalidations").Load(); inv == 0 {
		t.Error("demotion revision invalidated no cached plans")
	}
	if err := bcast(); err != nil {
		t.Fatal(err)
	}
	if mx.Counter("plancache.misses").Load() <= misses0 {
		t.Error("post-demotion bcast reused a stale plan instead of recompiling")
	}
	if mx.Counter("health.demoted").Load() != 1 {
		t.Errorf("health.demoted = %d, want 1", mx.Counter("health.demoted").Load())
	}
}

// TestHealthEscalationShrinks wires the confirmed-dead hand-off: a rank
// whose edges are catastrophically slow is demoted wholesale, crosses
// EscalateRatio, and is handed to the hard-failure ladder (MarkFailed);
// the resilient collectives then Shrink around it and complete.
func TestHealthEscalationShrinks(t *testing.T) {
	const (
		n      = 8
		victim = 3
		size   = 2048
	)
	cfg := fastHealth()
	cfg.RankMinEdges = 2
	cfg.RankFraction = 0.5
	cfg.EscalateRatio = 10
	b, err := binding.CrossSocket(hwtopo.NewIG(), n)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithHealth(cfg), WithOpDeadline(5*time.Second))
	s := w.Health()
	// Victim edges are intra-socket; socket B's intra edges give the
	// class baseline a healthy majority (median-of-medians needs more
	// trusted peers than slow ones in the class bucket).
	star := [][2]int{{0, 1}, {0, 2}, {1, 2}, {4, 5}, {4, 6}, {5, 6},
		{0, victim}, {1, victim}, {2, victim}}
	st := w.worldComm
	st.mu.Lock()
	classOf := func(e [2]int) int { return st.viewLocked().At(e[0], e[1]) }
	classes := make(map[[2]int]int, len(star))
	for _, e := range star {
		classes[e] = classOf(e)
	}
	st.mu.Unlock()
	for i := 0; i < 12 && len(w.Failed()) == 0; i++ {
		for _, e := range star {
			d := int64(10)
			if e[0] == victim || e[1] == victim {
				d = 500
			}
			feedEdge(s, e[0], e[1], classes[e], d)
		}
		s.Emit(trace.Event{Kind: trace.KindPlanReap})
	}
	if got := w.Failed(); len(got) != 1 || got[0] != victim {
		t.Fatalf("Failed() = %v, want [%d] via escalation", got, victim)
	}

	want := pattern(0, size)
	err = w.Run(func(p *Proc) error {
		if p.Rank() == victim {
			return nil // the gray-failed rank: out of the collective
		}
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		nc, err := p.Comm().BcastResilient(buf, 0, KNEMColl)
		if err != nil {
			return err
		}
		if nc.Size() != n-1 {
			return fmt.Errorf("rank %d: shrunk to %d members, want %d", p.Rank(), nc.Size(), n-1)
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: payload mismatch", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fpRecorder is a Decider that records the fingerprint of every warm-path
// query before delegating to the shipped tables.
type fpRecorder struct {
	*tune.Selector
	seen []tune.Fingerprint
}

func (r *fpRecorder) SelectFP(coll tune.Collective, fp tune.Fingerprint, bytes int64) tune.Decision {
	r.seen = append(r.seen, fp) // one caller per collective: the plan builder
	return r.Selector.SelectFP(coll, fp, bytes)
}

// TestFingerprintCachedWithTopoHash: the selector's identity of a
// communicator's view is computed once and handed to the selector on every
// warm Adaptive call (the same backing array, not an equal copy: no pair
// loop ran), and it is dropped by exactly what drops the topology hash — a
// health revision touching the communicator, after which it describes the
// re-wrapped view, and Free.
func TestFingerprintCachedWithTopoHash(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 8)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithHealth(fastHealth()))
	rec := &fpRecorder{Selector: tune.DefaultSelector()}
	w.selector = rec
	bcast := func() tune.Fingerprint {
		t.Helper()
		err := w.Run(func(p *Proc) error { return p.Comm().Bcast(make([]byte, 4096), 0, Adaptive) })
		if err != nil {
			t.Fatal(err)
		}
		return rec.seen[len(rec.seen)-1]
	}
	st := w.worldComm
	current := func() tune.Fingerprint {
		st.mu.Lock()
		defer st.mu.Unlock()
		return tune.FingerprintOf(st.viewLocked())
	}
	first, second := bcast(), bcast()
	if !first.Equal(current()) {
		t.Fatalf("selector was handed %+v, the view fingerprints to %+v", first, current())
	}
	if &first.Hist[0] != &second.Hist[0] {
		t.Error("second warm call recomputed the fingerprint")
	}

	st.mu.Lock()
	class := st.viewLocked().At(0, 4)
	st.mu.Unlock()
	demoteEdge(t, w, 0, 4, class)
	demoted := bcast()
	if demoted.Equal(first) || !demoted.Equal(current()) {
		t.Errorf("after a demotion the selector was handed %+v; before %+v, the re-wrapped view %+v", demoted, first, current())
	}
	if again := bcast(); &again.Hist[0] != &demoted.Hist[0] {
		t.Error("warm call after the demotion recomputed the fingerprint")
	}

	(&Comm{state: st}).Free()
	if freed := bcast(); !freed.Equal(demoted) || &freed.Hist[0] == &demoted.Hist[0] {
		t.Error("Free kept the cached fingerprint")
	}
	if len(rec.seen) != 5 {
		t.Errorf("selector consulted %d times for 5 collectives", len(rec.seen))
	}
}
