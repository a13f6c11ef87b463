package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

func zootWorld(t *testing.T, n int, opts ...Option) *World {
	t.Helper()
	b, err := binding.Contiguous(hwtopo.NewZoot(), n)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(b, opts...)
}

// TestAdaptiveCollectivesCorrect runs every collective through the
// Adaptive component at sizes on both sides of the selector's crossovers,
// so both the tuned and the distance-aware compile paths execute for real.
func TestAdaptiveCollectivesCorrect(t *testing.T) {
	const n = 16
	w := zootWorld(t, n)
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		// Bcast: 512 B resolves to tuned, 256 KB to knemcoll/linear on Zoot.
		for _, size := range []int{512, 4096, 256 << 10} {
			want := pattern(3, size)
			buf := make([]byte, size)
			if p.Rank() == 3 {
				copy(buf, want)
			}
			if err := comm.Bcast(buf, 3, Adaptive); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d: adaptive bcast %d wrong", p.Rank(), size)
			}
		}
		// Allgather: 256 B block below the crossover, 8 KB above.
		for _, block := range []int{256, 8192} {
			recv := make([]byte, n*block)
			if err := comm.Allgather(pattern(p.Rank(), block), recv, Adaptive); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r, block)) {
					return fmt.Errorf("rank %d: adaptive allgather block %d wrong", p.Rank(), block)
				}
			}
		}
		// Reduce and allreduce: XOR folds every rank's pattern.
		for _, size := range []int{512, 64 << 10} {
			want := make([]byte, size)
			for r := 0; r < n; r++ {
				OpBXOR.Combine(want, pattern(r, size))
			}
			recv := make([]byte, size)
			if err := comm.Reduce(pattern(p.Rank(), size), recv, 0, OpBXOR, Adaptive); err != nil {
				return err
			}
			if p.Rank() == 0 && !bytes.Equal(recv, want) {
				return fmt.Errorf("adaptive reduce %d wrong at root", size)
			}
			all := make([]byte, size)
			if err := comm.Allreduce(pattern(p.Rank(), size), all, OpBXOR, Adaptive); err != nil {
				return err
			}
			if !bytes.Equal(all, want) {
				return fmt.Errorf("rank %d: adaptive allreduce %d wrong", p.Rank(), size)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdaptivePlanCacheHitOnRepeat is the plan-lifecycle acceptance test:
// a repeated collective with an identical shape must hit the cache
// (observable both in the cache counters and the plan_cache trace
// events), and any shape change must miss.
func TestAdaptivePlanCacheHitOnRepeat(t *testing.T) {
	const (
		n    = 16
		size = 64 << 10
	)
	ring := trace.NewRing(trace.DefaultRingCapacity)
	tr := trace.New(ring)
	w := zootWorld(t, n, WithTracer(tr))
	bcast := func(p *Proc, root, size int) error {
		buf := make([]byte, size)
		if p.Rank() == root {
			copy(buf, pattern(root, size))
		}
		if err := p.Comm().Bcast(buf, root, Adaptive); err != nil {
			return err
		}
		if !bytes.Equal(buf, pattern(root, size)) {
			return fmt.Errorf("rank %d: wrong data", p.Rank())
		}
		return nil
	}
	err := w.Run(func(p *Proc) error {
		for i := 0; i < 3; i++ { // same shape: 1 compile + 2 hits
			if err := bcast(p, 0, size); err != nil {
				return err
			}
		}
		if err := bcast(p, 1, size); err != nil { // new root: new plan
			return err
		}
		return bcast(p, 0, size/2) // new size: new plan
	})
	if err != nil {
		t.Fatal(err)
	}

	st := w.PlanCache().Stats()
	if st.Misses != 3 || st.Hits != 2 {
		t.Errorf("cache stats = %+v, want 3 misses and 2 hits", st)
	}
	events := trace.Filter(ring.Events(), trace.KindPlanCache)
	if len(events) != 5 {
		t.Fatalf("got %d plan_cache events, want 5", len(events))
	}
	var hits int
	for _, e := range events {
		if e.Op != "bcast" {
			t.Errorf("plan_cache event op = %q", e.Op)
		}
		// Zoot ≥ 32 KB must resolve to the linear topology (Fig. 8); the
		// half-size call is still above the 1 KB table crossover.
		if e.Bytes == size && e.Det != "knemcoll/linear" {
			t.Errorf("decision at %d bytes = %q, want knemcoll/linear", e.Bytes, e.Det)
		}
		if e.Mode == "hit" {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("%d hit events, want 2", hits)
	}
}

// TestAdaptiveConcurrentSplitSharedCache stresses the plan cache from
// four communicators running collectives concurrently (the -race target
// for the shared-cache path). The split groups are placement-congruent,
// so they hash to identical topologies and genuinely share plans.
func TestAdaptiveConcurrentSplitSharedCache(t *testing.T) {
	const (
		groups = 4
		n      = 48
		iters  = 3
		size   = 16 << 10
		block  = 512
	)
	w := igWorld(t, "contiguous", n)
	err := w.Run(func(p *Proc) error {
		// Blocks of 12 consecutive ranks: each group is two full sockets
		// with an identical internal distance pattern.
		sub, err := p.Comm().Split(p.Rank()/(n/groups), p.Rank())
		if err != nil {
			return err
		}
		m := sub.Size()
		for i := 0; i < iters; i++ {
			root := i % m
			want := pattern(root*100+i, size)
			buf := make([]byte, size)
			if sub.Rank() == root {
				copy(buf, want)
			}
			if err := sub.Bcast(buf, root, Adaptive); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("iter %d: sub bcast wrong", i)
			}
			recv := make([]byte, m*block)
			if err := sub.Allgather(pattern(sub.Rank(), block), recv, Adaptive); err != nil {
				return err
			}
			for r := 0; r < m; r++ {
				if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r, block)) {
					return fmt.Errorf("iter %d: sub allgather wrong", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.PlanCache().Stats()
	// Distinct shapes: one bcast plan per root (roots coincide across
	// groups and iterations pick a new root each) plus a single allgather
	// plan; congruent groups share them all.
	wantCompiles := int64(iters + 1)
	if st.Misses != wantCompiles {
		t.Errorf("misses = %d, want %d (placement-congruent groups must share plans); stats %+v",
			st.Misses, wantCompiles, st)
	}
	if st.Hits+st.Coalesced == 0 {
		t.Error("no cache reuse across congruent communicators")
	}
}

// TestAdaptiveFreeInvalidates: Comm.Free must drop the communicator's
// plans (and only break caching, not correctness — the next collective
// recompiles).
func TestAdaptiveFreeInvalidates(t *testing.T) {
	const (
		n    = 8
		size = 32 << 10
	)
	w := zootWorld(t, n)
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		bcast := func() error {
			buf := make([]byte, size)
			if p.Rank() == 0 {
				copy(buf, pattern(0, size))
			}
			if err := comm.Bcast(buf, 0, Adaptive); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(0, size)) {
				return fmt.Errorf("rank %d: wrong data", p.Rank())
			}
			return nil
		}
		if err := bcast(); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		if p.Rank() == 0 {
			comm.Free()
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		return bcast()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.PlanCache().Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (recompile after Free)", st.Misses)
	}
}

// TestAdaptiveShrinkInvalidatesPlans: a rank crash mid-collective breaks
// the communicator; both the failure and the Shrink drop the dead
// topology's plans, and the shrunken communicator's Adaptive collectives
// compile fresh plans over the survivors.
func TestAdaptiveShrinkInvalidatesPlans(t *testing.T) {
	const (
		n      = 6
		victim = 4
		size   = 4096
	)
	w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 0}})
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, pattern(0, size))
		}
		err := comm.Bcast(buf, 0, Adaptive)
		if p.Rank() == victim {
			if !fault.IsCrashed(err) {
				t.Errorf("victim got %v", err)
			}
			return nil
		}
		if !IsRankFailure(err) {
			return fmt.Errorf("rank %d: expected rank failure, got %v", p.Rank(), err)
		}
		nc, err := comm.Shrink()
		if err != nil {
			return err
		}
		nb := make([]byte, size)
		if nc.Rank() == 0 {
			copy(nb, pattern(0, size))
		}
		if err := nc.Bcast(nb, 0, Adaptive); err != nil {
			return err
		}
		if !bytes.Equal(nb, pattern(0, size)) {
			return fmt.Errorf("rank %d: shrunken adaptive bcast wrong", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivors failed: %v", err)
	}
	st := w.PlanCache().Stats()
	if st.Invalidations == 0 {
		t.Errorf("no plan invalidated by failure/Shrink; stats %+v", st)
	}
	if st.Misses < 2 {
		t.Errorf("misses = %d, want ≥ 2 (parent plan + survivor recompile)", st.Misses)
	}
}

// TestAdaptiveSelectorOverride: a world built with an explicit selector
// must consult it instead of the shipped tables.
func TestAdaptiveSelectorOverride(t *testing.T) {
	b, err := binding.Contiguous(hwtopo.NewZoot(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(trace.DefaultRingCapacity)
	w := NewWorld(b, WithTracer(trace.New(ring)), WithSelector(nil), WithPlanCacheCapacity(4))
	if w.PlanCache().Capacity() != 4 {
		t.Errorf("plan cache capacity = %d, want 4", w.PlanCache().Capacity())
	}
	const size = 64 << 10
	err = w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, pattern(0, size))
		}
		return p.Comm().Bcast(buf, 0, Adaptive)
	})
	if err != nil {
		t.Fatal(err)
	}
	// WithSelector(nil) keeps the default, which on Zoot resolves from the
	// shipped table; the event's decision string proves the selector ran.
	events := trace.Filter(ring.Events(), trace.KindPlanCache)
	if len(events) != 1 || events[0].Det != "knemcoll/linear" {
		t.Fatalf("plan_cache events = %+v, want one knemcoll/linear decision", events)
	}
}

// TestFixedAndAdaptiveShareOnePlan: a fixed component is the decision that
// names only that component, keyed like any other, so an Adaptive call
// whose selector answers the same decision at the same (root, size) is
// served the fixed call's schedule instead of compiling it again — and an
// Adaptive call on a collective the selector does not decide is still an
// error, not a silent default.
func TestFixedAndAdaptiveShareOnePlan(t *testing.T) {
	const n, size = 16, 512
	b, err := binding.CrossSocket(hwtopo.NewIG(), n)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(trace.DefaultRingCapacity)
	w := NewWorld(b, WithTracer(trace.New(ring)))
	err = w.Run(func(p *Proc) error {
		for _, comp := range []Component{Tuned, Adaptive} {
			buf := make([]byte, size)
			if p.Rank() == 2 {
				copy(buf, pattern(2, size))
			}
			if err := p.Comm().Bcast(buf, 2, comp); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(2, size)) {
				return fmt.Errorf("rank %d: wrong %v bcast data", p.Rank(), comp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events := trace.Filter(ring.Events(), trace.KindPlanCache)
	if len(events) != 1 || events[0].Det != tune.ComponentTuned || events[0].Mode != "hit" {
		t.Fatalf("plan_cache events = %+v, want one: Adaptive selecting tuned, a hit", events)
	}
	if st := w.PlanCache().Stats(); st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Errorf("plan cache after fixed tuned + adaptive(tuned): %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	err = w.Run(func(p *Proc) error {
		return p.Comm().Gather(make([]byte, 64), make([]byte, n*64), 0, Adaptive)
	})
	if err == nil || !strings.Contains(err.Error(), "unknown component adaptive") {
		t.Errorf("Adaptive gather returned %v, want the unknown-component error", err)
	}
}
