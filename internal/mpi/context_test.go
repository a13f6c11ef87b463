package mpi

import (
	"bytes"
	"context"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/plancache"
)

// noWatchdogWorld builds a world with the watchdog DISABLED, so the only
// thing bounding a stuck rendezvous is the caller's context — exactly
// the hole the context plumbing closes.
func noWatchdogWorld(t *testing.T, n int) *World {
	t.Helper()
	b, err := binding.CrossSocket(hwtopo.NewIG(), n)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(b, WithFault(fault.Plan{}))
}

// TestAgreeContextStuckRendezvous: one member never calls Agree and is
// never marked failed, so the round can never close. Without a watchdog
// the callers would block forever; the context deadline turns the wedge
// into a HangError.
func TestAgreeContextStuckRendezvous(t *testing.T) {
	w := noWatchdogWorld(t, 3)
	errs := make([]error, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return nil // never arrives, never dies: a true wedge
		}
		_, errs[p.Rank()] = p.Comm().AgreeContext(ctx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1} {
		if !IsHang(errs[r]) {
			t.Errorf("rank %d: got %v, want HangError from expired context", r, errs[r])
		}
	}
}

// TestShrinkContextStuck: after a failure, one survivor calls
// ShrinkContext while the other never does. The agreement inside Shrink
// cannot close (the absent survivor is alive), so the context deadline
// must surface as a HangError instead of an unbounded block.
func TestShrinkContextStuck(t *testing.T) {
	w := noWatchdogWorld(t, 3)
	var got error
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			w.MarkFailed(2)
			_, got = p.Comm().ShrinkContext(ctx)
		default: // rank 1 never shrinks; rank 2 plays dead
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !IsHang(got) {
		t.Errorf("ShrinkContext on a wedged communicator: got %v, want HangError", got)
	}
}

// TestCoordinateCtxStuckRecoveryRendezvous drives the recovery
// rendezvous primitive directly: a coordinateCtx waiter whose peers
// never arrive gets a HangError when its context expires, leaving its
// deposited value in place so the rendezvous could still close later.
func TestCoordinateCtxStuckRecoveryRendezvous(t *testing.T) {
	w := noWatchdogWorld(t, 2)
	var got error
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			got = p.Comm().run(ctx, collArgs{d: &barrier})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !IsHang(got) {
		t.Errorf("coordinateCtx: got %v, want HangError from expired context", got)
	}
}

// TestAgreeContextCompletes: a generous context does not disturb the
// normal agreement path.
func TestAgreeContextCompletes(t *testing.T) {
	w := noWatchdogWorld(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w.MarkFailed(2)
	results := make([][]int, 3)
	if err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return nil
		}
		var err error
		results[p.Rank()], err = p.Comm().AgreeContext(ctx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{0, 1} {
		if len(results[r]) != 1 || results[r][0] != 2 {
			t.Errorf("rank %d agreed %v, want [2]", r, results[r])
		}
	}
}

// TestSetE2EDigestsGate: the brownout gate drops end-to-end digest
// attachment (collectives still complete and deliver correct data) and
// re-arming restores it. The gate is observable through the integrity
// checker's digest-verification counter.
func TestSetE2EDigestsGate(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 4)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithIntegrity(integrity.Config{}), WithOpDeadline(2*time.Second))
	if !w.e2eEnabled() {
		t.Fatal("e2e digests should start enabled on an integrity-armed world")
	}
	w.SetE2EDigests(false)
	if w.e2eEnabled() {
		t.Fatal("SetE2EDigests(false) did not gate")
	}
	want := pattern(0, 2048)
	run := func() {
		t.Helper()
		if err := w.Run(func(p *Proc) error {
			buf := make([]byte, 2048)
			if p.Rank() == 0 {
				copy(buf, want)
			}
			if err := p.Comm().Bcast(buf, 0, KNEMColl); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("rank %d: payload mismatch under digest brownout", p.Rank())
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	w.SetE2EDigests(true)
	if !w.e2eEnabled() {
		t.Fatal("SetE2EDigests(true) did not re-arm")
	}
	run()
	// A world without integrity is unaffected by the gate either way.
	plain := noWatchdogWorld(t, 2)
	plain.SetE2EDigests(true)
	if plain.e2eEnabled() {
		t.Error("e2eEnabled() true on a world without WithIntegrity")
	}
}

// TestSharedPlanCacheTenantIsolation: two worlds with IDENTICAL process
// placements (same topology fingerprint) share one sharded cache under
// different tenant tags. Freeing one world's communicator must not drop
// the other's compiled plans — the cross-tenant invalidation hazard the
// tenant tag exists to prevent.
func TestSharedPlanCacheTenantIsolation(t *testing.T) {
	shared := plancache.NewSharded(64, 4, nil)
	mk := func(tenant uint64) *World {
		b, err := binding.CrossSocket(hwtopo.NewIG(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return NewWorld(b, WithPlanCache(shared), WithTenant(tenant),
			WithOpDeadline(2*time.Second))
	}
	w1, w2 := mk(1), mk(2)
	bcast := func(w *World) {
		t.Helper()
		if err := w.Run(func(p *Proc) error {
			return p.Comm().Bcast(make([]byte, 4096), 0, Adaptive)
		}); err != nil {
			t.Fatal(err)
		}
	}
	bcast(w1)
	bcast(w2)
	for _, tenant := range []uint64{1, 2} {
		if ts := shared.TenantStats(tenant); ts.Resident == 0 {
			t.Fatalf("tenant %d cached no plans", tenant)
		}
	}
	// Tenant 1 frees its communicator: tenant 2's identical-topology
	// plans must survive.
	w1.worldComm.invalidatePlans()
	if ts := shared.TenantStats(1); ts.Resident != 0 {
		t.Errorf("tenant 1 still resident after free: %d", ts.Resident)
	}
	if ts := shared.TenantStats(2); ts.Resident == 0 {
		t.Error("tenant 2's plans were dropped by tenant 1's invalidation")
	}
	// And a re-run on tenant 2 hits its surviving plans.
	bcast(w2)
	if ts := shared.TenantStats(2); ts.Hits == 0 {
		t.Error("tenant 2 re-run missed its own surviving plans")
	}
}
