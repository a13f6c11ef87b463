package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/trace"
)

// faultWorld builds a cross-socket world with a fault plan and a watchdog,
// so no test in this file can hang: every blocking point has a deadline.
func faultWorld(t *testing.T, n int, plan fault.Plan, opts ...Option) *World {
	t.Helper()
	b, err := binding.CrossSocket(hwtopo.NewIG(), n)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]Option{WithFault(plan), WithOpDeadline(2 * time.Second)}, opts...)
	return NewWorld(b, all...)
}

// TestBcastSurvivesRankCrash is the tentpole acceptance test: a non-root
// rank is crash-injected mid-broadcast; the survivors detect the failure,
// shrink the communicator, rebuild the distance-aware tree over the
// survivors, and the re-executed broadcast delivers the full payload.
func TestBcastSurvivesRankCrash(t *testing.T) {
	const (
		n      = 8
		root   = 2
		victim = 5
		size   = 4096
	)
	w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 0}})
	want := pattern(root, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == root {
			copy(buf, want)
		}
		nc, err := p.Comm().BcastResilient(buf, root, KNEMColl)
		if p.Rank() == victim {
			if !fault.IsCrashed(err) {
				t.Errorf("victim got %v, want CrashError", err)
			}
			return nil // a dead rank does not recover
		}
		if err != nil {
			return err
		}
		if nc.Size() != n-1 {
			t.Errorf("rank %d: recovered comm size = %d, want %d", p.Rank(), nc.Size(), n-1)
		}
		for r := 0; r < nc.Size(); r++ {
			if nc.WorldRank(r) == victim {
				t.Errorf("rank %d: victim still in recovered comm", p.Rank())
			}
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: broadcast payload wrong after recovery", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivors failed: %v", err)
	}
	if got := w.Failed(); len(got) != 1 || got[0] != victim {
		t.Fatalf("Failed() = %v, want [%d]", w.Failed(), victim)
	}
	if st := w.Injector().Stats(); st.Crashes == 0 {
		t.Fatal("no crash was injected")
	}
}

// TestAllgatherSurvivesRankCrash crash-injects a rank mid-allgather (after
// it completed one ring step, so the failure hits in the middle of the
// dependency chain); survivors shrink and the rebuilt distance-aware ring
// gathers every survivor's block in shrunken rank order.
func TestAllgatherSurvivesRankCrash(t *testing.T) {
	const (
		n      = 8
		victim = 3
		block  = 512
	)
	w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 1}})
	err := w.Run(func(p *Proc) error {
		send := pattern(p.Rank(), block)
		recv := make([]byte, n*block)
		nc, out, err := p.Comm().AllgatherResilient(send, recv, KNEMColl)
		if p.Rank() == victim {
			if !fault.IsCrashed(err) {
				t.Errorf("victim got %v, want CrashError", err)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if nc.Size() != n-1 {
			t.Errorf("rank %d: recovered comm size = %d", p.Rank(), nc.Size())
		}
		if len(out) != (n-1)*block {
			t.Errorf("rank %d: result is %d bytes, want %d", p.Rank(), len(out), (n-1)*block)
		}
		for r := 0; r < nc.Size(); r++ {
			want := pattern(nc.WorldRank(r), block)
			if !bytes.Equal(out[r*block:(r+1)*block], want) {
				t.Errorf("rank %d: block %d (world rank %d) wrong after recovery",
					p.Rank(), r, nc.WorldRank(r))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivors failed: %v", err)
	}
}

// TestBcastRetriesTransientCopyFailures: with a bounded budget of injected
// transient KNEM failures, the retry-with-backoff path converges and the
// broadcast still delivers correct data.
func TestBcastRetriesTransientCopyFailures(t *testing.T) {
	const (
		n    = 8
		size = 2048
	)
	w := faultWorld(t, n, fault.Plan{Seed: 42, CopyFailProb: 0.9, MaxTransients: 30})
	want := pattern(0, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		if err := p.Comm().Bcast(buf, 0, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: payload wrong", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Injector().Stats(); st.Transients == 0 {
		t.Fatal("no transient failures were injected; test proves nothing")
	}
}

// TestRecvWatchdogDetectsDroppedMessage: every message from 0 to 1 is
// dropped in transit; the receiver's watchdog must turn the resulting
// silent hang into a HangError whose dump names the blocked operation.
func TestRecvWatchdogDetectsDroppedMessage(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithFault(fault.Plan{DropProb: 1}), WithOpDeadline(100*time.Millisecond))
	err = w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			return p.Send(1, 7, []byte("doomed"))
		}
		_, err := p.Recv(0, 7)
		return err
	})
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want HangError", err)
	}
	if he.Rank != 1 || !strings.Contains(he.Op, "recv(src=0") {
		t.Errorf("HangError names %q on rank %d", he.Op, he.Rank)
	}
	if !strings.Contains(he.Dump, "rank 1 in recv") {
		t.Errorf("dump does not name the blocked rank: %q", he.Dump)
	}
	if w.Injector().Stats().Drops == 0 {
		t.Error("no drops recorded")
	}
}

// TestCollectiveWatchdogDumpsPendingOps: a straggler rank stalls past the
// op deadline without failing; ranks blocked on its schedule operations
// must report a HangError carrying the pending-op diagnostic instead of
// deadlocking.
func TestCollectiveWatchdogDumpsPendingOps(t *testing.T) {
	const n = 4
	w := faultWorld(t, n, fault.Plan{SlowRanks: map[int]time.Duration{1: 400 * time.Millisecond}},
		WithOpDeadline(80*time.Millisecond))
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, 1024)
		return p.Comm().Bcast(buf, 0, KNEMColl)
	})
	if err == nil {
		t.Fatal("no error despite straggler exceeding the deadline")
	}
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want a HangError in the aggregate", err)
	}
	if !strings.Contains(err.Error(), "hung in") {
		t.Errorf("aggregate error lacks hang diagnostics: %v", err)
	}
}

// TestSlowRankUnderDeadlineCompletes pins the benign side of the
// straggler × watchdog interaction: a rank whose per-op stall stays
// under the op deadline slows the collective but must never trip the
// watchdog — the broadcast completes and delivers intact data.
func TestSlowRankUnderDeadlineCompletes(t *testing.T) {
	const (
		n    = 4
		size = 2048
	)
	w := faultWorld(t, n, fault.Plan{SlowRanks: map[int]time.Duration{1: 20 * time.Millisecond}},
		WithOpDeadline(1*time.Second))
	want := pattern(0, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		if err := p.Comm().Bcast(buf, 0, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return errors.New("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("straggler under the deadline must not fail the collective: %v", err)
	}
}

// TestSlowRankOverDeadlineNamesStraggler pins the diagnostic side: a
// stall that exceeds the op deadline must surface as a HangError whose
// pending-op dump names the slow rank, so an operator reading the dump
// can tell WHICH rank wedged the collective. The straggler is rank 4 —
// the second socket's relay in the 8-rank cross-socket tree — so its
// subtree's pulls depend on its op and the hang fires in awaitDeps,
// carrying the schedule dump (a slow LEAF instead parks the others at
// the finish rendezvous, whose dump lists only blocked ranks).
func TestSlowRankOverDeadlineNamesStraggler(t *testing.T) {
	const (
		n    = 8
		slow = 4
	)
	w := faultWorld(t, n, fault.Plan{SlowRanks: map[int]time.Duration{slow: 400 * time.Millisecond}},
		WithOpDeadline(60*time.Millisecond))
	errs := make([]error, n)
	var mu sync.Mutex
	w.Run(func(p *Proc) error {
		err := p.Comm().Bcast(make([]byte, 4096), 0, KNEMColl)
		mu.Lock()
		errs[p.Rank()] = err
		mu.Unlock()
		return err
	})
	found := false
	for r, err := range errs {
		var he *HangError
		if !errors.As(err, &he) {
			continue
		}
		found = true
		if strings.Contains(he.Dump, fmt.Sprintf("rank %d:", slow)) {
			return // dump's pending-op section names the straggler
		}
		t.Logf("rank %d hang dump does not name rank %d: %q", r, slow, he.Dump)
	}
	if !found {
		t.Fatal("no rank reported a HangError despite the straggler exceeding the deadline")
	}
	t.Fatalf("no HangError dump named the slow rank %d", slow)
}

// TestSendTimeoutOnFullMailbox is the satellite fix for the silent
// 64-slot blocking send: with a small mailbox and an unresponsive
// receiver, the overflowing send fails with a SendTimeoutError naming the
// blocked pair and the capacity.
func TestSendTimeoutOnFullMailbox(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b, WithMailboxCapacity(2), WithSendTimeout(50*time.Millisecond))
	err = w.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			return nil // never receives
		}
		for i := 0; i < 2; i++ {
			if err := p.Send(1, 1, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return p.Send(1, 1, []byte{99})
	})
	var ste *SendTimeoutError
	if !errors.As(err, &ste) {
		t.Fatalf("got %v, want SendTimeoutError", err)
	}
	if ste.Src != 0 || ste.Dst != 1 || ste.Capacity != 2 {
		t.Errorf("SendTimeoutError = %+v, want src 0, dst 1, capacity 2", ste)
	}
}

// TestRunAggregatesAllRankErrors is the satellite fix for Run discarding
// all but the first error: every failing rank must appear in the join.
func TestRunAggregatesAllRankErrors(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	sentinel1 := errors.New("boom one")
	sentinel3 := errors.New("boom three")
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 1:
			return sentinel1
		case 3:
			return sentinel3
		default:
			return nil
		}
	})
	if !errors.Is(err, sentinel1) || !errors.Is(err, sentinel3) {
		t.Fatalf("join lost an error: %v", err)
	}
	for _, want := range []string{"rank 1:", "rank 3:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate error lacks %q: %v", want, err)
		}
	}
}

// TestBrokenCommFailsFastAndShrinkRecovers: after a failure breaks the
// communicator, further collectives on it fail immediately (ULFM
// semantics), while the shrunken communicator keeps working for every
// collective kind.
func TestBrokenCommFailsFastAndShrinkRecovers(t *testing.T) {
	const (
		n      = 6
		victim = 4
	)
	w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 0}})
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		buf := make([]byte, 256)
		err := comm.Bcast(buf, 0, KNEMColl)
		if p.Rank() == victim {
			if !fault.IsCrashed(err) {
				t.Errorf("victim got %v", err)
			}
			return nil
		}
		if !IsRankFailure(err) {
			return err
		}
		if !comm.Broken() {
			t.Errorf("rank %d: comm not marked broken", p.Rank())
		}
		// Fail-fast: the broken communicator refuses further collectives.
		if err := comm.Barrier(); !IsRankFailure(err) {
			t.Errorf("rank %d: barrier on broken comm returned %v", p.Rank(), err)
		}
		nc, err := comm.Shrink()
		if err != nil {
			return err
		}
		// The healed communicator runs the full collective suite.
		send := pattern(p.Rank(), 64)
		recv := make([]byte, nc.Size()*64)
		if err := nc.Allgather(send, recv, KNEMColl); err != nil {
			return err
		}
		for r := 0; r < nc.Size(); r++ {
			if !bytes.Equal(recv[r*64:(r+1)*64], pattern(nc.WorldRank(r), 64)) {
				t.Errorf("rank %d: allgather block %d wrong on shrunken comm", p.Rank(), r)
			}
		}
		if err := nc.Barrier(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivors failed: %v", err)
	}
}

// TestShrunkenTopologyMatchesSurvivorPlacement: the shrunken
// communicator's distance-aware tree must be a genuine rebuild over the
// survivors, not a patched copy of the old one: the copies a broadcast on
// it actually executes are exactly the edges of the distance-aware tree of
// a fresh communicator on the survivors' cores.
func TestShrunkenTopologyMatchesSurvivorPlacement(t *testing.T) {
	const (
		n      = 8
		victim = 6
	)
	ring := trace.NewRing(trace.DefaultRingCapacity)
	w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 0}}, WithTracer(trace.New(ring)))
	err := w.Run(func(p *Proc) error {
		nc, err := p.Comm().BcastResilient(make([]byte, 128), 0, KNEMColl)
		if p.Rank() == victim {
			return nil
		}
		if err != nil {
			return err
		}
		// The recovered broadcast may have been a delta repair; a second,
		// single-chunk one runs the shrunken communicator's full tree.
		return nc.Bcast(make([]byte, 256), 0, KNEMColl)
	})
	if err != nil {
		t.Fatalf("survivors failed: %v", err)
	}
	var cores []int
	for r := 0; r < n; r++ {
		if r != victim {
			cores = append(cores, w.bind.CoreOf(r))
		}
	}
	fresh, err := distance.NewClustered(w.Topology(), cores)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.TreeFor(fresh, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("rebuilt tree invalid: %v", err)
	}
	want := make(map[[2]int]bool)
	for r, parent := range tree.Parent {
		if r != 0 {
			want[[2]int{parent, r}] = true
		}
	}
	// The last broadcast plan traced is the one on the shrunken communicator.
	var last int64
	got := make(map[[2]int]bool)
	for _, e := range trace.Filter(ring.Events(), trace.KindCopy) {
		if e.Op != "bcast" || e.Plan < last {
			continue
		}
		if e.Plan > last {
			last, got = e.Plan, make(map[[2]int]bool)
		}
		got[[2]int{e.Src, e.Dst}] = true
	}
	if len(got) != n-2 || !reflect.DeepEqual(got, want) {
		t.Errorf("shrunken bcast copied over %v, want the %d edges of the survivors' tree %v", got, n-2, want)
	}
}
