package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/recovery"
	"distcoll/internal/trace"
	"distcoll/internal/trace/check"
)

// recoveryWorld builds a zoot contiguous world with tracing, integrity
// verification and a watchdog — the full robustness stack the incremental
// recovery path runs under in production.
func recoveryWorld(t *testing.T, n int, plan fault.Plan) (*World, *trace.RingSink, *trace.Tracer) {
	t.Helper()
	b, err := binding.Contiguous(hwtopo.NewZoot(), n)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(0)
	tr := trace.New(ring)
	w := NewWorld(b,
		WithFault(plan),
		WithTracer(tr),
		WithIntegrity(integrity.Config{}),
		WithOpDeadline(5*time.Second))
	return w, ring, tr
}

// TestBcastDeltaRepairSavesBytes is the acceptance scenario: 16 ranks, a
// 256 KiB pipelined broadcast (16 chunks), and a victim crash-injected at
// chunk 12 — after ≥ 75% of its chunks were delivered. The survivors must
// recover via a delta repair plan whose trace-verified payload bytes are
// strictly less than the full-restart baseline, while still delivering
// the exact oracle payload everywhere.
func TestBcastDeltaRepairSavesBytes(t *testing.T) {
	const (
		n    = 16
		size = 256 << 10
		// Rank 8 is an interior node of the zoot broadcast tree (children 9
		// and 10, grandchild 11): its death strands only the tail chunks of
		// its subtree, which is exactly the partial-progress shape delta
		// repair exists for.
		victim = 8
		// 16 pipeline chunks at this size; crash at the 13th op → 12 chunks
		// (75%) already pulled by the victim and forwarded downstream.
		crashOp = 12
	)
	w, ring, tr := recoveryWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: crashOp}})
	want := pattern(0, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		nc, err := p.Comm().BcastResilient(buf, 0, KNEMColl)
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
			t.Errorf("rank %d: recovered comm size = %d, want %d", p.Rank(), nc.Size(), n-1)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: recovered payload corrupted", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mx := tr.Metrics()
	if repairs := mx.Counter("recovery.repairs").Load(); repairs < 1 {
		t.Fatalf("recovery.repairs = %d, want ≥ 1 (restarts %d)", repairs, mx.Counter("recovery.restarts").Load())
	}
	saved := mx.Counter("recovery.bytes_saved").Load()
	if saved <= 0 {
		t.Fatalf("recovery.bytes_saved = %d, want > 0", saved)
	}

	// Trace-verified byte accounting: the repair plan's executed copy
	// events must sum to strictly less than the full-restart baseline the
	// recovery event recorded, and match the moved bytes it claimed.
	events := ring.Events()
	var repairBytes int64
	for _, e := range trace.FilterOp(events, trace.KindCopy, "bcast.repair") {
		repairBytes += e.Bytes
	}
	recs := trace.Filter(events, trace.KindRecovery)
	if len(recs) == 0 {
		t.Fatal("no recovery events traced")
	}
	var moved, full int64
	for _, e := range recs {
		if e.Mode == "repair" && e.Op == "bcast" {
			moved = e.Bytes
			var s int64
			if _, err := fmt.Sscanf(e.Det, "full=%d saved=%d", &full, &s); err != nil {
				t.Fatalf("unparseable recovery detail %q: %v", e.Det, err)
			}
		}
	}
	if repairBytes == 0 || repairBytes != moved {
		t.Errorf("repair copy events sum to %d bytes, recovery event claims %d", repairBytes, moved)
	}
	if repairBytes >= full {
		t.Errorf("repair moved %d bytes, not less than the %d-byte restart baseline", repairBytes, full)
	}

	// The metrics registry must agree with the event stream, recovery
	// counters included.
	if r := check.VerifyMetrics(mx, events); !r.OK() {
		t.Errorf("metrics cross-check failed:\n%s", r.String())
	}
}

// TestAllgatherDeltaRepairServesHeldSegments is the segment-ownership
// coverage: a victim dies late in the ring, after most blocks — including
// blocks it forwarded on behalf of other origins — already landed on the
// survivors. Recovery must shrink, keep every held segment (the ledger
// records possession, not provenance), repair only the missing ones, and
// deliver the exact per-origin oracle blocks in the survivors' layout.
func TestAllgatherDeltaRepairServesHeldSegments(t *testing.T) {
	const (
		n      = 8
		block  = 8 << 10
		victim = 3
		// n ops per rank (local + n-1 ring pulls); crash at op 6 of 8.
		crashOp = 6
	)
	w, _, tr := recoveryWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: crashOp}})
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
			t.Errorf("rank %d: recovered comm size = %d, want %d", p.Rank(), nc.Size(), n-1)
		}
		for r := 0; r < nc.Size(); r++ {
			blk := out[r*block : (r+1)*block]
			if !bytes.Equal(blk, pattern(nc.WorldRank(r), block)) {
				t.Errorf("rank %d: block %d (world rank %d) corrupted", p.Rank(), r, nc.WorldRank(r))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mx := tr.Metrics()
	if repairs := mx.Counter("recovery.repairs").Load(); repairs < 1 {
		t.Fatalf("recovery.repairs = %d, want ≥ 1 (restarts %d)", repairs, mx.Counter("recovery.restarts").Load())
	}
	if saved := mx.Counter("recovery.bytes_saved").Load(); saved <= 0 {
		t.Fatalf("recovery.bytes_saved = %d, want > 0", saved)
	}
}

// TestRetryBudgetBounds is the satellite regression for the in-place
// rung: a persistent end-to-end mismatch with no deaths must exhaust an
// EXPLICIT budget with exponential backoff, not loop forever.
func TestRetryBudgetBounds(t *testing.T) {
	b := newRetryBudget(7)
	cause := &CorruptionError{Src: 1, Dst: 2, Chunk: -1, EndToEnd: true}
	prev := b.backoff
	for i := 0; i < MaxInPlaceRetries; i++ {
		if err := b.spend(context.Background(), "bcast", cause); err != nil {
			t.Fatalf("retry %d rejected within budget: %v", i+1, err)
		}
		if b.backoff != prev*2 {
			t.Fatalf("retry %d: backoff = %v, want doubled %v", i+1, b.backoff, prev*2)
		}
		prev = b.backoff
	}
	err := b.spend(context.Background(), "bcast", cause)
	if err == nil {
		t.Fatal("budget never exhausted")
	}
	if !strings.Contains(err.Error(), "retry budget") || !IsCorruption(err) {
		t.Fatalf("exhaustion error %q should name the budget and wrap the cause", err)
	}
}

// TestRetryBudgetJitterDeterministic pins the seeded jitter: the same
// seed replays the exact sleep sequence (reproducible tests), different
// seeds decorrelate, and every delay stays within [base/2, base).
func TestRetryBudgetJitterDeterministic(t *testing.T) {
	seq := func(seed uint64) []time.Duration {
		b := newRetryBudget(seed)
		var out []time.Duration
		base := inPlaceRetryBackoff
		for i := 0; i < MaxInPlaceRetries; i++ {
			d := b.next()
			b.used++
			if d < base/2 || d >= base {
				t.Fatalf("seed %d attempt %d: delay %v outside [%v, %v)", seed, i, d, base/2, base)
			}
			out = append(out, d)
			base *= 2
		}
		return out
	}
	a1, a2 := seq(42), seq(42)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, a1[i], a2[i])
		}
	}
	diff := false
	for i, d := range seq(43) {
		if d != a1[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical jitter sequences")
	}
}

// TestRetryBudgetCancelPromptly is the satellite regression for the
// uncancelable-backoff fix: a context canceled mid-backoff must abort the
// sleep promptly instead of serving out the full exponential delay.
func TestRetryBudgetCancelPromptly(t *testing.T) {
	b := newRetryBudget(1)
	b.backoff = 5 * time.Second // without the fix this test takes seconds
	cause := &CorruptionError{Src: 1, Dst: 2, Chunk: -1, EndToEnd: true}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := b.spend(ctx, "bcast", cause)
	if err == nil {
		t.Fatal("spend returned nil after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("spend error %q should wrap context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff sleep was not interrupted", el)
	}
}

// TestRetryInPlaceClassification pins the ladder's first-rung predicate:
// only a corruption verdict with no dead members retries in place.
func TestRetryInPlaceClassification(t *testing.T) {
	w, _, _ := recoveryWorld(t, 4, fault.Plan{})
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		if p.Rank() != 0 {
			return nil
		}
		e2e := &CorruptionError{Src: 1, Dst: 2, Chunk: -1, EndToEnd: true}
		if !retryInPlace(c, e2e) {
			t.Error("e2e corruption with no deaths should retry in place")
		}
		if retryInPlace(c, &RankFailureError{Failed: []int{3}}) {
			t.Error("rank failure must never retry in place")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLedgerRaceUnderMidOpFailure is the concurrency half of the
// satellite race test at the runtime level: two victims crash at
// different chunk offsets while every survivor's completion hooks are
// concurrently marking chunks into the ledgers and the recovery control
// path snapshots and merges them. Run under -race (CI does) this catches
// any unsynchronized access between the exec layer and recovery.
func TestLedgerRaceUnderMidOpFailure(t *testing.T) {
	const (
		n    = 12
		size = 128 << 10
	)
	w, _, tr := recoveryWorld(t, n, fault.Plan{CrashAtOp: map[int]int{5: 6, 8: 3}})
	want := pattern(0, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		nc, err := p.Comm().BcastResilient(buf, 0, KNEMColl)
		if p.Rank() == 5 || p.Rank() == 8 {
			if !fault.IsCrashed(err) {
				t.Errorf("victim %d got %v, want CrashError", p.Rank(), err)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: recovered payload corrupted", p.Rank())
		}
		_ = nc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mx := tr.Metrics()
	if got := mx.Counter("recovery.repairs").Load() + mx.Counter("recovery.restarts").Load(); got < 1 {
		t.Fatalf("no recovery decisions traced (repairs+restarts = %d)", got)
	}
}

// TestCompactRecvPreservesHeldSegments pins the post-shrink layout fix:
// held blocks move to their new (smaller) indices and are held THERE, unheld
// slots are neither copied around nor inherit a stale mark from the block
// that used to sit at their offset.
func TestCompactRecvPreservesHeldSegments(t *testing.T) {
	const block = 4
	oldGroup := []int{0, 1, 2, 3, 4}
	newGroup := []int{0, 2, 3, 4} // world rank 1 died
	recv := []byte{
		0, 0, 0, 0, // origin 0's block
		1, 1, 1, 1, // origin 1's (dead)
		2, 2, 2, 2, // origin 2's
		9, 9, 9, 9, // origin 3's: not landed yet
		4, 4, 4, 4, // origin 4's
	}
	led := recovery.NewChunkLedger(int64(len(recv)))
	for _, o := range []int64{0, 1, 2, 4} {
		led.MarkHeld(o*block, block)
	}
	a := &collArgs{d: &collectives[opAllgather], send: make([]byte, block), recv: recv, led: led}
	if err := a.reseat(oldGroup, newGroup, 1); err != nil {
		t.Fatal(err)
	}
	if len(a.recv) != len(newGroup)*block || a.led.Size() != int64(len(a.recv)) {
		t.Errorf("recv is %d bytes and the ledger covers %d after compaction, want %d",
			len(a.recv), a.led.Size(), len(newGroup)*block)
	}
	if !bytes.Equal(recv[0:4], []byte{0, 0, 0, 0}) {
		t.Errorf("origin 0 block moved: %v", recv[0:4])
	}
	if !bytes.Equal(recv[4:8], []byte{2, 2, 2, 2}) {
		t.Errorf("origin 2 block not compacted to index 1: %v", recv[4:8])
	}
	if !bytes.Equal(recv[12:16], []byte{4, 4, 4, 4}) {
		t.Errorf("origin 4 block not compacted to index 3: %v", recv[12:16])
	}
	// Index 2 is origin 3's slot now. The old layout held origin 2's block at
	// that offset; origin 3's never landed, so the slot must read as missing.
	for ni, want := range []bool{true, true, false, true} {
		if got := a.led.Holds(int64(ni*block), block); got != want {
			t.Errorf("after compaction Holds(index %d) = %v, want %v (spans %v)", ni, got, want, a.led.Spans())
		}
	}
}
