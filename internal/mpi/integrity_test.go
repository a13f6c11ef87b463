package mpi

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"distcoll/internal/fault"
	"distcoll/internal/integrity"
)

// TestBcastIntegrityRecoversCorruption: with a high per-copy corruption
// probability, the per-hop checksum layer detects every flipped byte and
// the bounded re-pulls converge to a clean delivery — the broadcast
// completes with byte-identical payloads everywhere.
func TestBcastIntegrityRecoversCorruption(t *testing.T) {
	const (
		n    = 8
		size = 4096
	)
	w := faultWorld(t, n, fault.Plan{Seed: 7, CorruptProb: 0.4},
		WithIntegrity(integrity.Config{Repulls: 10}))
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
			t.Errorf("rank %d: corrupted payload delivered despite integrity", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Injector().Stats().Corruptions == 0 {
		t.Fatal("no corruption was injected; test proves nothing")
	}
	st := w.Integrity().Stats()
	if st.Mismatches == 0 || st.Recovered == 0 {
		t.Errorf("integrity stats show no recovery work: %+v", st)
	}
	if st.E2EFailures != 0 {
		t.Errorf("end-to-end digest failed even though every hop verified: %+v", st)
	}
}

// TestBcastWithoutIntegrityDeliversCorruptedData is the control for the
// acceptance criterion: the same fault plan and seed, with integrity
// disabled, demonstrably delivers corrupted payloads.
func TestBcastWithoutIntegrityDeliversCorruptedData(t *testing.T) {
	const (
		n    = 8
		size = 4096
	)
	w := faultWorld(t, n, fault.Plan{Seed: 7, CorruptProb: 0.4})
	want := pattern(0, size)
	var mu sync.Mutex
	corrupted := 0
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		if err := p.Comm().Bcast(buf, 0, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			mu.Lock()
			corrupted++
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no rank saw corrupted data; the integrity layer has nothing to defend against")
	}
}

// TestAllgatherIntegrityRecoversCorruption: the ring pipeline forwards
// chunks through every rank, so an uncaught flip would propagate; with
// integrity on, every segment arrives clean and the end-to-end segment
// digests all verify.
func TestAllgatherIntegrityRecoversCorruption(t *testing.T) {
	const (
		n     = 6
		block = 1024
	)
	w := faultWorld(t, n, fault.Plan{Seed: 11, CorruptProb: 0.4},
		WithIntegrity(integrity.Config{Repulls: 10}))
	err := w.Run(func(p *Proc) error {
		send := pattern(p.Rank(), block)
		recv := make([]byte, n*block)
		if err := p.Comm().Allgather(send, recv, KNEMColl); err != nil {
			return err
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r, block)) {
				t.Errorf("rank %d: block %d corrupted despite integrity", p.Rank(), r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Integrity().Stats().Mismatches == 0 {
		t.Error("no mismatch detected; corruption probability too low for this seed")
	}
}

// TestPersistentCorruptionMarksPeerFailed: when every pull of a chunk is
// corrupted (CorruptProb 1), the re-pull budget runs out, the source is
// declared corrupting, and the puller surfaces a CorruptionError that
// breaks the communicator — corruption degrades to the rank-failure
// machinery instead of delivering bad data.
func TestPersistentCorruptionMarksPeerFailed(t *testing.T) {
	w := faultWorld(t, 2, fault.Plan{CorruptProb: 1},
		WithIntegrity(integrity.Config{Repulls: 3}))
	want := pattern(0, 512)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, 512)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		err := p.Comm().Bcast(buf, 0, KNEMColl)
		if p.Rank() != 1 {
			return nil // the root's outcome depends on wait ordering
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("rank 1 got %v, want CorruptionError", err)
		}
		if ce.Src != 0 || ce.Dst != 1 || ce.EndToEnd {
			t.Errorf("CorruptionError = %+v, want per-hop failure on edge 0→1", ce)
		}
		if ce.Attempts != 4 { // 1 initial pull + 3 re-pulls
			t.Errorf("Attempts = %d, want 4", ce.Attempts)
		}
		if !IsCorruption(err) {
			t.Error("IsCorruption does not recognise the error")
		}
		if !p.Comm().Broken() {
			t.Error("communicator not broken after persistent corruption")
		}
		return nil
	})
	_ = err // the root may legitimately observe the induced failure
	if !w.Integrity().IsCorrupting(0) {
		t.Error("rank 0 not marked corrupting")
	}
	st := w.Integrity().Stats()
	if st.Persistent == 0 || st.Repulls < 3 {
		t.Errorf("stats do not reflect an exhausted re-pull budget: %+v", st)
	}
	found := false
	for _, r := range w.Failed() {
		if r == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupting rank 0 not in Failed() = %v", w.Failed())
	}
}

// TestEndToEndDigestVerification exercises the digest backstop directly:
// a delivered buffer that differs from the origin's digest must surface
// an end-to-end CorruptionError even when no per-hop check fired.
func TestEndToEndDigestVerification(t *testing.T) {
	w := faultWorld(t, 2, fault.Plan{}, WithIntegrity(integrity.Config{}))
	err := w.Run(func(p *Proc) error {
		if p.Rank() != 1 {
			return nil
		}
		c := p.Comm()
		want := pattern(0, 256)
		plan := &collPlan{op: "bcast", id: 99, digests: []uint32{integrity.Digest(want)}}
		bcast := &collectives[opBcast]

		clean := append([]byte(nil), want...)
		if err := c.verifyDigests(plan, &collArgs{d: bcast, recv: clean}); err != nil {
			t.Errorf("clean buffer failed digest verification: %v", err)
		}
		tampered := append([]byte(nil), want...)
		tampered[17] ^= 0xFF
		err := c.verifyDigests(plan, &collArgs{d: bcast, recv: tampered})
		var ce *CorruptionError
		if !errors.As(err, &ce) || !ce.EndToEnd {
			t.Errorf("tampered buffer gave %v, want end-to-end CorruptionError", err)
		}

		agPlan := &collPlan{op: "allgather", id: 100,
			digests: []uint32{integrity.Digest(pattern(0, 64)), integrity.Digest(pattern(1, 64))}}
		recv := append(pattern(0, 64), pattern(1, 64)...)
		ag := &collArgs{d: &collectives[opAllgather], recv: recv}
		if err := c.verifyDigests(agPlan, ag); err != nil {
			t.Errorf("clean allgather failed digest verification: %v", err)
		}
		recv[70] ^= 0xFF
		err = c.verifyDigests(agPlan, ag)
		if !errors.As(err, &ce) || !ce.EndToEnd || ce.Src != 1 {
			t.Errorf("tampered segment gave %v, want end-to-end CorruptionError from rank 1", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Integrity().Stats().E2EFailures != 2 {
		t.Errorf("E2EFailures = %d, want 2", w.Integrity().Stats().E2EFailures)
	}
}

// TestReduceIntegrityRecoversCorruption: the reduce data path shares the
// checksum-verified pull, so combining operations also see clean inputs.
func TestReduceIntegrityRecoversCorruption(t *testing.T) {
	const (
		n    = 4
		size = 1024
	)
	w := faultWorld(t, n, fault.Plan{Seed: 3, CorruptProb: 0.4},
		WithIntegrity(integrity.Config{Repulls: 10}))
	want := make([]byte, size)
	for r := 0; r < n; r++ {
		OpBXOR.Combine(want, pattern(r, size))
	}
	err := w.Run(func(p *Proc) error {
		send := pattern(p.Rank(), size)
		recv := make([]byte, size)
		if err := p.Comm().Allreduce(send, recv, OpBXOR, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(recv, want) {
			t.Errorf("rank %d: allreduce result corrupted despite integrity", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Injector().Stats().Corruptions == 0 {
		t.Fatal("no corruption injected")
	}
}
