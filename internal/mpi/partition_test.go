package mpi

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/hwtopo"
	"distcoll/internal/partition"
)

// partWorld builds a world with partition detection armed, a fault
// injector for runtime link control, and a watchdog so no test hangs.
func partWorld(t *testing.T, n int, opts ...Option) *World {
	t.Helper()
	b, err := binding.CrossSocket(hwtopo.NewIG(), n)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]Option{
		WithFault(fault.Plan{}),
		WithOpDeadline(2 * time.Second),
		WithPartitionDetector(partition.Config{}),
	}, opts...)
	return NewWorld(b, all...)
}

// TestBcastResilientSurvivesCleanSplit is the tentpole scenario: a clean
// 6/2 split mid-world. The majority island detects the cut, takes the
// quorum decision, shrinks, and completes the broadcast; every minority
// rank gets a typed PartitionError; the fence keeps a healed minority
// rank out of the successor communicator.
func TestBcastResilientSurvivesCleanSplit(t *testing.T) {
	const (
		n    = 8
		size = 4096
	)
	w := partWorld(t, n)
	w.Injector().SeverGroups([]int{0, 1, 2, 3, 4, 5}, []int{6, 7})
	want := pattern(0, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		nc, err := p.Comm().BcastResilient(buf, 0, KNEMColl)
		if p.Rank() >= 6 {
			if !partition.IsPartition(err) {
				t.Errorf("minority rank %d got %v, want PartitionError", p.Rank(), err)
				return nil
			}
			// Healing the network must not readmit a fenced rank: its
			// traffic is refused at the boundary, stale membership and all.
			w.Injector().HealAll()
			if serr := p.Send(0, 99, []byte("stale")); !partition.IsFenced(serr) {
				t.Errorf("fenced rank %d Send = %v, want FenceError", p.Rank(), serr)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if nc.Size() != 6 {
			t.Errorf("rank %d: recovered comm size = %d, want 6", p.Rank(), nc.Size())
		}
		for r := 0; r < nc.Size(); r++ {
			if nc.WorldRank(r) >= 6 {
				t.Errorf("rank %d: minority rank %d in recovered comm", p.Rank(), nc.WorldRank(r))
			}
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: broadcast payload wrong after partition recovery", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("majority failed: %v", err)
	}
	if got := w.PartitionEpoch(); got < 1 {
		t.Fatalf("PartitionEpoch() = %d, want >= 1", got)
	}
	v := w.PartitionVerdict()
	if v == nil {
		t.Fatal("no partition verdict recorded")
	}
	if len(v.Winner) != 6 || v.Winner[0] != 0 {
		t.Fatalf("verdict winner = %v, want [0 1 2 3 4 5]", v.Winner)
	}
	if fenced := w.FencedRanks(); len(fenced) != 2 || fenced[0] != 6 || fenced[1] != 7 {
		t.Fatalf("FencedRanks() = %v, want [6 7]", fenced)
	}
}

// TestAsymmetricSeverFencesOneSide: only the 0→1 direction is cut. A
// one-way link cannot carry a collective, so mutual reachability splits
// the pair; the tie at exactly half goes to the component holding the
// lowest rank, and rank 1 is fenced with the full quorum math in its
// error.
func TestAsymmetricSeverFencesOneSide(t *testing.T) {
	const size = 1024
	w := partWorld(t, 2)
	w.Injector().Sever(0, 1)
	want := pattern(0, size)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		nc, err := p.Comm().BcastResilient(buf, 0, KNEMColl)
		if p.Rank() == 1 {
			var pe *partition.PartitionError
			if !errors.As(err, &pe) {
				t.Errorf("rank 1 got %v, want PartitionError", err)
				return nil
			}
			if pe.Have != 1 || pe.Total != 2 || pe.Need != 2 {
				t.Errorf("quorum math = have %d need %d total %d, want 1/2/2", pe.Have, pe.Need, pe.Total)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if nc.Size() != 1 {
			t.Errorf("rank 0: recovered comm size = %d, want 1", nc.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatalf("winner failed: %v", err)
	}
	if fenced := w.FencedRanks(); len(fenced) != 1 || fenced[0] != 1 {
		t.Fatalf("FencedRanks() = %v, want [1]", fenced)
	}
}

// TestBarrierCadenceDetectsSilentSplit: barriers move no payload bytes,
// so only the probe cadence can observe the cut. Detection-to-decision
// must land within 5 collectives of the cut for every rank.
func TestBarrierCadenceDetectsSilentSplit(t *testing.T) {
	const n = 4
	w := partWorld(t, n)
	w.Injector().SeverGroups([]int{0, 1, 2}, []int{3})
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		var got error
		rounds := 0
		for i := 0; i < 8; i++ {
			rounds++
			if err := c.Barrier(); err != nil {
				got = err
				break
			}
		}
		if got == nil {
			t.Errorf("rank %d: cut never detected over 8 barriers", p.Rank())
			return nil
		}
		if rounds > 5 {
			t.Errorf("rank %d: detection took %d barriers, want <= 5", p.Rank(), rounds)
		}
		if p.Rank() == 3 {
			if !partition.IsPartition(got) {
				t.Errorf("minority rank got %v, want PartitionError", got)
			}
			return nil
		}
		if !IsRankFailure(got) && !partition.IsPartition(got) {
			t.Errorf("majority rank %d got %v, want RankFailureError", p.Rank(), got)
			return nil
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		if nc.Size() != 3 {
			t.Errorf("rank %d: shrunken comm size = %d, want 3", p.Rank(), nc.Size())
		}
		return nc.Barrier()
	})
	if err != nil {
		t.Fatalf("majority failed: %v", err)
	}
	if w.PartitionEpoch() < 1 {
		t.Fatal("probe cadence never forced a quorum decision")
	}
}

// TestProbeCadenceCountsCollectives: ProbeEveryOps is in collectives for a
// collective with a plan as for a barrier. A broadcast passes the gate at
// its entry and rechecks at its completion barrier; only the entry is a
// tick, so 12 broadcasts on a calm world are 12/3 = 4 sweeps of n(n−1)
// probes each (the completion barrier ticking too made it 8).
func TestProbeCadenceCountsCollectives(t *testing.T) {
	const n = 4
	w := partWorld(t, n)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, 64)
		for i := 0; i < 12; i++ {
			if err := p.Comm().Bcast(buf, 0, KNEMColl); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	every := w.PartitionDetector().Config().ProbeEveryOps
	if got, want := w.PartitionDetector().Probes(), int64(12/every*n*(n-1)); got != want {
		t.Errorf("12 broadcasts issued %d probes, want %d (one sweep per %d collectives)", got, want, every)
	}
}

// TestHangOnSeveredPeerIsPartitionSuspicion (satellite): a Recv blocked
// on a peer whose every link is cut is not a generic hang — the watchdog
// verdict names the suspected unreachable component.
func TestHangOnSeveredPeerIsPartitionSuspicion(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b,
		WithFault(fault.Plan{}),
		WithOpDeadline(200*time.Millisecond),
		WithPartitionDetector(partition.Config{}))
	w.Injector().SeverGroups([]int{0}, []int{1})
	err = w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			// The cut swallows the message (partition semantics): the
			// sender cannot tell, the receiver's watchdog must.
			_ = p.Send(0, 7, []byte("dropped at the cut"))
			return nil
		}
		_, rerr := p.Recv(1, 7)
		var he *HangError
		if !errors.As(rerr, &he) {
			t.Errorf("rank 0 Recv = %v, want HangError", rerr)
			return nil
		}
		if !strings.Contains(he.Suspicion, "partition suspected") ||
			!strings.Contains(he.Suspicion, "[1]") {
			t.Errorf("hang not classified as partition suspicion: %q", he.Error())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTopoHashChangesAcrossPartitionEpoch: the epoch is folded into the
// topology fingerprint, so a quorum decision remaps the plan-cache key
// space and a pre-split plan can never be served again.
func TestTopoHashChangesAcrossPartitionEpoch(t *testing.T) {
	w := partWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		st := p.Comm().state
		st.mu.Lock()
		h1 := st.topoHashLocked()
		st.mu.Unlock()
		w.det.AdvanceEpoch()
		st.mu.Lock()
		h2 := st.topoHashLocked()
		st.mu.Unlock()
		if h1 == h2 {
			t.Error("topology hash unchanged across a partition epoch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
