package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/hwtopo"
)

func igWorld(t *testing.T, bindName string, n int) *World {
	t.Helper()
	b, err := binding.ByName(hwtopo.NewIG(), bindName, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(b)
}

func pattern(rank int, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((rank*59 + i*3 + 7) % 251)
	}
	return out
}

func TestPointToPoint(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			if err := p.Send(1, 7, []byte("hello")); err != nil {
				return err
			}
			// Out-of-order tags: send tag 9 then 8; receiver asks 8 first.
			if err := p.Send(2, 9, []byte("nine")); err != nil {
				return err
			}
			if err := p.Send(2, 8, []byte("eight")); err != nil {
				return err
			}
		case 1:
			got, err := p.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(got) != "hello" {
				return fmt.Errorf("got %q", got)
			}
		case 2:
			e, err := p.Recv(0, 8)
			if err != nil {
				return err
			}
			n, err := p.Recv(0, 9)
			if err != nil {
				return err
			}
			if string(e) != "eight" || string(n) != "nine" {
				return fmt.Errorf("tag matching broken: %q %q", e, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := igWorld(t, "contiguous", 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			buf := []byte("immutable")
			if err := p.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "clobbered") // must not affect the in-flight message
			return nil
		}
		got, err := p.Recv(0, 0)
		if err != nil {
			return err
		}
		if string(got) != "immutable" {
			return fmt.Errorf("send aliased caller buffer: %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := igWorld(t, "crosssocket", 8)
	err := w.Run(func(p *Proc) error {
		partner := p.Rank() ^ 1
		got, err := p.Sendrecv(partner, 5, pattern(p.Rank(), 128))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, pattern(partner, 128)) {
			return fmt.Errorf("rank %d: wrong exchange payload", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMailboxFirstUseRaces: a (src, dst) mailbox is created by whichever
// of the sender and the receiver gets there first. At step k every rank r
// sends to r+k while r+k receives from r, so each pair's first Send and
// first Recv race (run under -race, repeated); every message must still
// arrive, in per-pair order, through the one channel that won.
func TestMailboxFirstUseRaces(t *testing.T) {
	const n, msgs = 16, 4
	for round := 0; round < 20; round++ {
		w := igWorld(t, "crosssocket", n)
		err := w.Run(func(p *Proc) error {
			r := p.Rank()
			for k := 0; k < n; k++ {
				dst, src := (r+k)%n, (r-k+n)%n
				for i := 0; i < msgs; i++ {
					if err := p.Send(dst, 9, []byte{byte(r), byte(i)}); err != nil {
						return err
					}
				}
				for i := 0; i < msgs; i++ {
					got, err := p.Recv(src, 9)
					if err != nil {
						return err
					}
					if len(got) != 2 || got[0] != byte(src) || got[1] != byte(i) {
						return fmt.Errorf("rank %d: message %d from %d is %v", r, i, src, got)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewWorldHeapBounded: a world's construction cost is its per-rank
// state, not n² mailboxes nobody may ever use (5.6 MB for 48 ranks when
// every pair's 64-deep channel was made eagerly).
func TestNewWorldHeapBounded(t *testing.T) {
	b, err := binding.CrossSocket(hwtopo.NewIG(), 48)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := NewWorld(b)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
		t.Errorf("NewWorld(48) allocated %d bytes in %d objects, want ≤ 1 MiB", got, m1.Mallocs-m0.Mallocs)
	}
	runtime.KeepAlive(w)
}

func TestP2PValidation(t *testing.T) {
	w := igWorld(t, "contiguous", 2)
	err := w.Run(func(p *Proc) error {
		if err := p.Send(99, 0, nil); err == nil {
			return fmt.Errorf("send to rank 99 accepted")
		}
		if _, err := p.Recv(-1, 0); err == nil {
			return fmt.Errorf("recv from rank -1 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllComponents(t *testing.T) {
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
		for _, bind := range []string{"contiguous", "crosssocket", "random"} {
			w := igWorld(t, bind, 48)
			const root, size = 5, 100000
			want := pattern(root, size)
			err := w.Run(func(p *Proc) error {
				buf := make([]byte, size)
				if p.Rank() == root {
					copy(buf, want)
				}
				if err := p.Comm().Bcast(buf, root, comp); err != nil {
					return err
				}
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("rank %d received wrong data", p.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", comp, bind, err)
			}
		}
	}
}

func TestAllgatherAllComponents(t *testing.T) {
	for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
		w := igWorld(t, "random", 24)
		const block = 997
		var want []byte
		for r := 0; r < 24; r++ {
			want = append(want, pattern(r, block)...)
		}
		err := w.Run(func(p *Proc) error {
			recv := make([]byte, 24*block)
			if err := p.Comm().Allgather(pattern(p.Rank(), block), recv, comp); err != nil {
				return err
			}
			if !bytes.Equal(recv, want) {
				return fmt.Errorf("rank %d gathered wrong data", p.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", comp, err)
		}
	}
}

func TestSequentialCollectives(t *testing.T) {
	// Back-to-back collectives on one communicator must not cross-talk.
	w := igWorld(t, "contiguous", 12)
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		for iter := 0; iter < 5; iter++ {
			buf := make([]byte, 4096)
			root := iter % 12
			if p.Rank() == root {
				copy(buf, pattern(iter, 4096))
			}
			if err := comm.Bcast(buf, root, KNEMColl); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(iter, 4096)) {
				return fmt.Errorf("iter %d rank %d: wrong data", iter, p.Rank())
			}
			comm.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndSubcommCollectives(t *testing.T) {
	// Split 48 ranks into odd/even communicators with REVERSED rank order,
	// then broadcast within each: the distance-aware component must adapt
	// to the sub-communicator's membership and re-ranking.
	w := igWorld(t, "crosssocket", 48)
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		sub, err := comm.Split(p.Rank()%2, -p.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 24 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		// Reversed key: world rank 46/47 is rank 0 of its sub-comm.
		if p.Rank() >= 46 && sub.Rank() != 0 {
			return fmt.Errorf("world rank %d got sub rank %d, want 0", p.Rank(), sub.Rank())
		}
		// Group and RankOf are the membership both ways: the world ranks in
		// sub-rank order (a copy), and a world rank's place among them.
		g := sub.Group()
		for r, wr := range g {
			if wr != sub.WorldRank(r) || sub.RankOf(wr) != r || wr%2 != p.Rank()%2 {
				return fmt.Errorf("world rank %d: group %v disagrees with WorldRank/RankOf at %d", p.Rank(), g, r)
			}
		}
		g[0] = -1
		if len(g) != 24 || sub.WorldRank(0) == -1 || sub.RankOf(p.Rank()) != sub.Rank() || sub.RankOf(p.Rank()^1) != -1 {
			return fmt.Errorf("world rank %d: Group aliases the communicator or RankOf misplaces a rank", p.Rank())
		}
		want := pattern(p.Rank()%2, 32768)
		buf := make([]byte, 32768)
		if sub.Rank() == 0 {
			copy(buf, want)
		}
		if err := sub.Bcast(buf, 0, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("world rank %d: wrong sub-bcast data", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColor(t *testing.T) {
	w := igWorld(t, "contiguous", 6)
	err := w.Run(func(p *Proc) error {
		sub, err := p.Comm().Split(boolColor(p.Rank() < 4), 0)
		if err != nil {
			return err
		}
		if p.Rank() < 4 {
			if sub == nil || sub.Size() != 4 {
				return fmt.Errorf("rank %d: bad sub comm", p.Rank())
			}
		} else if sub != nil {
			return fmt.Errorf("rank %d: expected nil comm", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func boolColor(in bool) int {
	if in {
		return 0
	}
	return -1
}

func TestCollectiveArgumentMismatch(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		root := 0
		if p.Rank() == 2 {
			root = 1 // disagreement
		}
		err := p.Comm().Bcast(make([]byte, 64), root, Tuned)
		if err == nil {
			return fmt.Errorf("mismatched root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w2 := igWorld(t, "contiguous", 4)
	err = w2.Run(func(p *Proc) error {
		recv := make([]byte, 4*64)
		if p.Rank() == 1 {
			recv = make([]byte, 3) // wrong size
		}
		if err := p.Comm().Allgather(make([]byte, 64), recv, KNEMColl); err == nil {
			return fmt.Errorf("wrong recv size accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteCollectives(t *testing.T) {
	w := igWorld(t, "contiguous", 4)
	err := w.Run(func(p *Proc) error {
		if err := p.Comm().Bcast(nil, 0, KNEMColl); err != nil {
			return err
		}
		return p.Comm().Allgather(nil, nil, Tuned)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKnemRegionsReleased(t *testing.T) {
	w := igWorld(t, "contiguous", 8)
	err := w.Run(func(p *Proc) error {
		buf := make([]byte, 8192)
		return p.Comm().Bcast(buf, 0, KNEMColl)
	})
	if err != nil {
		t.Fatal(err)
	}
	declared, live, copies := w.Device().Stats()
	if live != 0 {
		t.Errorf("%d regions leaked", live)
	}
	if declared == 0 || copies == 0 {
		t.Errorf("knem unused: declared=%d copies=%d", declared, copies)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := igWorld(t, "contiguous", 3)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not propagated")
	}
}

func TestZootWorldMPICHBcast(t *testing.T) {
	z := hwtopo.NewZoot()
	b, err := binding.RoundRobin(z, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b)
	const size = 1 << 20 // scatter+ring path
	want := pattern(0, size)
	err = w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 0 {
			copy(buf, want)
		}
		if err := p.Comm().Bcast(buf, 0, MPICH2); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d wrong data", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClusterWorldCollectives(t *testing.T) {
	// The whole stack on a multi-node cluster (the §VI extension): a
	// scattered binding across 4 nodes, distance-aware broadcast and
	// allgather through the runtime.
	topo := hwtopo.NewIGCluster()
	b, err := binding.CrossSocket(topo, 48)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(b)
	const size = 65536
	want := pattern(3, size)
	err = w.Run(func(p *Proc) error {
		buf := make([]byte, size)
		if p.Rank() == 3 {
			copy(buf, want)
		}
		if err := p.Comm().Bcast(buf, 3, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d wrong bcast data", p.Rank())
		}
		const block = 512
		recv := make([]byte, 48*block)
		if err := p.Comm().Allgather(pattern(p.Rank(), block), recv, KNEMColl); err != nil {
			return err
		}
		for r := 0; r < 48; r++ {
			if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r, block)) {
				return fmt.Errorf("rank %d wrong allgather block %d", p.Rank(), r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTopologyCacheReused(t *testing.T) {
	// Repeated distance-aware collectives on one communicator must build
	// the topology once per shape (tree per root, one ring), not per call.
	// The world's plan cache is the one cache between a call and its
	// schedule, so a build is a miss and a reuse is a hit.
	w := igWorld(t, "crosssocket", 16)
	err := w.Run(func(p *Proc) error {
		comm := p.Comm()
		for i := 0; i < 6; i++ {
			buf := make([]byte, 4096)
			if err := comm.Bcast(buf, 0, KNEMColl); err != nil {
				return err
			}
			recv := make([]byte, 16*256)
			if err := comm.Allgather(make([]byte, 256), recv, KNEMColl); err != nil {
				return err
			}
		}
		// A second root adds one more tree.
		buf := make([]byte, 512)
		return comm.Bcast(buf, 3, KNEMColl)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.PlanCache().Stats(); st.Misses != 3 || st.Hits != 10 {
		t.Fatalf("plan cache: %+v, want 3 misses (tree root 0, ring, tree root 3) and 10 hits", st)
	}
}
