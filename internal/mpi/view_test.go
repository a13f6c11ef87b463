package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/hwtopo"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// treeOf and ringOf are the topologies a communicator's distance-aware
// schedules are compiled over: core's one rule applied to the
// communicator's current view (tune.CompileFor does exactly this on a
// plan-cache miss; nothing else in the runtime holds a tree or ring).
func treeOf(st *commState, root int) (*core.Tree, error) {
	st.mu.Lock()
	v := st.viewLocked()
	st.mu.Unlock()
	return core.TreeFor(v, root)
}

func ringOf(st *commState) (*core.Ring, error) {
	st.mu.Lock()
	v := st.viewLocked()
	st.mu.Unlock()
	return core.RingFor(v)
}

// copyEdges returns the rank pairs a schedule moves bytes between, as
// {source rank, destination rank} of every cross-rank op.
func copyEdges(s *sched.Schedule) map[[2]int]bool {
	edges := make(map[[2]int]bool)
	for i := range s.Ops {
		o := &s.Ops[i]
		if src, dst := s.Buffers[o.Src].Rank, s.Buffers[o.Dst].Rank; src != dst {
			edges[[2]int{src, dst}] = true
		}
	}
	return edges
}

// TestShrinkDerivesViewLikeFreshComm: a communicator's distance view is a
// function of (topology, member cores) and nothing else, so a communicator
// shrunk off a cluster onto one machine — and shrunk again — builds
// exactly the trees and ring a fresh world bound to the surviving cores
// builds. (The parent's view used to be restricted into the child, with a
// representation switch when the survivors fit one machine.)
func TestShrinkDerivesViewLikeFreshComm(t *testing.T) {
	topo := hwtopo.NewIGCluster() // 4 machines × 12 cores
	cores := []int{0, 1, 2, 6, 7, 12, 13, 18}
	b, err := binding.New(topo, "two-machines", cores)
	if err != nil {
		t.Fatal(err)
	}
	// sameAsFresh compares the communicator's topologies with those of a
	// fresh world on the given cores.
	sameAsFresh := func(st *commState, cores []int) error {
		fb, err := binding.New(topo, "fresh", cores)
		if err != nil {
			return err
		}
		fresh := NewWorld(fb).worldComm
		if st.baseView().MultiMachine() != fresh.baseView().MultiMachine() {
			return fmt.Errorf("cores %v: shrunken view spans machines differently from a fresh one", cores)
		}
		for root := range cores {
			got, err := treeOf(st, root)
			if err != nil {
				return err
			}
			want, err := treeOf(fresh, root)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got.Parent, want.Parent) || !reflect.DeepEqual(got.Children, want.Children) {
				return fmt.Errorf("cores %v root %d: shrunken tree %v, fresh tree %v", cores, root, got.Parent, want.Parent)
			}
		}
		got, err := ringOf(st)
		if err != nil {
			return err
		}
		want, err := ringOf(fresh)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Right, want.Right) {
			return fmt.Errorf("cores %v: shrunken ring %v, fresh ring %v", cores, got.Right, want.Right)
		}
		return nil
	}
	w := NewWorld(b, WithOpDeadline(2*time.Second))
	payload := pattern(0, 2048)
	err = w.Run(func(p *Proc) error {
		if p.Rank() >= 5 {
			return nil // the second machine's ranks never show up
		}
		for r := 5; r < len(cores); r++ {
			p.World().MarkFailed(r)
		}
		comm := p.Comm()
		if !comm.state.baseView().MultiMachine() {
			return fmt.Errorf("world communicator should span two machines")
		}
		if err := comm.Barrier(); !IsRankFailure(err) {
			return fmt.Errorf("barrier with a dead machine returned %v", err)
		}
		once, err := comm.Shrink()
		if err != nil {
			return err
		}
		if err := sameAsFresh(once.state, cores[:5]); err != nil {
			return err
		}
		buf := make([]byte, len(payload))
		if once.Rank() == 0 {
			copy(buf, payload)
		}
		if err := once.Bcast(buf, 0, Adaptive); err != nil {
			return err
		}
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("rank %d: bcast on the shrunken communicator delivered wrong bytes", p.Rank())
		}
		// Second failure, second shrink.
		if p.Rank() == 4 {
			return nil
		}
		p.World().MarkFailed(4)
		if err := once.Barrier(); !IsRankFailure(err) {
			return fmt.Errorf("barrier after the second death returned %v", err)
		}
		twice, err := once.Shrink()
		if err != nil {
			return err
		}
		return sameAsFresh(twice.state, cores[:4])
	})
	if err != nil {
		t.Fatal(err)
	}
}

// oneSwitchWorld builds a 2,048-rank world on 128 sixteen-core nodes under
// ONE switch: a multi-machine placement whose largest distance is 7, a
// machine class no shipped table covers (a two-switch cluster class-matches
// igcluster48), so the Adaptive component decides by tune.Fallback.
func oneSwitchWorld(t *testing.T) *World {
	t.Helper()
	node := hwtopo.IGLiteSpec()
	node.Name = "node16"
	node.CoresPerDie = 8
	topo, err := hwtopo.BuildCluster(hwtopo.ClusterSpec{Name: "oneswitch", Switches: 1, NodesPerSwitch: 128, Node: node})
	if err != nil {
		t.Fatal(err)
	}
	b, err := binding.Contiguous(topo, topo.NumCores())
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(b)
}

// allocatedDuring returns the heap bytes allocated while f runs.
func allocatedDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestNoTableClusterCommStaysLinear: on a cluster-scale communicator that
// misses every decision table, everything the Adaptive component and the
// recovery path construct costs O(n) bytes. The fallback decision carries
// no construction hint — there is none to carry any more — and the
// communicator's one view picks the sparse constructions by itself. With
// the construction chosen by a table-only flag, the fallback decision
// materialised the 2,048² matrix (33.5 MB) and ran the dense greedy over
// 2.1 M edges (50 MB more) for the same tree, and delta repair and the
// ring did likewise.
func TestNoTableClusterCommStaysLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("2,048-rank world skipped in -short mode")
	}
	const (
		size   = 16 << 10 // the fallback's knemcoll crossover for bcast
		root   = 5
		perRnk = 6 << 10 // bytes per rank allowed: the live bcast measures 2.4 KiB; the dense matrix alone is 16 KiB
	)
	w := oneSwitchWorld(t)
	n := w.Size()
	if n < 2048 {
		t.Fatalf("world has %d ranks, want ≥ 2048", n)
	}
	st := w.worldComm
	view := st.baseView()
	if dec, prov := tune.DefaultSelector().SelectExplain(tune.CollBcast, view, size); prov != "fallback" || dec.String() != "knemcoll/hier" {
		t.Fatalf("selector answers %s (%s), want knemcoll/hier (fallback): the platform must miss every table", dec, prov)
	}
	bound := uint64(n * perRnk)

	// Live Adaptive broadcast on all 2,048 ranks.
	slab := make([]byte, n*size)
	payload := pattern(root, size)
	var runErr error
	got := allocatedDuring(func() {
		runErr = w.Run(func(p *Proc) error {
			buf := slab[p.Rank()*size : (p.Rank()+1)*size]
			if p.Rank() == root {
				copy(buf, payload)
			}
			return p.Comm().Bcast(buf, root, Adaptive)
		})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	for r := 0; r < n; r++ {
		if !bytes.Equal(slab[r*size:(r+1)*size], payload) {
			t.Fatalf("rank %d holds wrong bytes after the broadcast", r)
		}
	}
	t.Logf("adaptive bcast: %d bytes allocated over %d ranks (%d per rank)", got, n, got/uint64(n))
	if got > bound {
		t.Errorf("adaptive bcast allocated %d bytes on %d ranks, want ≤ %d (O(n))", got, n, bound)
	}

	// Delta repair after one node's ranks lost the tail of a 4-chunk
	// payload: the plan-building half of recovery, as the last arriver of
	// the recovery rendezvous runs it.
	const repairSize = 64 << 10
	chunk := core.BroadcastChunk(repairSize, 2)
	args := make([]collArgs, n)
	for r := range args {
		led := recovery.NewChunkLedger(repairSize)
		if r/16 == 77 {
			led.MarkHeld(0, chunk)
		} else {
			led.MarkAll()
		}
		args[r] = collArgs{d: &collectives[opBcast], root: root, led: led}
	}
	c := &Comm{state: st, rank: 0}
	var missing int
	got = allocatedDuring(func() {
		_, missing = bcastRepair(c, args, repairSize)
	})
	if want := 16 * 3; missing != want {
		t.Errorf("repair sees %d missing (rank, chunk) pairs, want %d", missing, want)
	}
	t.Logf("bcast delta repair: %d bytes allocated", got)
	if got > bound {
		t.Errorf("bcast delta repair allocated %d bytes on %d ranks, want ≤ %d (O(n))", got, n, bound)
	}

	// The ring an Adaptive allgather or allreduce compiles over. (The
	// compiled allgather itself is n(n−1) ops by definition, so at this
	// size only its topology can be held to O(n); the live call runs below
	// on a smaller communicator of the same kind.)
	var ring *core.Ring
	var ringErr error
	got = allocatedDuring(func() {
		st.mu.Lock()
		v := st.viewLocked()
		st.mu.Unlock()
		ring, ringErr = core.RingFor(v)
	})
	if ringErr != nil {
		t.Fatal(ringErr)
	}
	if cross := ring.EdgesAtWeight(7); cross != 128 {
		t.Errorf("ring crosses machines %d times, want once per machine (128)", cross)
	}
	t.Logf("ring: %d bytes allocated", got)
	if got > bound {
		t.Errorf("ring construction allocated %d bytes on %d ranks, want ≤ %d (O(n))", got, n, bound)
	}
}

// TestNoTableClusterAllgather: a live Adaptive allgather on a
// multi-machine, single-switch communicator served by tune.Fallback — one
// rank of every fourth node plus all of node 0 — delivers every block, over
// the same hierarchical ring fixed KNEMColl builds there (Adaptive used to
// get the dense greedy ring, a different cyclic order).
func TestNoTableClusterAllgather(t *testing.T) {
	if testing.Short() {
		t.Skip("2,048-rank world skipped in -short mode")
	}
	const block = tune.FallbackAllgatherCrossover
	w := oneSwitchWorld(t)
	err := w.Run(func(p *Proc) error {
		color := -1
		if p.Rank() < 16 || p.Rank()%64 == 0 {
			color = 0
		}
		sub, err := p.Comm().Split(color, p.Rank())
		if err != nil || sub == nil {
			return err
		}
		m := sub.Size()
		recv := make([]byte, m*block)
		if err := sub.Allgather(pattern(sub.Rank(), block), recv, Adaptive); err != nil {
			return err
		}
		for r := 0; r < m; r++ {
			if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r, block)) {
				return fmt.Errorf("rank %d: block %d wrong", sub.Rank(), r)
			}
		}
		if sub.Rank() != 0 {
			return nil
		}
		st := sub.state
		st.mu.Lock()
		v := st.viewLocked()
		st.mu.Unlock()
		if dec, prov := p.World().Selector().(*tune.Selector).SelectExplain(tune.CollAllgather, v, block); prov != "fallback" || dec.Component != tune.ComponentKNEM {
			return fmt.Errorf("allgather decided %s (%s), want knemcoll by fallback", dec, prov)
		}
		fixed, err := ringOf(st)
		if err != nil {
			return err
		}
		adaptive, err := tune.CompileFor(tune.CollAllgather, tune.Decision{Component: tune.ComponentKNEM}, v, 0, block, 0)
		if err != nil {
			return err
		}
		want, err := core.CompileAllgather(fixed, block)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(adaptive.Ops, want.Ops) {
			return fmt.Errorf("adaptive and fixed knemcoll allgather schedules differ on one communicator")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
