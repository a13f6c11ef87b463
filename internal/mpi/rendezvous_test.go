package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"distcoll/internal/fault"
)

// TestRendezvousAbandonment: rank 0 gives up on generation g when its
// context expires. Its deposit must stay where it is — so ranks 1 and 2 can
// still close g, over rank 0's ORIGINAL value — and until they have, rank 0
// is out of step: calling again fails fast with a typed error, before
// depositing anything, instead of moving on to the other record of the ring.
// Once g is closed the communicator is in step again.
func TestRendezvousAbandonment(t *testing.T) {
	w := noWatchdogWorld(t, 3)
	abandoned := make(chan struct{})
	// The deposit of generation g: every rank's root field names its call.
	call := func(c *Comm, ctx context.Context, mark int, seen *[3]int) error {
		_, err := c.coordinate(ctx,
			func(rv *rendezvous) { rv.args[c.rank] = collArgs{root: mark} },
			func(rv *rendezvous) error {
				for i := range rv.args {
					seen[i] = rv.args[i].root
				}
				return nil
			})
		return err
	}
	var seen [3]int
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		if p.Rank() != 0 {
			<-abandoned
			if err := call(c, context.Background(), 10+p.Rank(), &seen); err != nil {
				return fmt.Errorf("closing the abandoned generation: %w", err)
			}
			return c.Barrier()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := call(c, ctx, 10, &seen); !IsHang(err) {
			return fmt.Errorf("abandoning call: got %v, want HangError from the expired context", err)
		}
		var he *HangError
		err := call(c, context.Background(), 99, &seen)
		if !errors.As(err, &he) || !strings.Contains(he.Op, "out of step") {
			return fmt.Errorf("call after abandoning: got %v, want the out-of-step HangError", err)
		}
		st := c.state
		st.mu.Lock()
		deposit, seq := st.rv[1].args[0].root, st.seqs[0]
		st.mu.Unlock()
		if deposit != 10 || seq != 1 {
			return fmt.Errorf("out-of-step call left deposit %d at seq %d, want the original 10 at seq 1", deposit, seq)
		}
		close(abandoned)
		// Back in step once the others closed generation 1: the out-of-step
		// error is the only one this loop may see.
		for {
			err := c.Barrier()
			if err == nil {
				return nil
			}
			if !errors.As(err, &he) || !strings.Contains(he.Op, "out of step") {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != [3]int{10, 11, 12} {
		t.Errorf("generation closed over deposits %v, want rank 0's original: [10 11 12]", seen)
	}
}

// TestWakeTokensCrossEveryWait: the rendezvous, the executor's dependency
// waits and the completion barrier park on ONE channel per member, so a token
// offered for one of them can be found by any other. Back-to-back barriers
// (every close leaves the closer's own token behind) and a loop mixing every
// kind of wait with a straggling rank 0 (so ranks park, and are woken, in
// all three) must neither hang nor let a pull see a write too early.
func TestWakeTokensCrossEveryWait(t *testing.T) {
	const n, size = 8, 256
	barriers, rounds := 10000, 60
	if testing.Short() {
		barriers, rounds = 1000, 10
	}
	w := faultWorld(t, n, fault.Plan{SlowRanks: map[int]time.Duration{0: 100 * time.Microsecond}},
		WithOpDeadline(20*time.Second))
	fan := fanSchedule(n, size)
	var all []byte
	for r := 0; r < n; r++ {
		all = append(all, pattern(r, size)...)
	}
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		for i := 0; i < barriers; i++ {
			if err := c.Barrier(); err != nil {
				return fmt.Errorf("barrier %d: %w", i, err)
			}
		}
		recv, sum := make([]byte, n*size), make([]byte, size)
		for i := 0; i < rounds; i++ {
			buf := make([]byte, size)
			if root := i % n; p.Rank() == root {
				copy(buf, pattern(root+i, size))
			}
			if err := c.Bcast(buf, i%n, KNEMColl); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(i%n+i, size)) {
				return fmt.Errorf("round %d: rank %d holds a wrong broadcast", i, p.Rank())
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			clear(recv)
			if err := c.Allgather(pattern(p.Rank(), size), recv, Tuned); err != nil {
				return err
			}
			if !bytes.Equal(recv, all) {
				return fmt.Errorf("round %d: rank %d gathered wrong bytes", i, p.Rank())
			}
			if err := c.Allreduce(pattern(p.Rank(), size), sum, OpBXOR, KNEMColl); err != nil {
				return err
			}
			bufs, err := runSchedule(c, fan)
			if err != nil {
				return err
			}
			seed, _ := fan.FindBuffer(0, "seed")
			mine, _ := fan.FindBuffer(c.Rank(), "data")
			if !bytes.Equal(bufs[mine], bufs[seed]) {
				return fmt.Errorf("round %d: rank %d pulled before the write completed", i, p.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// saltedArgs is conformanceArgs with the input side moved by salt, and that
// input (nil where the rank contributes none) as the oracle takes it.
func saltedArgs(d *collective, comp Component, n, root, unit, r int, salt byte) (collArgs, []byte) {
	a := conformanceArgs(d, comp, n, root, unit, r)
	in := a.send
	if len(d.roles) == 1 {
		in = a.recv
	}
	for i := range in {
		in[i] += salt
	}
	return a, append([]byte(nil), in...)
}

// TestSlabReuseAcrossCalls: the auxiliary slab is the communicator's, never
// cleared, so the second plan on a communicator carves its bounce buffers
// out of whatever the first one left there. Every descriptor × component
// runs twice on ONE communicator with different payloads; both outputs must
// match the serial oracle, so no schedule reads an auxiliary byte it did not
// write first.
func TestSlabReuseAcrossCalls(t *testing.T) {
	const n, unit = 16, 3 * 1024
	reused := 0
	for i := range collectives {
		d := &collectives[i]
		oracle := oracles[d.name]
		root := 0
		if d.rooted {
			root = n / 2
		}
		for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
			var args [2][n]collArgs
			var in [2][][]byte
			for call, salt := range []byte{0, 0xA5} {
				in[call] = make([][]byte, n)
				for r := 0; r < n; r++ {
					args[call][r], in[call][r] = saltedArgs(d, comp, n, root, unit, r, salt)
				}
			}
			w := igWorld(t, "crosssocket", n)
			var kept [2]bool // the communicator held a slab after the call
			err := w.Run(func(p *Proc) error {
				r, c := p.Rank(), p.Comm()
				for call := range args {
					a := args[call][r]
					if err := c.run(context.Background(), a); err != nil {
						return err
					}
					if want := oracle.want(in[call], root, unit, r); want != nil && !bytes.Equal(a.recv, want) {
						return fmt.Errorf("call %d: rank %d: wrong output", call, r)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					if r == 0 {
						kept[call] = c.state.slab != nil
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s/%v: %v", d.name, comp, err)
			}
			if kept[0] {
				reused++
			}
		}
	}
	if reused == 0 {
		t.Error("no cell ran its second plan over a kept slab: the test exercises nothing")
	}
}

// TestSlabHandBack: the plan takes the communicator's slab and its last
// leaver hands it back after a CLEAN call only. Two clean calls run over the
// same memory; a plan a member crashed out of does not return what it took,
// and the successor communicator the survivors shrink to starts with none.
func TestSlabHandBack(t *testing.T) {
	const n, block = 8, 512
	gather := func(c *Comm) (*Comm, error) { // the rank-based baseline stages through bounce buffers
		next, _, err := c.Resilient(context.Background(), Call{Coll: "allgather",
			Send: pattern(c.Rank(), block), Recv: make([]byte, n*block), Comp: Tuned})
		return next, err
	}
	w := faultWorld(t, n, fault.Plan{})
	var first, second *byte
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		for _, at := range []**byte{&first, &second} {
			if _, err := gather(c); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if slab := c.state.slab; p.Rank() == 0 && slab != nil {
				*at = &slab[:1][0]
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || first != second {
		t.Errorf("slab after two clean calls at %p then %p: want one kept slab, handed back and reused", first, second)
	}

	const victim = 5
	w = faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 0}})
	err = w.Run(func(p *Proc) error {
		next, err := gather(p.Comm())
		if p.Rank() == victim {
			if !fault.IsCrashed(err) {
				return fmt.Errorf("victim got %v, want its crash", err)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if next.state == w.worldComm || next.Size() != n-1 {
			return fmt.Errorf("survivor finished on a communicator of %d, want the shrunken one", next.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.worldComm.slab != nil {
		t.Error("the crashed plan handed its slab back to the broken communicator")
	}
}

// TestPlanInstanceHandBack: the plan instance is the communicator's spare
// between clean calls, under the slab's ownership rule. Two clean calls run
// on one instance, which pins no caller buffer in between; a plan a member
// crashed out of never comes back; Free drops the spare. And the instance is
// the communicator's, not the schedule's: two congruent Split children run
// one cached schedule at once, each on its own instance, with different
// payloads, and both match the oracle (a -race target).
func TestPlanInstanceHandBack(t *testing.T) {
	const block = 512
	// call runs a broadcast from a moving root, then an allgather — two
	// schedules of different sizes through one instance — salted by salt,
	// and checks both against the oracle.
	call := func(c *Comm, salt int) error {
		root := salt % c.Size()
		buf := make([]byte, block)
		if c.Rank() == root {
			copy(buf, pattern(salt, block))
		}
		if err := c.Bcast(buf, root, KNEMColl); err != nil {
			return err
		}
		if !bytes.Equal(buf, pattern(salt, block)) {
			return fmt.Errorf("rank %d: wrong broadcast", c.Rank())
		}
		recv := make([]byte, c.Size()*block)
		if err := c.Allgather(pattern(c.Rank()+salt, block), recv, KNEMColl); err != nil {
			return err
		}
		for r := 0; r < c.Size(); r++ {
			if !bytes.Equal(recv[r*block:(r+1)*block], pattern(r+salt, block)) {
				return fmt.Errorf("rank %d: wrong allgather block %d", c.Rank(), r)
			}
		}
		return nil
	}
	// between runs check on rank 0 while every member is between calls.
	between := func(c *Comm, check func() error) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := check(); err != nil {
				return err
			}
		}
		return c.Barrier()
	}

	const n = 8
	w := faultWorld(t, n, fault.Plan{})
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		var first *collPlan
		for i := 0; i < 2; i++ {
			if err := call(c, i); err != nil {
				return err
			}
			err := between(c, func() error {
				spare := c.state.spare
				switch {
				case spare == nil:
					return fmt.Errorf("call %d: no spare plan after a clean call", i)
				case first != nil && spare != first:
					return fmt.Errorf("call %d ran on a new plan instance, want the spare", i)
				case slices.ContainsFunc(spare.bufs, func(b []byte) bool { return b != nil }):
					return fmt.Errorf("call %d: the spare pins a buffer between calls", i)
				}
				first = spare
				return nil
			})
			if err != nil {
				return err
			}
		}
		return between(c, func() error {
			if c.Free(); c.state.spare != nil {
				return errors.New("Free kept the spare plan")
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	// The victim completes its first call (fewer than 10 ops) and dies in its second.
	const victim = 5
	w = faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: 10}})
	err = w.Run(func(p *Proc) error {
		c := p.Comm()
		if err := call(c, 0); err != nil {
			return err
		}
		err := between(c, func() error {
			if c.state.spare == nil {
				return errors.New("no spare plan after the clean call")
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := call(c, 1); p.Rank() == victim && !fault.IsCrashed(err) {
			return fmt.Errorf("victim got %v, want its crash", err)
		} else if p.Rank() != victim && !IsRankFailure(err) {
			return fmt.Errorf("survivor got %v, want a RankFailureError", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.worldComm.spare != nil {
		t.Error("the plan a member crashed out of came back as the spare")
	}

	// One board each: placement-congruent, so one topology hash and one
	// cached schedule per call shape.
	const m, rounds = 48, 20
	w = igWorld(t, "contiguous", m)
	var children [2]*commState
	err = w.Run(func(p *Proc) error {
		color := p.Rank() / (m / 2)
		sub, err := p.Comm().Split(color, p.Rank())
		if err != nil {
			return err
		}
		if sub.Rank() == 0 {
			children[color] = sub.state
		}
		for i := 0; i < rounds; i++ {
			if err := call(sub, 1000*color+i); err != nil {
				return fmt.Errorf("child %d, round %d: %w", color, i, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := children[0].spare, children[1].spare
	if a == nil || b == nil || a == b {
		t.Fatalf("children's spares %p and %p: want one instance each", a, b)
	}
	if a.s != b.s {
		t.Error("the congruent children ran their last allgather on different schedules: the test shares nothing")
	}
}
