package mpi

import (
	"fmt"
	"slices"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/machine"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
)

// This file is the delta-repair half of incremental recovery (DESIGN.md
// §11). After a failed collective is agreed and shrunk, the survivors
// deposit their progress ledgers with their arguments at the recovery
// attempt's plan-building rendezvous (the "small metadata allgather"), and
// the last arriver — exactly once, so the decision is uniform by
// construction — merges them through the descriptor's repair function,
// compiles both the full-restart schedule and a distance-aware repair
// schedule over only the missing (rank, chunk) pairs, and picks the cheaper
// of the two under the des/machine cost model. Members then execute the
// shared plan through the ordinary verified execution path: per-hop
// checksums, end-to-end digests and the completion vote all apply to
// repair traffic exactly as they do to first-run traffic.

// Recovery decision modes, as traced by Tracer.Recovery.
const (
	recoverRepair  = "repair"
	recoverRestart = "restart"
	recoverRetry   = "retry"
)

// chooseRecovery picks the schedule of a recovery attempt: delta repair
// when the survivors hold anything worth keeping AND the machine model
// prices the repair below a fresh run; the full restart schedule otherwise
// — always, for a descriptor without a ledger. missing reports the missing
// pieces the merged ledgers imply.
func (c *Comm) chooseRecovery(d *collective, args []collArgs, full *sched.Schedule, unit int64) (*sched.Schedule, string, int) {
	if d.repair == nil {
		return full, recoverRestart, 0
	}
	repair, missing := d.repair(c, args, unit)
	if repair == nil || !c.repairCheaper(repair, full) {
		return full, recoverRestart, missing
	}
	return repair, recoverRepair, missing
}

// bcastRepair merges the survivors' chunk ledgers: missing chunks are
// pulled from the minimum-distance survivors that verifiably hold them.
// missing counts (rank, chunk) pairs.
func bcastRepair(c *Comm, args []collArgs, size int64) (*sched.Schedule, int) {
	root := args[0].root
	holds := make([]*recovery.IntervalSet, len(args))
	var held int64
	for i := range args {
		holds[i] = recovery.NewSet(args[i].led.Spans())
		if i != root {
			held += holds[i].Total()
		}
	}
	// The root's caller buffer is the payload source by definition.
	holds[root].Add(0, size)
	missing := 0
	for _, ch := range sched.Chunks(size, core.BroadcastChunk(size, 2)) {
		for _, h := range holds {
			if !h.Contains(ch[0], ch[1]) {
				missing++
			}
		}
	}
	if held == 0 {
		// Empty ledger: repair would degenerate to a full re-broadcast over
		// a greedier tree. Restart on the purpose-built tree instead.
		return nil, missing
	}
	repair, _ := core.CompileBcastRepair(c.state.baseView(), size, 0, holds)
	return repair, missing
}

// allgatherRepair merges the survivors' ledgers: survivors keep the
// segments they already hold — including segments that reached them via a
// now-dead forwarder — and only the missing (rank, origin) pairs move, each
// from its minimum-distance surviving holder. A member holds origin o's
// segment when its ledger holds the whole block at o's index of the current
// layout (collArgs.reseat keeps that invariant across shrinks).
func allgatherRepair(c *Comm, args []collArgs, block int64) (*sched.Schedule, int) {
	n := len(args)
	holds := make([][]bool, n)
	held := 0
	for i := range args {
		holds[i] = make([]bool, n)
		led := args[i].led
		for o := range holds[i] {
			if led.Holds(int64(o)*block, block) {
				holds[i][o] = true
				held++
			}
		}
	}
	if held == 0 {
		return nil, n * n
	}
	repair, _ := core.CompileAllgatherRepair(c.state.baseView(), block, holds)
	return repair, n*n - held
}

// repairCheaper is the repair-vs-restart cost cutoff: both schedules are
// priced on the des/machine model over a binding restricted to the
// survivors' cores, and repair wins only if its simulated makespan is
// strictly smaller. When the machine has no calibrated parameters (or the
// restricted simulation fails), total copied bytes decide instead — the
// zero-fill-time approximation of the same comparison.
func (c *Comm) repairCheaper(repair, full *sched.Schedule) bool {
	w := c.state.world
	if params, err := machine.ParamsFor(w.Topology().Name); err == nil {
		cores := make([]int, len(c.state.group))
		for i, wr := range c.state.group {
			cores[i] = w.bind.CoreOf(wr)
		}
		if bind, berr := binding.New(w.Topology(), "recovery", cores); berr == nil {
			if model, merr := machine.NewModel(bind, params); merr == nil {
				rres, rerr := model.Simulate(repair)
				fres, ferr := model.Simulate(full)
				if rerr == nil && ferr == nil {
					return rres.Makespan < fres.Makespan
				}
			}
		}
	}
	return repair.TotalCopiedBytes() < full.TotalCopiedBytes()
}

// reseat re-seats the member's arguments on the successor communicator
// between two rounds of the resilient ladder, driven by the descriptor's
// roles; rank is the member's rank in cur. A rooted collective's root keeps
// its world rank and must have survived. Every perRank buffer bound on this
// member is compacted from old's layout to cur's and truncated: a survivor's
// block moves to its new, never larger index, so ascending order is safe in
// place. Of the ledgered role only held blocks move, re-marked where they
// land in a fresh ledger of the new length — the position invariant repair
// reads by: a held interval describes the bytes at that offset of the
// CURRENT layout. A root the first attempt never got to check is left for
// collective.check to reject.
func (a *collArgs) reseat(old, cur []int, rank int) error {
	d := a.d
	if d.rooted && a.root >= 0 && a.root < len(old) {
		rootWorld := old[a.root]
		if a.root = slices.Index(cur, rootWorld); a.root < 0 {
			op := d.name
			if op == "bcast" {
				op = "broadcast" // the text BcastResilient has always had
			}
			return fmt.Errorf("mpi: %s root (world rank %d) failed; %w", op, rootWorld, ErrRootLost)
		}
	}
	for i := range d.roles {
		r := &d.roles[i]
		if !r.perRank || (r.atRoot && rank != a.root) {
			continue
		}
		buf := a.buf(r)
		block := len(buf) / len(old)
		var led *recovery.ChunkLedger
		if r.name == d.ledger {
			led = recovery.NewChunkLedger(int64(len(cur) * block))
		}
		oi := 0
		for ni, wr := range cur {
			for old[oi] != wr { // cur is old minus the dead, in old's order
				oi++
			}
			if led != nil {
				if !a.led.Holds(int64(oi*block), int64(block)) {
					continue
				}
				led.MarkHeld(int64(ni*block), int64(block))
			}
			copy(buf[ni*block:(ni+1)*block], buf[oi*block:(oi+1)*block])
		}
		buf = buf[:len(cur)*block]
		if r.recv {
			a.recv = buf
		} else {
			a.send = buf
		}
		if led != nil {
			a.led = led
		}
	}
	return nil
}
