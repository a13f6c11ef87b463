package mpi

import (
	"context"
	"fmt"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/integrity"
	"distcoll/internal/machine"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
)

// This file is the delta-repair half of incremental recovery (DESIGN.md
// §11). After a failed collective is agreed and shrunk, the survivors
// exchange their progress-ledger rows through the coordinate rendezvous
// (the "small metadata allgather"), and the last arriver — exactly once,
// so the decision is uniform by construction — merges them, compiles both
// the full-restart schedule and a distance-aware repair schedule over
// only the missing (rank, chunk) pairs, and picks the cheaper of the two
// under the des/machine cost model. Members then execute the shared plan
// through the ordinary verified execution path: per-hop checksums,
// end-to-end digests and the finish outcome vote all apply to repair
// traffic exactly as they do to first-run traffic.

// Recovery decision modes, as traced by Tracer.Recovery.
const (
	recoverRepair  = "repair"
	recoverRestart = "restart"
	recoverRetry   = "retry"
)

// deltaOutcome is the shared result of one recovery rendezvous.
type deltaOutcome struct {
	plan *collPlan
	mode string // recoverRepair | recoverRestart
}

// bcastDeltaArgs is each survivor's contribution to a broadcast recovery
// rendezvous: its ordinary bcast arguments plus its ledger row.
type bcastDeltaArgs struct {
	buf   []byte
	root  int
	comp  Component
	spans []recovery.Interval
	led   *recovery.ChunkLedger
}

// bcastDelta re-runs a failed broadcast on the (typically shrunken)
// communicator incrementally: missing chunks are pulled from the
// minimum-distance survivors that verifiably hold them, unless the merged
// ledger is empty or the machine model estimates a fresh run cheaper.
// Returns the mode the rendezvous chose, which is identical on every
// member.
func (c *Comm) bcastDelta(ctx context.Context, buf []byte, root int, comp Component, led *recovery.ChunkLedger) (string, error) {
	_, result, err := c.coordinateCtx(ctx,
		bcastDeltaArgs{buf: buf, root: root, comp: comp, spans: led.Spans(), led: led},
		func(vals []any) (any, error) {
			args := make([]bcastDeltaArgs, len(vals))
			for i, v := range vals {
				a, ok := v.(bcastDeltaArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: bcast recovery coordination corrupted")
				}
				args[i] = a
				if a.root != args[0].root || a.comp != args[0].comp || len(a.buf) != len(args[0].buf) {
					return nil, fmt.Errorf("mpi: bcast recovery arguments mismatch across ranks")
				}
			}
			size := int64(len(args[0].buf))
			r := args[0].root
			if size == 0 {
				return &deltaOutcome{plan: c.state.emptyPlan("bcast", len(args)), mode: recoverRestart}, nil
			}
			full, _, err := c.buildBcast(size, r, args[0].comp)
			if err != nil {
				return nil, err
			}
			holds := make([]*recovery.IntervalSet, len(args))
			var held int64
			for i := range args {
				holds[i] = recovery.NewSet(args[i].spans)
				if i != r {
					held += holds[i].Total()
				}
			}
			// The root's caller buffer is the payload source by definition.
			holds[r].Add(0, size)

			s, mode, missing := c.chooseBcastRecovery(full, holds, size, held)
			opName := "bcast"
			if mode == recoverRepair {
				opName = "bcast.repair"
			}
			caller := func(rank int, name string) []byte {
				if name == "data" {
					return args[rank].buf
				}
				return nil
			}
			plan, err := c.state.newPlan(opName, s, caller)
			if err != nil {
				return nil, err
			}
			if c.state.world.e2eEnabled() {
				plan.digest = integrity.Digest(args[r].buf)
				plan.hasDigest = true
			}
			// Repair schedules copy at true payload offsets by construction;
			// restart marks apply under the same component rule as first runs.
			if mode == recoverRepair || args[0].comp == KNEMColl {
				attachBcastLedgers(plan, bcastLedgerArgs(args))
			}
			moved := s.TotalCopiedBytes()
			fullBytes := full.TotalCopiedBytes()
			var saved int64
			if mode == recoverRepair {
				saved = fullBytes - moved
			}
			c.state.world.tracer.Recovery("bcast", mode, missing, moved, fullBytes, saved)
			return &deltaOutcome{plan: plan, mode: mode}, nil
		})
	if err != nil {
		return "", err
	}
	out := result.(*deltaOutcome)
	return out.mode, c.runPlanVerified(out.plan, nil, func() error {
		return c.ledgerBcastVerify(out.plan, buf, root, led)
	})
}

// bcastLedgerArgs projects recovery rendezvous args onto the plain bcast
// args the ledger hook builder takes.
func bcastLedgerArgs(args []bcastDeltaArgs) []bcastArgs {
	out := make([]bcastArgs, len(args))
	for i, a := range args {
		out[i] = bcastArgs{buf: a.buf, root: a.root, comp: a.comp, led: a.led}
	}
	return out
}

// chooseBcastRecovery picks the recovery schedule: delta repair when the
// survivors hold anything worth keeping AND the machine model prices the
// repair below a fresh run; the full restart schedule otherwise. missing
// reports the missing (rank, chunk) pairs the merged ledgers imply.
func (c *Comm) chooseBcastRecovery(full *sched.Schedule, holds []*recovery.IntervalSet, size, held int64) (*sched.Schedule, string, int) {
	chunks := sched.Chunks(size, core.BroadcastChunk(size, 2))
	missing := 0
	for r := range holds {
		for _, ch := range chunks {
			if !holds[r].Contains(ch[0], ch[1]) {
				missing++
			}
		}
	}
	if held == 0 {
		// Empty ledger: repair would degenerate to a full re-broadcast over
		// a greedier tree. Restart on the purpose-built tree instead.
		return full, recoverRestart, missing
	}
	repair, err := core.CompileBcastRepair(c.distanceMatrix(), size, 0, holds)
	if err != nil || !c.repairCheaper(repair, full) {
		return full, recoverRestart, missing
	}
	return repair, recoverRepair, missing
}

// allgatherDeltaArgs is each survivor's contribution to an allgather
// recovery rendezvous. held lists the WORLD-rank origins whose block the
// member's receive buffer holds at the current layout (the resilient
// wrapper compacts the buffer after every shrink to keep that invariant).
type allgatherDeltaArgs struct {
	send, recv []byte
	comp       Component
	held       []int
	led        *recovery.SegLedger
}

// allgatherDelta re-runs a failed allgather incrementally, like
// bcastDelta: survivors keep the segments they already hold — including
// segments that reached them via a now-dead forwarder — and only the
// missing (rank, origin) pairs move, each from its minimum-distance
// surviving holder.
func (c *Comm) allgatherDelta(ctx context.Context, send, recv []byte, comp Component, led *recovery.SegLedger) (string, error) {
	_, result, err := c.coordinateCtx(ctx,
		allgatherDeltaArgs{send: send, recv: recv, comp: comp, held: led.Origins(), led: led},
		func(vals []any) (any, error) {
			args := make([]allgatherDeltaArgs, len(vals))
			for i, v := range vals {
				a, ok := v.(allgatherDeltaArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: allgather recovery coordination corrupted")
				}
				args[i] = a
				if a.comp != args[0].comp || len(a.send) != len(args[0].send) {
					return nil, fmt.Errorf("mpi: allgather recovery arguments mismatch across ranks")
				}
				if len(a.recv) != len(vals)*len(a.send) {
					return nil, fmt.Errorf("mpi: allgather recovery recv buffer is %d bytes, want %d",
						len(a.recv), len(vals)*len(a.send))
				}
			}
			block := int64(len(args[0].send))
			n := len(args)
			if block == 0 {
				return &deltaOutcome{plan: c.state.emptyPlan("allgather", n), mode: recoverRestart}, nil
			}
			full, _, err := c.buildAllgather(block, args[0].comp)
			if err != nil {
				return nil, err
			}
			group := c.state.group
			idxOf := make(map[int]int, n)
			for i, wr := range group {
				idxOf[wr] = i
			}
			holds := make([][]bool, n)
			heldCount := 0
			for v := range args {
				holds[v] = make([]bool, n)
				for _, wr := range args[v].held {
					if o, ok := idxOf[wr]; ok {
						holds[v][o] = true
						heldCount++
					}
				}
			}
			missing := n*n - heldCount
			s, mode := c.chooseAllgatherRecovery(full, holds, block, heldCount)
			opName := "allgather"
			if mode == recoverRepair {
				opName = "allgather.repair"
			}
			caller := func(rank int, name string) []byte {
				switch name {
				case "send":
					return args[rank].send
				case "recv":
					return args[rank].recv
				default:
					return nil
				}
			}
			plan, err := c.state.newPlan(opName, s, caller)
			if err != nil {
				return nil, err
			}
			if c.state.world.e2eEnabled() {
				plan.digests = make([]uint32, n)
				for i := range args {
					plan.digests[i] = integrity.Digest(args[i].send)
				}
			}
			if mode == recoverRepair || args[0].comp == KNEMColl {
				attachAllgatherLedgers(plan, allgatherLedgerArgs(args), group, block)
			}
			moved := s.TotalCopiedBytes()
			fullBytes := full.TotalCopiedBytes()
			var saved int64
			if mode == recoverRepair {
				saved = fullBytes - moved
			}
			c.state.world.tracer.Recovery("allgather", mode, missing, moved, fullBytes, saved)
			return &deltaOutcome{plan: plan, mode: mode}, nil
		})
	if err != nil {
		return "", err
	}
	out := result.(*deltaOutcome)
	return out.mode, c.runPlanVerified(out.plan, nil, func() error {
		return c.ledgerAllgatherVerify(out.plan, recv, len(send), led)
	})
}

// allgatherLedgerArgs projects recovery rendezvous args onto the plain
// allgather args the ledger hook builder takes.
func allgatherLedgerArgs(args []allgatherDeltaArgs) []allgatherArgs {
	out := make([]allgatherArgs, len(args))
	for i, a := range args {
		out[i] = allgatherArgs{send: a.send, recv: a.recv, comp: a.comp, led: a.led}
	}
	return out
}

// chooseAllgatherRecovery is chooseBcastRecovery for the allgather.
func (c *Comm) chooseAllgatherRecovery(full *sched.Schedule, holds [][]bool, block int64, heldCount int) (*sched.Schedule, string) {
	if heldCount == 0 {
		return full, recoverRestart
	}
	repair, err := core.CompileAllgatherRepair(c.distanceMatrix(), block, holds)
	if err != nil || !c.repairCheaper(repair, full) {
		return full, recoverRestart
	}
	return repair, recoverRepair
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

// compactRecv re-packs an allgather receive buffer after a shrink: the
// surviving origins' blocks move from their old layout positions to the
// new (always ≤) ones, restoring the ledger's position invariant before
// the next attempt. Only blocks the ledger actually holds move; dead
// origins' blocks are simply left behind and overwritten.
func compactRecv(recv []byte, block int64, oldGroup, newGroup []int, led *recovery.SegLedger) {
	if block <= 0 {
		return
	}
	oldIdx := make(map[int]int, len(oldGroup))
	for i, wr := range oldGroup {
		oldIdx[wr] = i
	}
	for ni, wr := range newGroup {
		oi, ok := oldIdx[wr]
		if !ok || oi == ni || !led.Holds(wr) {
			continue
		}
		copy(recv[int64(ni)*block:int64(ni+1)*block], recv[int64(oi)*block:int64(oi+1)*block])
	}
}
