package mpi

import (
	"fmt"

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
// checksums, end-to-end digests and the finish outcome vote all apply to
// repair traffic exactly as they do to first-run traffic.

// Recovery decision modes, as traced by Tracer.Recovery.
const (
	recoverRepair  = "repair"
	recoverRestart = "restart"
	recoverRetry   = "retry"
)

// ledger is one member's progress record behind incremental recovery, as
// the shared path sees it: what the member's completed ops (mark) and
// verified results (markAll) add to it, and the clear after a failed
// end-to-end digest. The two shapes wrap the recovery package's ledgers;
// each descriptor's repair function reads its own shape back.
type ledger interface {
	// mark records what op o of schedule s landed in the member's buffer.
	mark(s *sched.Schedule, o *sched.Op, group []int)
	// markAll records the whole result held.
	markAll(group []int)
	Reset()
}

// chunkLedger tracks held byte spans of a broadcast payload: every pull
// into the "data" buffer marks its span. Offsets in the distance-aware
// broadcast schedule are true payload offsets, so the mark is exact; with
// integrity on, it runs only after the per-hop checksum verified.
type chunkLedger struct{ *recovery.ChunkLedger }

func (l chunkLedger) mark(s *sched.Schedule, o *sched.Op, _ []int) {
	if s.Buffers[o.Dst].Name == "data" {
		l.MarkHeld(o.DstOff, o.Bytes)
	}
}

func (l chunkLedger) markAll([]int) { l.MarkAll() }

// segLedger tracks held allgather segments: a whole block landing at a
// block-aligned recv offset marks that origin's segment. Origins are
// recorded as WORLD ranks (group translates the layout index), so the
// marks survive communicator shrinks.
type segLedger struct{ *recovery.SegLedger }

func (l segLedger) mark(s *sched.Schedule, o *sched.Op, group []int) {
	dst := &s.Buffers[o.Dst]
	block := dst.Bytes / int64(len(group))
	if dst.Name == "recv" && o.Bytes == block && o.DstOff%block == 0 {
		l.MarkHeld(group[o.DstOff/block])
	}
}

func (l segLedger) markAll(group []int) { l.MarkHeldAll(group) }

// chooseRecovery picks the schedule of a recovery attempt: delta repair
// when the survivors hold anything worth keeping AND the machine model
// prices the repair below a fresh run; the full restart schedule otherwise
// — always, for a descriptor without a ledger. missing reports the missing
// pieces the merged ledgers imply.
func (c *Comm) chooseRecovery(d *collective, vals []any, full *sched.Schedule, unit int64) (*sched.Schedule, string, int) {
	if d.repair == nil {
		return full, recoverRestart, 0
	}
	repair, missing := d.repair(c, vals, unit)
	if repair == nil || !c.repairCheaper(repair, full) {
		return full, recoverRestart, missing
	}
	return repair, recoverRepair, missing
}

// bcastRepair merges the survivors' chunk ledgers: missing chunks are
// pulled from the minimum-distance survivors that verifiably hold them.
// missing counts (rank, chunk) pairs.
func bcastRepair(c *Comm, vals []any, size int64) (*sched.Schedule, int) {
	root := vals[0].(*collArgs).root
	holds := make([]*recovery.IntervalSet, len(vals))
	var held int64
	for i, v := range vals {
		holds[i] = recovery.NewSet(v.(*collArgs).led.(chunkLedger).Spans())
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

// allgatherRepair merges the survivors' segment ledgers: survivors keep
// the segments they already hold — including segments that reached them
// via a now-dead forwarder — and only the missing (rank, origin) pairs
// move, each from its minimum-distance surviving holder. Each ledger lists
// the WORLD-rank origins whose block the member's receive buffer holds at
// the current layout (compactRecv keeps that invariant across shrinks).
func allgatherRepair(c *Comm, vals []any, block int64) (*sched.Schedule, int) {
	n := len(vals)
	idxOf := make(map[int]int, n)
	for i, wr := range c.state.group {
		idxOf[wr] = i
	}
	holds := make([][]bool, n)
	held := 0
	for i, v := range vals {
		holds[i] = make([]bool, n)
		for _, wr := range v.(*collArgs).led.(segLedger).Origins() {
			if o, ok := idxOf[wr]; ok {
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

// relocateRoot is the broadcast's after-shrink hook: the root keeps its
// world rank but may have moved in the survivors' rank space — and must
// have survived, a dead root being unrecoverable for a broadcast.
func relocateRoot(a *collArgs, old, cur []int) error {
	rootWorld := old[a.root]
	for i, wr := range cur {
		if wr == rootWorld {
			a.root = i
			return nil
		}
	}
	return fmt.Errorf("mpi: broadcast root (world rank %d) failed; cannot recover", rootWorld)
}

// compactRecv is the allgather's after-shrink hook. It re-packs the receive
// buffer: the surviving origins' blocks move from their old layout
// positions to the new (always ≤) ones, restoring the ledger's position
// invariant before the next attempt, and recv shrinks to the survivors'
// layout. Only blocks the ledger actually holds move; dead origins' blocks
// are simply left behind and overwritten.
func compactRecv(a *collArgs, old, cur []int) error {
	block, led := len(a.send), a.led.(segLedger)
	oldIdx := make(map[int]int, len(old))
	for i, wr := range old {
		oldIdx[wr] = i
	}
	for ni, wr := range cur {
		if oi, ok := oldIdx[wr]; ok && oi != ni && led.Holds(wr) {
			copy(a.recv[ni*block:(ni+1)*block], a.recv[oi*block:(oi+1)*block])
		}
	}
	a.recv = a.recv[:len(cur)*block]
	return nil
}
