package mpi

import (
	"context"
	"fmt"
	"slices"
	"time"

	"distcoll/internal/fault"
)

// This file implements the self-healing entry points: every collective
// recovers from member failures through one bounded escalation ladder
// (DESIGN.md §11):
//
//	in-place retry → delta repair → full restart → fail
//
// An end-to-end digest mismatch with no deaths is retried on the SAME
// communicator, at most MaxInPlaceRetries times with exponential backoff.
// A member failure shrinks the communicator (Agree + Shrink) and then,
// where the descriptor keeps a ledger, recovers INCREMENTALLY: the survivors
// exchange their progress ledgers and compile a delta repair plan over only
// the missing (rank, chunk) pairs — falling back to a full restart on the
// shrunken communicator when there is no ledger, it is empty, or the machine
// model prices repair above a fresh run (delta.go makes that choice
// uniformly at the recovery rendezvous). Every rung is bounded: the retry
// budget is explicit, and each shrink removes at least one rank, so
// repair/restart rounds are bounded by the communicator size. A crashed
// caller gets its CrashError back unchanged — a dead rank does not recover;
// recovery is the survivors' job.

// MaxInPlaceRetries bounds in-place retries of a collective that failed a
// uniform end-to-end digest check with no member dead: each retry re-rolls
// the data path, but a mismatch that keeps reproducing is not going to fix
// itself, and an unbounded loop would spin forever on it.
const MaxInPlaceRetries = 3

// inPlaceRetryBackoff is the initial delay before an in-place retry,
// doubling per retry.
const inPlaceRetryBackoff = 50 * time.Microsecond

// recoverable reports whether err, the uniform outcome of a run on c, means
// "shrink and retry", as a rule on its classification. Excluded, from a run,
// is members dying or data failing its checks: a persistent per-hop failure
// marked the corrupting peer failed, so the shrink path applies (an
// end-to-end mismatch with nobody dead is retried in place first). A hang
// counts only when failures have in fact been detected — the watchdog may
// have fired on a rank whose failure notification raced the deadline; with
// nobody dead there is nobody to shrink away. A severed copy is partition
// evidence: the partition rung has already resolved the view, and for a
// majority caller the minority is now marked failed.
func recoverable(c *Comm, err error) bool {
	switch Classify(err) {
	case OutcomeExcluded:
		return true
	case OutcomeHang:
		return c.anyDead()
	case OutcomeFailure:
		return fault.IsSevered(err)
	}
	return false
}

// retryInPlace reports whether the failed collective should be re-run on
// the SAME communicator: the error was uniform across members (the completion
// barrier guarantees that) and no member of the group is dead, so
// there is no one to shrink away — typically an end-to-end digest
// mismatch, where a retry re-rolls the data path. With any dead member,
// recovery must shrink instead.
func retryInPlace(c *Comm, err error) bool {
	return IsCorruption(err) && !c.anyDead()
}

// anyDead reports whether a member of c is marked failed.
func (c *Comm) anyDead() bool {
	failed, _ := c.state.world.failureWatch()
	return slices.ContainsFunc(c.state.group, func(wr int) bool { return failed[wr] })
}

// retryBudget tracks the in-place rung of the escalation ladder. Every
// member of the communicator reaches identical decisions (used/max
// counting) because the completion barrier made the triggering error
// uniform; only the jittered sleep length differs per rank, which is the
// point — decorrelated retries keep the re-rolled data paths from
// re-colliding in lockstep.
type retryBudget struct {
	used    int
	max     int
	backoff time.Duration
	seed    uint64
}

// newRetryBudget seeds the jitter stream; callers pass a (comm id, rank)
// mix so retries decorrelate across ranks yet replay identically run to
// run — tests can assert exact sleep sequences.
func newRetryBudget(seed uint64) *retryBudget {
	return &retryBudget{max: MaxInPlaceRetries, backoff: inPlaceRetryBackoff, seed: seed}
}

// jitterMix is a splitmix64-style finalizer: a deterministic, well-mixed
// 64-bit hash of (seed, attempt) that drives backoff jitter.
func jitterMix(seed, attempt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(attempt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next returns this attempt's jittered delay — uniform in
// [backoff/2, backoff) — and doubles the base for the next one.
func (b *retryBudget) next() time.Duration {
	base := b.backoff
	b.backoff *= 2
	half := base / 2
	if half <= 0 {
		return base
	}
	return half + time.Duration(jitterMix(b.seed, uint64(b.used))%uint64(half))
}

// spend consumes one in-place retry, sleeping the jittered backoff. It
// returns an error once the budget is exhausted — the ladder's terminal
// rung for a persistent mismatch that shrinking cannot help — and returns
// promptly (wrapping ctx's cause) when the caller's context is canceled
// mid-backoff, so a deadline is honored even while the ladder sleeps.
func (b *retryBudget) spend(ctx context.Context, op string, cause error) error {
	if b.used >= b.max {
		return fmt.Errorf("mpi: %s in-place retry budget (%d) exhausted: %w", op, b.max, cause)
	}
	d := b.next()
	b.used++
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("mpi: %s in-place retry canceled during backoff: %w", op, context.Cause(ctx))
	}
}

// resilient is the one escalation ladder, run by every member with its own
// arguments a, for every descriptor and the barrier (Comm.Resilient states
// the contract): run; retry in place on a uniform digest mismatch; on member
// failures shrink, re-seat the arguments (collArgs.reseat) and run the
// recovery attempt — delta repair where the descriptor keeps a ledger, a
// restart otherwise. ctx bounds the recovery machinery: the agreement round
// inside Shrink and the recovery rendezvous block on every survivor showing
// up, so can wedge when one never does, and return a HangError once it
// expires. The first-run data path keeps the world watchdog as its bound.
func (c *Comm) resilient(ctx context.Context, a collArgs) (*Comm, []byte, error) {
	if a.d.ledger != "" { // the member slot's ledger; collArgs.reseat re-seats it after a shrink
		a.led = &c.state.mem[c.rank].led
		a.led.Restart(int64(len(a.d.bound(&a, a.d.ledger, true))))
	}
	cur := c
	budget := newRetryBudget(uint64(c.state.id)<<32 | uint64(c.rank))
	for try := 0; ; try++ {
		runCtx := context.Background()
		if a.recovering {
			runCtx = ctx
		}
		err := cur.run(runCtx, a)
		a.recovering = false
		if err == nil {
			return cur, a.recv, nil
		}
		// Partition rung: partition-shaped evidence forces a quorum
		// decision before the ladder escalates. A minority caller's
		// PartitionError is terminal; a majority caller continues down
		// the ladder and shrinks around the fenced minority.
		if perr := cur.partitionRung(err); perr != nil {
			return cur, nil, perr
		}
		// Each shrink removes at least one rank, so c can need at most
		// Size()-1 of them; in-place retries have their own budget on top.
		if !recoverable(cur, err) || try >= c.Size()+MaxInPlaceRetries {
			return cur, nil, err
		}
		if retryInPlace(cur, err) {
			if berr := budget.spend(ctx, a.d.name, err); berr != nil {
				return cur, nil, berr
			}
			if cur.rank == 0 {
				cur.state.world.tracer.Recovery(a.d.name, recoverRetry, 0, 0, 0, 0)
			}
			continue
		}
		next, serr := cur.ShrinkContext(ctx)
		if serr != nil {
			return cur, nil, serr
		}
		if rerr := a.reseat(cur.state.group, next.state.group, next.rank); rerr != nil {
			return next, nil, rerr
		}
		cur, a.recovering = next, true
	}
}

// Call names one collective call for Comm.Resilient, by value: the
// arguments of the plain entry point of the same name.
type Call struct {
	Coll       string // "bcast", "allgather", "reduce", "allreduce", "gather", "scatter", "alltoall" or "barrier"
	Send, Recv []byte // Recv is Bcast's buffer; unused roles stay nil
	Root       int    // communicator rank of a rooted collective's root, else 0
	Op         ReduceOp
	Comp       Component
}

// Resilient runs any collective, or a barrier, so that it survives member
// failures: when it fails because ranks died, every survivor shrinks to the
// same successor communicator (its distance-aware topology rebuilt over the
// survivors' own distance view) and runs it again there. Bcast and Allgather
// recover incrementally — what a survivor already holds, whoever forwarded
// it, is served from the minimum-distance holder per the exchanged progress
// ledgers, with a full restart as fallback; the other collectives restart.
// Root must survive: a dead root is ErrRootLost on every survivor.
// Buffers are sized for c; after a recovery the survivors' layout occupies
// the front of every Size()·block buffer — compacted in place, so a Scatter
// root's or Alltoall's SEND buffer is modified too — and the shortened recv
// is the second result. The first is the communicator that completed the
// operation. A caller whose own rank crashed gets its CrashError back;
// arguments are checked at the rendezvous, with one error for every member.
func (c *Comm) Resilient(ctx context.Context, call Call) (*Comm, []byte, error) {
	d := collectiveByName(call.Coll)
	if d == nil {
		return c, nil, fmt.Errorf("mpi: unknown collective %q", call.Coll)
	}
	return c.resilient(ctx, collArgs{d: d, send: call.Send, recv: call.Recv, root: call.Root, comp: call.Comp, op: call.Op})
}

// BcastResilient is Bcast on the resilient ladder (Comm.Resilient).
func (c *Comm) BcastResilient(buf []byte, root int, comp Component) (*Comm, error) {
	return c.BcastResilientContext(context.Background(), buf, root, comp)
}

// BcastResilientContext is BcastResilient with a caller-supplied
// deadline on the recovery machinery (see Comm.resilient).
func (c *Comm) BcastResilientContext(ctx context.Context, buf []byte, root int, comp Component) (*Comm, error) {
	cur, _, err := c.resilient(ctx, collArgs{d: &collectives[opBcast], recv: buf, root: root, comp: comp})
	return cur, err
}

// AllgatherResilient is Allgather on the resilient ladder (Comm.Resilient).
// recv must be sized for c (c.Size()·len(send) bytes); after a recovery the
// result occupies the first newComm.Size()·len(send) bytes, in the shrunken
// communicator's rank order, and is returned as the second result.
func (c *Comm) AllgatherResilient(send, recv []byte, comp Component) (*Comm, []byte, error) {
	return c.AllgatherResilientContext(context.Background(), send, recv, comp)
}

// AllgatherResilientContext is AllgatherResilient with a caller-supplied
// deadline on the recovery machinery, like BcastResilientContext.
func (c *Comm) AllgatherResilientContext(ctx context.Context, send, recv []byte, comp Component) (*Comm, []byte, error) {
	return c.resilient(ctx, collArgs{d: &collectives[opAllgather], send: send, recv: recv, comp: comp})
}
