package mpi

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distcoll/internal/fault"
	"distcoll/internal/recovery"
)

// This file implements the self-healing entry points: collectives that
// recover from member failures through a bounded escalation ladder
// (DESIGN.md §11):
//
//	in-place retry → delta repair → full restart → fail
//
// An end-to-end digest mismatch with no deaths is retried on the SAME
// communicator, at most MaxInPlaceRetries times with exponential backoff.
// A member failure shrinks the communicator (Agree + Shrink) and then
// recovers INCREMENTALLY: the survivors exchange their chunk progress
// ledgers and compile a delta repair plan over only the missing (rank,
// chunk) pairs — falling back to a full restart on the shrunken
// communicator when the ledger is empty or the machine model prices
// repair above a fresh run (delta.go makes that choice uniformly at the
// recovery rendezvous). Every rung is bounded: the retry budget is
// explicit, and each shrink removes at least one rank, so repair/restart
// rounds are bounded by the communicator size. A crashed caller gets its
// CrashError back unchanged — a dead rank does not recover; recovery is
// the survivors' job.

// MaxInPlaceRetries bounds in-place retries of a collective that failed a
// uniform end-to-end digest check with no member dead: each retry re-rolls
// the data path, but a mismatch that keeps reproducing is not going to fix
// itself, and an unbounded loop would spin forever on it.
const MaxInPlaceRetries = 3

// inPlaceRetryBackoff is the initial delay before an in-place retry,
// doubling per retry.
const inPlaceRetryBackoff = 50 * time.Microsecond

// maxRecoveries bounds the shrink-driven recovery rounds: each round
// removes at least one rank, so a communicator of size n can need at most
// n-1. In-place retries have their own budget (MaxInPlaceRetries) on top.
func maxRecoveries(c *Comm) int { return c.Size() }

// recoverable reports whether err means "members died; shrink and retry".
// A watchdog hang also counts when failures have in fact been detected —
// the hang may simply have fired on a rank whose failure notification
// raced the deadline. Corruption errors are recoverable too: a persistent
// per-hop checksum failure marks the corrupting peer failed (so the
// shrink path applies), and an end-to-end digest mismatch with no
// membership change is retried in place.
func recoverable(c *Comm, err error) bool {
	var rf *RankFailureError
	if errors.As(err, &rf) {
		return true
	}
	if IsCorruption(err) {
		return true
	}
	if fault.IsSevered(err) {
		// A severed copy is partition evidence. The partition rung has
		// already resolved the view; for a majority caller the minority
		// is now marked failed, so shrinking recovers on the surviving
		// component.
		return true
	}
	if IsHang(err) {
		failed, _ := c.state.world.failureWatch()
		return len(deadIn(failed, c.state.group)) > 0
	}
	return false
}

// retryInPlace reports whether the failed collective should be re-run on
// the SAME communicator: the error was uniform across members (the finish
// rendezvous guarantees that) and no member of the group is dead, so
// there is no one to shrink away — typically an end-to-end digest
// mismatch, where a retry re-rolls the data path. With any dead member,
// recovery must shrink instead.
func retryInPlace(c *Comm, err error) bool {
	if !IsCorruption(err) {
		return false
	}
	failed, _ := c.state.world.failureWatch()
	return len(deadIn(failed, c.state.group)) == 0
}

// retryBudget tracks the in-place rung of the escalation ladder. Every
// member of the communicator reaches identical decisions (used/max
// counting) because the finish rendezvous made the triggering error
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
// arguments a: run the collective; retry in place on a uniform digest
// mismatch; on member failures shrink, re-seat the arguments through the
// descriptor's after-shrink hook, and run the recovery attempt — delta
// repair where the descriptor keeps a ledger, a restart otherwise. ctx
// bounds the recovery machinery: the agreement round inside Shrink and the
// recovery rendezvous, the two phases that block on every survivor showing
// up and so can wedge indefinitely when one never does, return a HangError
// once it expires. The first-run data path keeps the world watchdog as its
// hang bound. Returns the communicator that finally completed the
// operation and the (possibly shrunken) recv buffer.
func (c *Comm) resilient(ctx context.Context, a collArgs) (*Comm, []byte, error) {
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
		if fault.IsCrashed(err) || !recoverable(cur, err) || try >= maxRecoveries(c)+MaxInPlaceRetries {
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
		if herr := a.d.afterShrink(&a, cur.state.group, next.state.group); herr != nil {
			return next, nil, herr
		}
		cur, a.recovering = next, true
	}
}

// BcastResilient broadcasts like Bcast but survives member failures: when
// the collective fails because ranks died, every survivor shrinks to the
// same successor communicator (whose distance-aware tree is rebuilt over
// the survivors' own distance view) and recovers incrementally — missing chunks are pulled from the
// minimum-distance survivors that already hold them, per the exchanged
// progress ledgers, with a full restart as fallback. root is given in c's
// rank space and must survive — a dead root is unrecoverable for a
// broadcast. Returns the communicator that finally completed the
// operation: its rank space is the survivors'. A caller whose own rank
// crashed gets its CrashError back.
func (c *Comm) BcastResilient(buf []byte, root int, comp Component) (*Comm, error) {
	return c.BcastResilientContext(context.Background(), buf, root, comp)
}

// BcastResilientContext is BcastResilient with a caller-supplied
// deadline on the recovery machinery (see Comm.resilient).
func (c *Comm) BcastResilientContext(ctx context.Context, buf []byte, root int, comp Component) (*Comm, error) {
	if root < 0 || root >= c.Size() {
		return c, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	led := recovery.NewChunkLedger(int64(len(buf)))
	if c.rank == root {
		led.MarkAll() // the root's caller buffer is the payload
	}
	cur, _, err := c.resilient(ctx, collArgs{d: &collectives[opBcast], recv: buf, root: root, comp: comp, led: chunkLedger{led}})
	return cur, err
}

// AllgatherResilient gathers like Allgather but survives member failures.
// recv must be sized for c (c.Size()·len(send) bytes); after a recovery
// the result occupies the first newComm.Size()·len(send) bytes, in the
// shrunken communicator's rank order, and is returned as the second
// result. Recovery is incremental like BcastResilient's: after each
// shrink the receive buffer is compacted to the survivors' layout, and
// segments a survivor already holds — whoever forwarded them — are served
// from that survivor instead of being re-gathered. The final communicator
// is returned like BcastResilient.
func (c *Comm) AllgatherResilient(send, recv []byte, comp Component) (*Comm, []byte, error) {
	return c.AllgatherResilientContext(context.Background(), send, recv, comp)
}

// AllgatherResilientContext is AllgatherResilient with a caller-supplied
// deadline on the recovery machinery, like BcastResilientContext.
func (c *Comm) AllgatherResilientContext(ctx context.Context, send, recv []byte, comp Component) (*Comm, []byte, error) {
	if len(recv) != c.Size()*len(send) {
		return c, nil, fmt.Errorf("mpi: allgather recv buffer is %d bytes, want %d", len(recv), c.Size()*len(send))
	}
	return c.resilient(ctx, collArgs{d: &collectives[opAllgather], send: send, recv: recv, comp: comp,
		led: segLedger{recovery.NewSegLedger()}})
}
