package mpi

import (
	"context"
	"fmt"
)

// This file implements fault-tolerant agreement — the runtime's
// MPIX_Comm_agree. After a failure, survivors may hold divergent views of
// who is dead (each one's snapshot depends on when it raced the failure
// detector), and shrinking from divergent views would produce *different*
// successor communicators on different survivors: a split-brain. Agree
// makes every survivor decide the SAME failed set, so every survivor's
// Shrink derives an identical membership.
//
// The protocol is a failure-aware reduce-broadcast over the survivors,
// run on shared agreement state rather than the (broken, fail-fast)
// collective path:
//
//  1. Each arriving member merges its local failure view into the slot's
//     union — the union only grows (monotone), so merging is order-free.
//  2. The agreement closes when every member NOT in the union has
//     arrived: anyone still missing is exactly someone the union already
//     declares dead, so waiting longer cannot change the outcome.
//  3. A member that detects a new failure while waiting merges it and
//     re-evaluates closure — the "retry on membership change" of ULFM
//     agreement: the vote restarts with the larger failed set instead of
//     delivering a verdict some survivor already knows to be stale.
//  4. Members arriving after closure adopt the closed result unchanged,
//     even if they know more: consistency wins over freshness, and their
//     extra knowledge feeds the next agreement round.

// agreeSlot is the shared state of one agreement round on a communicator.
// Slots are keyed by each member's agreement sequence number (the MPI
// same-order rule, as for collectives) and are retained for the life of
// the communicator so that stragglers — however late — still adopt the
// agreed result instead of starting a fresh, divergent round.
type agreeSlot struct {
	arrivedBy []bool
	union     map[int]bool // merged failed world ranks within the group
	rounds    int          // merges that grew the union (≥1 once closed)
	closed    bool
	result    []int // agreed failed world ranks, sorted; valid once closed
	done      chan struct{}
}

// Agree decides, consistently across every surviving member, which world
// ranks of this communicator have failed. All surviving members must call
// Agree (the resilient collectives and Shrink do); it works on broken
// communicators — that is its purpose. The returned slice is sorted and
// identical on every member that participates in the same round.
func (c *Comm) Agree() ([]int, error) {
	return c.AgreeContext(context.Background())
}

// AgreeContext is Agree with a caller-supplied deadline: when ctx
// expires before the round closes, the caller gets a HangError carrying
// the blocked-rank dump instead of blocking until the watchdog (or
// forever, on a world without one). The slot survives the abandonment —
// a member that gave up has still deposited its arrival and failure
// view, so the remaining members can close the round without it, and a
// retry adopts the closed verdict.
func (c *Comm) AgreeContext(ctx context.Context) ([]int, error) {
	st := c.state
	w := st.world
	me := st.group[c.rank]

	st.mu.Lock()
	seq := st.agreeSeqs[c.rank]
	st.agreeSeqs[c.rank]++
	slot, ok := st.agreeSlots[seq]
	if !ok {
		slot = &agreeSlot{
			arrivedBy: make([]bool, len(st.group)),
			union:     make(map[int]bool),
			done:      make(chan struct{}),
		}
		st.agreeSlots[seq] = slot
	}
	slot.arrivedBy[c.rank] = true
	st.mu.Unlock()

	desc := blockDesc{kind: blockAgree, comm: st.id, a: seq}
	w.blockEnter(me, desc)
	defer w.blockExit(me)
	var dog watchdog
	timeoutC := dog.arm(w.opDeadline)
	defer dog.disarm()

	for {
		// A member the quorum decision left in a minority component must
		// not take part in (or adopt) agreements: its verdict is the
		// PartitionError, and the majority's closure already counts it as
		// failed.
		if perr := w.partitionCheck(me); perr != nil {
			return nil, perr
		}
		// Snapshot and channel come from the same failureWatch call: any
		// failure marked before the snapshot is in it, any marked after
		// closes this channel — no detection can fall between.
		failed, failCh := w.failureWatch()
		st.mu.Lock()
		if slot.closed {
			result, rounds := slot.result, slot.rounds
			st.mu.Unlock()
			w.tracer.Agree(me, rounds, fmt.Sprintf("adopted failed=%v", result))
			return result, nil
		}
		grew := false
		for _, g := range st.group {
			if failed[g] && !slot.union[g] {
				slot.union[g] = true
				grew = true
			}
		}
		if grew {
			slot.rounds++
		}
		complete := true
		for i, g := range st.group {
			if !slot.union[g] && !slot.arrivedBy[i] {
				complete = false
				break
			}
		}
		if complete {
			// Reachability-aware closure: the would-be survivors must form
			// a mutual-reachability clique. Arrival alone is not enough —
			// with a partition in flight, members of a doomed island may
			// have deposited arrivals before the cut, and closing over them
			// would agree on a membership that spans the split.
			var survivors []int
			for _, g := range st.group {
				if !slot.union[g] {
					survivors = append(survivors, g)
				}
			}
			if w.det == nil || reachClique(w.det, survivors) {
				if slot.rounds == 0 {
					slot.rounds = 1 // a round with nothing to merge still decided
				}
				slot.result = sortedRanks(slot.union)
				slot.closed = true
				result, rounds := slot.result, slot.rounds
				close(slot.done)
				st.mu.Unlock()
				w.tracer.Agree(me, rounds, fmt.Sprintf("decided failed=%v", result))
				return result, nil
			}
			// The clique failed: force a quorum decision. A minority caller
			// exits with its PartitionError; a majority caller sees the
			// minority marked failed (failCh fires), re-merges, and closes
			// over the surviving component. When probing instead healed the
			// view (the evidence was stale), re-evaluate closure right away
			// — no failure event is coming to wake us.
			st.mu.Unlock()
			w.resolvePartition(false)
			if perr := w.partitionCheck(me); perr != nil {
				return nil, perr
			}
			if reachClique(w.det, survivors) {
				continue
			}
		} else {
			st.mu.Unlock()
		}

		select {
		case <-slot.done:
		case <-failCh:
		case <-timeoutC:
			st.mu.Lock()
			var waitingOn []int
			for i, g := range st.group {
				if !slot.union[g] && !slot.arrivedBy[i] {
					waitingOn = append(waitingOn, g)
				}
			}
			st.mu.Unlock()
			return nil, &HangError{Rank: me, Op: desc.String(), Deadline: w.opDeadline,
				Dump: w.BlockedDump(), Suspicion: w.hangSuspicion(me, waitingOn)}
		case <-ctx.Done():
			return nil, &HangError{Rank: me, Op: desc.String() + " (context)", Deadline: w.opDeadline, Dump: w.BlockedDump()}
		}
	}
}
