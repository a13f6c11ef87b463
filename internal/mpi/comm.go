package mpi

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"distcoll/internal/distance"
	"distcoll/internal/health"
	"distcoll/internal/tune"
)

// commState is the shared (cross-process) state of one communicator.
type commState struct {
	world *World
	id    int64 // unique per world; keys the shrink registry
	group []int // comm rank → world rank

	mu sync.Mutex

	// seqs[commRank] counts collectives issued by that member, guarded by
	// mu; members invoke collectives in the same order (the MPI rule), so
	// equal seq values identify the same logical collective.
	seqs  []int
	slots map[int]*collSlot

	// Per-member parking state, indexed by communicator rank and created
	// with the communicator. wake is the member's channel in the executor's
	// wake protocol (exec.Progress): capacity 1, reused by every collective
	// on the communicator. dogs is the member's watchdog timer, re-armed per
	// blocking wait instead of allocated; only the member's own goroutine
	// touches it.
	wake []chan struct{}
	dogs []watchdog
	// mem is the member's execution slot: the exec.Hooks value of the
	// collective it is running, filled in place by Comm.execute. Between
	// calls it holds nothing but the landing buffer of kernel-assisted
	// reduces, so a warm reduction allocates none.
	mem []member

	// Agreement rounds use their own sequence space and slots: Agree must
	// run on a broken communicator, below the fail-fast collective path.
	// Slots are retained (never deleted) so late arrivals adopt the closed
	// verdict; the count is bounded by the shrink-retry loop.
	agreeSeqs  []int
	agreeSlots map[int]*agreeSlot

	// broken is set when a member failure surfaces in an operation on this
	// communicator; every later collective fails fast with a
	// RankFailureError (ULFM semantics) until the survivors Shrink.
	broken bool

	// view is the communicator's one base view — a pure function of (world
	// topology, member cores), O(n) state on one machine as on a cluster,
	// built on first use — so a world, split or shrunken communicator all
	// derive it the same way and nothing in the runtime holds an O(n²)
	// matrix. Process placement is fixed for a communicator's lifetime;
	// the trees, rings and schedules built over the view live in the
	// world's plan cache and nowhere else (the §V-B overhead concern).
	// Guarded by mu.
	view *distance.Clustered

	// topoHash fingerprints the view for plan-cache keys (computed
	// lazily; topoHashed marks validity so hash 0 stays unambiguous).
	topoHash   uint64
	topoHashed bool

	// fingerprint is what the selector matches the view by, cached beside
	// topoHash and dropped whenever that is recomputed (fingerprintLocked);
	// the zero value (no procs) is "not computed".
	fingerprint tune.Fingerprint

	// healthSnap is the demotion snapshot last applied to this
	// communicator's topology hash (nil until the first lookup on a
	// health-enabled world). When the scorer publishes a new revision,
	// the next lookup drops topoHash and re-wraps the view.
	healthSnap *health.Snapshot

	// epochSeen is the partition epoch last folded into this
	// communicator's topology hash. When a quorum decision advances the
	// epoch, the next lookup drops topoHash so no plan compiled before
	// the decision survives into the new epoch.
	epochSeen int64
}

func newCommState(w *World, group []int) *commState {
	st := &commState{
		world:      w,
		id:         w.ncomm.Add(1),
		group:      group,
		seqs:       make([]int, len(group)),
		slots:      make(map[int]*collSlot),
		wake:       make([]chan struct{}, len(group)),
		dogs:       make([]watchdog, len(group)),
		mem:        make([]member, len(group)),
		agreeSeqs:  make([]int, len(group)),
		agreeSlots: make(map[int]*agreeSlot),
	}
	for i := range st.wake {
		st.wake[i] = make(chan struct{}, 1)
	}
	return st
}

// watchdog is one member's reusable deadline timer. Re-arming a timer
// whose previous tick was never received can deliver that stale tick
// early, so a tick only counts once the clock agrees (expired).
type watchdog struct {
	t        *time.Timer
	deadline time.Time
}

// arm starts the watchdog for one blocking wait of at most d and returns
// its channel (nil — never firing — when d disables the watchdog).
func (wd *watchdog) arm(d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	wd.deadline = time.Now().Add(d)
	if wd.t == nil {
		wd.t = time.NewTimer(d)
	} else {
		wd.t.Reset(d)
	}
	return wd.t.C
}

// expired reports whether a received tick is the armed deadline; on a
// stale early tick it re-arms for the remainder instead.
func (wd *watchdog) expired() bool {
	if rem := time.Until(wd.deadline); rem > 0 {
		wd.t.Reset(rem)
		return false
	}
	return true
}

func (wd *watchdog) disarm() {
	if wd.t != nil {
		wd.t.Stop()
	}
}

// setBroken marks the communicator unusable after a member failure and
// drops its cached plans: any later collective on this topology goes
// through a fault-triggered rebuild (Shrink), so the compiled schedules
// must not outlive the failure.
func (st *commState) setBroken() {
	st.mu.Lock()
	st.broken = true
	hashed, topo := st.topoHashed, st.topoHash
	st.mu.Unlock()
	if hashed {
		st.world.plans.InvalidateTopoOf(topo, st.world.tenant)
	}
}

// baseViewLocked returns the communicator's own distance view, computing
// it from the runtime binding on first use. Callers hold st.mu.
func (st *commState) baseViewLocked() *distance.Clustered {
	if st.view == nil {
		w := st.world
		cores := make([]int, len(st.group))
		for i, wr := range st.group {
			cores[i] = w.bind.CoreOf(wr)
		}
		cv, err := distance.NewClustered(w.Topology(), cores)
		if err != nil {
			// The binding was validated against this topology.
			panic("mpi: " + err.Error())
		}
		st.view = cv
	}
	return st.view
}

// baseView is baseViewLocked for callers not holding st.mu.
func (st *commState) baseView() *distance.Clustered {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.baseViewLocked()
}

// healthLocked refreshes the communicator's demotion snapshot from the
// world's gray-failure scorer (nil when health is off). A new revision
// drops the topology hash, so the next call keys a fresh plan compiled
// over the re-wrapped view: this is how a demotion forces replan on next
// use without any eager notification fan-out. Callers hold st.mu.
func (st *commState) healthLocked() *health.Snapshot {
	s := st.world.scorer
	if s == nil {
		return nil
	}
	if snap := s.Snapshot(); st.healthSnap == nil || st.healthSnap.Rev() != snap.Rev() {
		st.healthSnap = snap
		st.topoHashed = false
	}
	return st.healthSnap
}

// epochLocked returns the world's partition epoch, dropping the topology
// hash when a quorum decision advanced it since the last lookup — the
// same pattern as healthLocked, keyed on the epoch instead of the
// demotion revision. Callers hold st.mu.
func (st *commState) epochLocked() int64 {
	epoch := st.world.PartitionEpoch()
	if epoch != st.epochSeen {
		st.epochSeen = epoch
		st.topoHashed = false
	}
	return epoch
}

// viewLocked returns the distance view collective construction should run
// over: the base view, overlaid with the current demotion snapshot when
// the world runs gray-failure detection (the overlay passes the base
// view through untouched while no member edge is demoted). Callers hold
// st.mu.
func (st *commState) viewLocked() distance.View {
	base := st.baseViewLocked()
	if snap := st.healthLocked(); snap != nil {
		return health.WrapView(base, st.group, snap)
	}
	return base
}

// collSlot synchronizes one collective call across the communicator.
type collSlot struct {
	vals      []any
	arrivedBy []bool
	arrived   int
	left      int
	ready     chan struct{}
	result    any
	err       error
}

// Comm is one process's handle on a communicator. The per-member sequence
// counters rely on MPI's rule that all members invoke collectives on a
// communicator in the same order.
type Comm struct {
	state *commState
	rank  int
	proc  *Proc
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.state.group) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.state.group[r] }

// Group returns the communicator's membership: the world ranks in
// communicator-rank order, as a copy the caller owns.
func (c *Comm) Group() []int { return slices.Clone(c.state.group) }

// RankOf translates a world rank to its communicator rank; -1 when the
// world rank is not a member.
func (c *Comm) RankOf(worldRank int) int { return slices.Index(c.state.group, worldRank) }

// Proc returns the owning process handle.
func (c *Comm) Proc() *Proc { return c.proc }

// Broken reports whether a member failure has broken this communicator.
func (c *Comm) Broken() bool {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.broken
}

// coordinate deposits val, blocks until every member arrived, and returns
// all members' values plus a result computed exactly once (by the last
// arriver) from the full value set. A nil build yields a nil result.
//
// The wait is failure-aware and watchdogged: if a member that has not yet
// arrived is marked failed, the rendezvous can never complete, so every
// waiter returns a RankFailureError and the communicator is marked broken;
// if the world's op deadline expires first, the waiter returns a HangError
// with the blocked-rank dump. Detection is event-driven (the world's
// failure channel), never polled.
func (c *Comm) coordinate(val any, build func(vals []any) (any, error)) ([]any, any, error) {
	return c.coordinateCtx(context.Background(), val, build)
}

// coordinateCtx is coordinate with a caller-supplied deadline for the
// wait phase: a ctx that expires before the rendezvous completes
// returns a HangError, like the watchdog. The deposited value stays —
// the remaining members can still close the rendezvous without the
// abandoning caller.
func (c *Comm) coordinateCtx(ctx context.Context, val any, build func(vals []any) (any, error)) ([]any, any, error) {
	st := c.state
	w := st.world
	n := len(st.group)
	wr := st.group[c.rank]

	// Partition gate first: a caller the quorum decision left outside
	// the surviving component fails with its PartitionError, never with
	// the generic broken-communicator error — and the gate's probe
	// cadence is what bounds detection for workloads that move no
	// payload bytes.
	if err := w.partitionGate(wr); err != nil {
		return nil, nil, err
	}

	st.mu.Lock()
	if st.broken {
		st.mu.Unlock()
		failed, _ := w.failureWatch()
		return nil, nil, &RankFailureError{Failed: deadIn(failed, st.group)}
	}
	seq := st.seqs[c.rank]
	st.seqs[c.rank]++
	slot, ok := st.slots[seq]
	if !ok {
		slot = &collSlot{vals: make([]any, n), arrivedBy: make([]bool, n), ready: make(chan struct{})}
		st.slots[seq] = slot
	}
	slot.vals[c.rank] = val
	slot.arrivedBy[c.rank] = true
	slot.arrived++
	last := slot.arrived == n
	st.mu.Unlock()

	if last {
		if build != nil {
			slot.result, slot.err = build(slot.vals)
		}
		close(slot.ready)
	} else if err := c.awaitSlot(ctx, slot, seq, wr); err != nil {
		return nil, nil, err
	}

	vals, result, err := slot.vals, slot.result, slot.err
	st.mu.Lock()
	slot.left++
	if slot.left == n {
		delete(st.slots, seq)
	}
	st.mu.Unlock()
	return vals, result, err
}

// awaitSlot blocks until the slot's rendezvous completes, a member failure
// makes completion impossible, the watchdog deadline expires, or the
// caller's context is done.
func (c *Comm) awaitSlot(ctx context.Context, slot *collSlot, seq int, wr int) error {
	st := c.state
	w := st.world
	select {
	case <-slot.ready:
		return nil
	default:
	}
	desc := blockDesc{kind: blockSync, comm: st.id, a: seq}
	w.blockEnter(wr, desc)
	defer w.blockExit(wr)
	dog := &st.dogs[c.rank]
	timeoutC := dog.arm(w.opDeadline)
	defer dog.disarm()
	for {
		failed, failCh := w.failureWatch()
		st.mu.Lock()
		var deadWaiting bool
		for i, g := range st.group {
			if failed[g] && !slot.arrivedBy[i] {
				deadWaiting = true
				break
			}
		}
		// A broken communicator with members still missing can never
		// complete either: a member that detected corruption (or any
		// failure) left the collective without arriving, and every member
		// yet to arrive will fail fast at the coordinate entry check. The
		// entry check and arrival share one critical section, so observing
		// broken with arrivals outstanding is permanent.
		if !deadWaiting && st.broken && slot.arrived < len(st.group) {
			deadWaiting = true
		}
		if deadWaiting {
			st.broken = true
			st.mu.Unlock()
			// A caller the quorum decision fenced reports its partition
			// verdict, not the generic failure the majority sees.
			if perr := w.partitionCheck(wr); perr != nil {
				return perr
			}
			return &RankFailureError{Failed: deadIn(failed, st.group)}
		}
		st.mu.Unlock()
		select {
		case <-slot.ready:
			return nil
		case <-failCh:
		case <-timeoutC:
			if !dog.expired() {
				continue
			}
			st.mu.Lock()
			var missing []int
			for i, g := range st.group {
				if !slot.arrivedBy[i] {
					missing = append(missing, g)
				}
			}
			st.mu.Unlock()
			return &HangError{Rank: wr, Op: desc.String(), Deadline: w.opDeadline,
				Dump: w.BlockedDump(), Suspicion: w.hangSuspicion(wr, missing)}
		case <-ctx.Done():
			return &HangError{Rank: wr, Op: desc.String() + " (context)", Deadline: w.opDeadline, Dump: w.BlockedDump()}
		}
	}
}

// Barrier blocks until every member has entered it. It returns a
// RankFailureError if a member died instead of arriving.
func (c *Comm) Barrier() error {
	_, _, err := c.coordinate(nil, nil)
	return err
}

// Shrink builds a new communicator over the surviving members of this
// (typically broken) one — the MPIX_Comm_shrink of the runtime. Every
// survivor must call Shrink. The survivor set is decided by Agree, never
// by this member's private failure snapshot: two survivors racing the
// failure detector can hold different views of who is dead, and shrinking
// from those views would register two different successor communicators —
// a split-brain. After agreement, every survivor derives the identical
// membership and rendezvouses on the same shared state.
//
// The group keeps the parent's rank order, and the child derives its
// distance view from the survivors' cores like any communicator, so the
// first collective on the shrunken communicator rebuilds its
// distance-aware tree/ring over exactly the surviving processes.
func (c *Comm) Shrink() (*Comm, error) {
	return c.ShrinkContext(context.Background())
}

// ShrinkContext is Shrink with a caller-supplied deadline on the
// agreement round — the phase that can wedge when a survivor never
// calls Shrink. A ctx that expires surfaces as a HangError from the
// agreement, leaving the communicator state unchanged.
func (c *Comm) ShrinkContext(ctx context.Context) (*Comm, error) {
	st := c.state
	w := st.world
	me := st.group[c.rank]
	failed, _ := w.failureWatch()
	if failed[me] {
		return nil, fmt.Errorf("mpi: rank %d is itself failed; %w", me, ErrSelfFailed)
	}
	agreed, err := c.AgreeContext(ctx) // sorted
	if err != nil {
		return nil, err
	}
	dead := func(wr int) bool { _, found := slices.BinarySearch(agreed, wr); return found }
	if dead(me) {
		// The agreement can out-know the local snapshot: e.g. a peer
		// declared this rank corrupting while it was entering Shrink.
		return nil, fmt.Errorf("mpi: rank %d is itself failed; %w", me, ErrSelfFailed)
	}
	aliveWorld := slices.DeleteFunc(slices.Clone(st.group), dead) // keeps the parent's rank order
	if len(aliveWorld) == len(st.group) {
		return nil, fmt.Errorf("mpi: no failed members in communicator %d; %w", st.id, ErrNothingToShrink)
	}

	// The parent's compiled plans are dead with its members: drop them
	// from the world cache before deriving the child.
	st.invalidatePlans()

	key := fmt.Sprintf("%d|%v", st.id, aliveWorld)
	w.smu.Lock()
	ns, ok := w.shrunk[key]
	if !ok {
		ns = newCommState(w, aliveWorld)
		w.shrunk[key] = ns
	}
	w.smu.Unlock()
	return &Comm{state: ns, rank: slices.Index(ns.group, me), proc: c.proc}, nil
}

// splitSpec is the per-rank contribution to a Split.
type splitSpec struct {
	color, key, commRank int
}

// Split partitions the communicator by color; within each new
// communicator members are ordered by (key, old rank), like MPI_Comm_split.
// A negative color yields a nil communicator for that member.
func (c *Comm) Split(color, key int) (*Comm, error) {
	_, result, err := c.coordinate(splitSpec{color: color, key: key, commRank: c.rank},
		func(vals []any) (any, error) {
			byColor := make(map[int][]splitSpec)
			for _, v := range vals {
				s, ok := v.(splitSpec)
				if !ok {
					return nil, fmt.Errorf("mpi: split coordination corrupted")
				}
				if s.color >= 0 {
					byColor[s.color] = append(byColor[s.color], s)
				}
			}
			states := make(map[int]*commState)
			for color, members := range byColor {
				sort.Slice(members, func(a, b int) bool {
					if members[a].key != members[b].key {
						return members[a].key < members[b].key
					}
					return members[a].commRank < members[b].commRank
				})
				group := make([]int, len(members))
				for i, m := range members {
					group[i] = c.state.group[m.commRank]
				}
				states[color] = newCommState(c.state.world, group)
			}
			return states, nil
		})
	if err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	states := result.(map[int]*commState)
	st := states[color]
	for newRank, wr := range st.group {
		if wr == c.state.group[c.rank] {
			return &Comm{state: st, rank: newRank, proc: c.proc}, nil
		}
	}
	return nil, fmt.Errorf("mpi: rank %d missing from split group", c.rank)
}
