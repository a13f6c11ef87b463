package mpi

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distcoll/internal/distance"
	"distcoll/internal/health"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// commState is the shared (cross-process) state of one communicator.
type commState struct {
	world *World
	id    int64 // unique per world; keys the shrink registry
	group []int // comm rank → world rank

	mu sync.Mutex

	// seqs[commRank] counts the rendezvous that member has arrived at,
	// guarded by mu; members invoke collectives in the same order (the MPI
	// rule), so equal values identify the same logical collective, its
	// generation. rv: the two generations that can be live at once, by seq&1.
	seqs []int64
	rv   [2]rendezvous

	// Per-member parking state by communicator rank, created with the
	// communicator. wake is the member's channel in the one wake protocol
	// (exec.Progress's): capacity 1, shared by every rendezvous, dependency
	// and completion wait. dogs is its watchdog timer, re-armed per wait.
	wake []chan struct{}
	dogs []watchdog
	// mem is the member's execution slot: the exec.Hooks value of the
	// collective it is running, filled in place by Comm.runPlan. Between
	// calls it holds only the landing buffer of kernel-assisted reduces.
	mem []member

	// slab backs the next plan's auxiliary buffers and spare is the next
	// plan. One owner at a time: the communicator between calls, the plan
	// from newPlan until its last member hands both back after a clean call
	// (closePlan); after a failed one neither comes back. The slab is never
	// cleared: no schedule reads an auxiliary byte before writing it. A spare
	// is reset only by the next generation's builder, which runs once every
	// member has arrived there, so has read the last verdict (DESIGN.md
	// §17). emptyIdx is every zero-byte plan's op-less schedule. Only plan
	// builders and last leavers touch these, and the rendezvous orders those.
	slab     []byte
	spare    *collPlan
	emptyIdx *sched.Index

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
	// matrix. The trees, rings and schedules built over it live in the
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
		seqs:       make([]int64, len(group)),
		wake:       make([]chan struct{}, len(group)),
		dogs:       make([]watchdog, len(group)),
		mem:        make([]member, len(group)),
		agreeSeqs:  make([]int, len(group)),
		agreeSlots: make(map[int]*agreeSlot),
	}
	for i := range st.wake {
		st.wake[i] = make(chan struct{}, 1)
	}
	for i := range st.rv {
		st.rv[i].args = make([]collArgs, len(group))
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
	st.mu.Unlock()
	st.invalidatePlans()
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

// slabCap is the most a communicator keeps; a plan needing more allocates.
const slabCap = 1 << 20

// rendezvous is the record of one generation (from 1) of a communicator's
// meeting point (DESIGN.md §17). Two suffice: a member arrives at g+2 only
// after g+1 closed, so after every member arrived at g+1 and is done with g.
// Guarded by commState.mu until the generation closes, read-only after.
type rendezvous struct {
	arrived int          // back to 0 when the last member arrives
	closed  atomic.Int64 // the last generation closed here: stored by its last arriver, who then wakes the others

	// Typed deposits by communicator rank. A member runs its share of the
	// plan off its collArgs here (member.a); the last leaver clears them,
	// so a finished call pins no caller buffer. The first Split makes splits.
	args   []collArgs
	splits []splitSpec

	plan *collPlan // what the last arriver built; nil for a barrier or split
	err  error     // or the error every member returns
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

// coordinate is the communicator's one rendezvous, behind every collective,
// Barrier and Split: deposit this member's typed value into the generation's
// record (under the communicator lock), block until every member arrived
// (await), and return the record, whose result build computed exactly once,
// on the last arriver, from all deposits. The deposit of a member that gave
// up waiting (watchdog, ctx) stays, so the others can still close the
// generation; until they have it is out of step, and its next call fails
// fast before depositing anything.
func (c *Comm) coordinate(ctx context.Context, deposit func(*rendezvous), build func(*rendezvous) error) (*rendezvous, error) {
	st := c.state
	w := st.world
	wr := st.group[c.rank]

	// Partition gate first: a caller the quorum decision left out fails with
	// its PartitionError, never the generic broken-communicator error — and
	// the gate's probe cadence bounds detection when no payload bytes move.
	if err := w.partitionGate(wr); err != nil {
		return nil, err
	}

	// The broken check and the arrival share one critical section (await).
	st.mu.Lock()
	if st.broken {
		st.mu.Unlock()
		failed, _ := w.failureWatch()
		return nil, &RankFailureError{Failed: deadIn(failed, st.group)}
	}
	gen := st.seqs[c.rank] + 1
	if prev := &st.rv[(gen-1)&1]; prev.closed.Load() != gen-1 {
		st.mu.Unlock()
		desc := blockDesc{kind: blockSync, comm: st.id, a: int(gen - 1)}
		return nil, &HangError{Rank: wr, Op: desc.String() + " (out of step: abandoned, still open)", Deadline: w.opDeadline, Dump: w.BlockedDump()}
	}
	st.seqs[c.rank] = gen
	rv := &st.rv[gen&1]
	deposit(rv)
	rv.arrived++
	last := rv.arrived == len(st.group)
	if last {
		rv.arrived = 0
	}
	st.mu.Unlock()

	if last {
		rv.plan = nil
		rv.err = build(rv)
		rv.closed.Store(gen)
		st.wakeAll()
	} else if err := c.await(ctx, blockDesc{kind: blockSync, comm: st.id, a: int(gen)}, &rv.closed, gen,
		func(i int) bool { return st.seqs[i] >= gen }); err != nil {
		return nil, err
	}
	return rv, rv.err
}

// wakeAll offers every member a wake token, after the word it checks was stored.
func (st *commState) wakeAll() {
	for _, ch := range st.wake {
		select {
		case ch <- struct{}{}:
		default: // a token is already pending; the waiter will re-check
		}
	}
}

// await parks the calling member until word reads want — a rendezvous
// generation closing (present(i): member i has arrived) or a plan's verdict
// being published (member i has left it). Check, then park: whoever stores
// word offers a token afterwards, and a stale token costs one re-check.
// Failure-aware and watchdogged: when a member that is not present never
// will be, every waiter returns a RankFailureError and the communicator is
// broken; when the op deadline or ctx expires first, a HangError with the
// blocked-rank dump. Event-driven, never polled.
func (c *Comm) await(ctx context.Context, desc blockDesc, word *atomic.Int64, want int64, present func(i int) bool) error {
	if word.Load() == want {
		return nil
	}
	st := c.state
	w := st.world
	wr := st.group[c.rank]
	w.blockEnter(wr, desc)
	defer w.blockExit(wr)
	dog := &st.dogs[c.rank]
	timeoutC := dog.arm(w.opDeadline)
	defer dog.disarm()
	for {
		failed, failCh := w.failureWatch()
		st.mu.Lock()
		if word.Load() == want {
			st.mu.Unlock()
			return nil
		}
		// A dead member that is not present never will be, nor a live one
		// on a broken communicator (it fails fast on the broken check). That
		// check, presence and word's last step share this lock: permanent.
		stuck := false
		for i, g := range st.group {
			if stuck = (failed[g] || st.broken) && !present(i); stuck {
				st.broken = true
				break
			}
		}
		st.mu.Unlock()
		if stuck {
			// A fenced caller reports its partition verdict instead.
			if perr := w.partitionCheck(wr); perr != nil {
				return perr
			}
			return &RankFailureError{Failed: deadIn(failed, st.group)}
		}
		select {
		case <-st.wake[c.rank]:
		case <-failCh:
		case <-timeoutC:
			if !dog.expired() {
				continue
			}
			st.mu.Lock()
			var missing []int
			for i, g := range st.group {
				if !present(i) {
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
	return c.run(context.Background(), collArgs{d: &barrier})
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

// splitSpec is the per-rank contribution to a Split and, in child, the
// last arriver's answer to it.
type splitSpec struct {
	color, key, commRank int
	child                *commState
}

// Split partitions the communicator by color; within each new
// communicator members are ordered by (key, old rank), like MPI_Comm_split.
// A negative color yields a nil communicator for that member.
func (c *Comm) Split(color, key int) (*Comm, error) {
	rv, err := c.coordinate(context.Background(), func(rv *rendezvous) {
		if rv.splits == nil {
			rv.splits = make([]splitSpec, len(c.state.group))
		}
		rv.splits[c.rank] = splitSpec{color: color, key: key, commRank: c.rank}
	}, c.buildSplit)
	if err != nil || color < 0 {
		return nil, err
	}
	mine := &rv.splits[c.rank]
	st := mine.child
	mine.child = nil // nothing in the parent keeps the child alive
	return &Comm{state: st, rank: slices.Index(st.group, c.state.group[c.rank]), proc: c.proc}, nil
}

// buildSplit creates the child communicator of every color, once, on the
// last arriver.
func (c *Comm) buildSplit(rv *rendezvous) error {
	order := make([]*splitSpec, 0, len(rv.splits))
	for i := range rv.splits {
		if rv.splits[i].color >= 0 {
			order = append(order, &rv.splits[i])
		}
	}
	slices.SortFunc(order, func(a, b *splitSpec) int {
		return cmp.Or(cmp.Compare(a.color, b.color), cmp.Compare(a.key, b.key), cmp.Compare(a.commRank, b.commRank))
	})
	for len(order) > 0 {
		k := 1
		for k < len(order) && order[k].color == order[0].color {
			k++
		}
		group := make([]int, k)
		for i, m := range order[:k] {
			group[i] = c.state.group[m.commRank]
		}
		child := newCommState(c.state.world, group)
		for _, m := range order[:k] {
			m.child = child
		}
		order = order[k:]
	}
	return nil
}
