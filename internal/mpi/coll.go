package mpi

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/fault"
	"distcoll/internal/integrity"
	"distcoll/internal/knem"
	"distcoll/internal/partition"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
)

// Component selects the collective implementation, mirroring Open MPI's
// collective component framework.
type Component int

const (
	// KNEMColl is the paper's distance-aware component: topologies built
	// from runtime process distance, executed as receiver-driven
	// kernel-assisted single copies.
	KNEMColl Component = iota
	// Tuned is the rank-based Open MPI baseline over the SM/KNEM BTL.
	Tuned
	// MPICH2 is the MPICH2-1.4 baseline over nemesis double-copy shared
	// memory.
	MPICH2
	// Adaptive is the selection layer (DESIGN.md §8): each collective call
	// consults the world's tune.Selector for the best {component, tree
	// shape, chunk} at this (topology, size) and reuses compiled schedules
	// through the world's plan cache.
	Adaptive
)

var componentNames = [...]string{KNEMColl: "knemcoll", Tuned: "tuned", MPICH2: "mpich2", Adaptive: "adaptive"}

func (c Component) String() string {
	if c < 0 || int(c) >= len(componentNames) {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// Transient KNEM copy failures are retried with exponential backoff before
// the collective gives up; MaxTransients-bounded injection plans are
// guaranteed to converge well inside the attempt budget.
const (
	copyRetryAttempts = 8
	copyRetryBase     = 20 * time.Microsecond
)

// collPlan is the shared execution state of one collective: the compiled
// schedule, the real backing buffers, KNEM cookies, the executor's
// completion state, and the completion barrier, whose last leaver cleans up
// — on every abandonment path (failure, watchdog timeout, crash) as on
// success, since even a crashing member leaves. The instance is the
// communicator's spare between clean calls (commState.spare).
type collPlan struct {
	s       *sched.Schedule
	op      string // collective name for trace attribution
	id      int64  // world-unique plan id
	bufs    [][]byte
	cookies []knem.Cookie
	slab    []byte // backs the auxiliary buffers; the communicator's own up to slabCap
	prog    exec.Progress

	// The completion barrier (Comm.leave): a member votes its local failure
	// into err (first wins) and counts in leavers; the last decides verdict.
	leavers atomic.Int32
	err     atomic.Pointer[error]
	done    atomic.Int64
	verdict error

	// End-to-end digests under the descriptor's digest rule (set only when
	// integrity verification is on): the broadcast origin's payload digest,
	// piggybacked to every member through the shared plan exactly like the
	// payload itself travels the tree, or the allgather contributors'
	// per-segment digests carried around the ring. Written once by the plan
	// builder, read-only after; empty when off.
	digests []uint32

	// exact says a member with a progress ledger marks every op it performed
	// successfully — after the (possibly integrity-verified) copy, before
	// the completion signal: what is marked there is exactly what a later
	// delta repair may serve to other survivors. Written once by the plan
	// builder, read-only after.
	exact bool
}

// emptyPlan is the no-op plan for zero-byte collectives.
func (st *commState) emptyPlan(op string) *collPlan {
	if st.emptyIdx == nil {
		st.emptyIdx, _ = sched.New(len(st.group)).Index() // an op-less schedule over n ≥ 1 ranks is valid
	}
	plan, _ := st.newPlan(op, st.emptyIdx.Schedule(), nil) // binds nothing, so cannot fail
	return plan
}

// newPlan checks the schedule (once per schedule object: Index memoises
// it) and the caller buffer sizes (per call), binds caller buffers,
// allocates auxiliary ones (bounce/temporary segments), and declares every
// buffer as a KNEM region owned by the member's WORLD rank (fault plans
// address world ranks). The plan is the communicator's spare instance,
// reset, when it has one: its tables and completion words grow only for a
// schedule larger than every earlier one.
func (st *commState) newPlan(op string, s *sched.Schedule, caller func(rank int, name string) []byte) (*collPlan, error) {
	idx, err := s.Index()
	if err != nil {
		return nil, err
	}
	if s.NumRanks > len(st.group) {
		return nil, fmt.Errorf("mpi: schedule for %d ranks on a communicator of %d", s.NumRanks, len(st.group))
	}
	plan := st.spare
	st.spare = nil
	if plan == nil {
		plan = new(collPlan)
	}
	if n := len(s.Buffers); cap(plan.bufs) < n {
		plan.bufs, plan.cookies = make([][]byte, n), make([]knem.Cookie, n)
	} else {
		plan.bufs, plan.cookies = plan.bufs[:n], plan.cookies[:n]
	}
	plan.s, plan.op, plan.id = s, op, st.world.nplan.Add(1)
	plan.prog.Start(idx, st.wake)
	plan.leavers.Store(0)
	plan.err.Store(nil)
	plan.done.Store(0)
	plan.verdict, plan.digests, plan.exact = nil, plan.digests[:0], false
	var aux int64
	for i, spec := range s.Buffers {
		if b := caller(spec.Rank, spec.Name); b != nil {
			if int64(len(b)) != spec.Bytes {
				return nil, fmt.Errorf("mpi: rank %d buffer %q is %d bytes, schedule expects %d",
					spec.Rank, spec.Name, len(b), spec.Bytes)
			}
			plan.bufs[i] = b
		} else {
			aux += spec.Bytes
		}
	}
	// One slab for all auxiliary buffers (a rank-based baseline stages
	// through a bounce buffer per send, thousands per plan): the
	// communicator's, until the last leaver hands it back.
	if aux > 0 && aux <= slabCap {
		plan.slab, st.slab = st.slab, nil
	}
	if int64(cap(plan.slab)) < aux {
		plan.slab = make([]byte, aux)
	}
	slab := plan.slab[:aux]
	for i, spec := range s.Buffers {
		if plan.bufs[i] == nil {
			plan.bufs[i], slab = slab[:spec.Bytes:spec.Bytes], slab[spec.Bytes:]
		}
		plan.cookies[i] = st.world.mover.Declare(st.group[spec.Rank], plan.bufs[i])
	}
	st.world.tracer.PlanBuild(op, plan.id, len(s.Ops), len(s.Buffers), s.TotalCopiedBytes())
	return plan, nil
}

// runPlan executes this member's share of the plan with its arguments a
// (exec's one executor, the member's slot as its hooks) and leaves through
// the completion barrier. The end-to-end digest check runs in between, and
// its verdict is voted INTO the barrier: leaving doubles as an agreement on
// the outcome, so either every member observes the digest failure or none
// does — otherwise the one rank that detected corruption would retry while
// the others moved on.
func (c *Comm) runPlan(plan *collPlan, a *collArgs) error {
	st := c.state
	m := &st.mem[c.rank]
	m.c, m.plan, m.wr, m.a = c, plan, st.group[c.rank], a
	var t0 time.Time
	if tr := st.world.tracer; tr.Enabled() {
		// Copy events carry the distance class of the edge they crossed,
		// read from the base view in O(1).
		m.dist = st.baseView()
		tr.OpBegin(plan.op, plan.id, c.rank, plan.s.TotalCopiedBytes())
		t0 = time.Now()
	}
	err := plan.prog.RunRank(c.rank, m)
	if err == nil {
		err = c.verify(plan, a)
	}
	// A finished call leaves nothing in the slot but a landing buffer, and
	// that only up to the largest pipeline chunk: a bigger one (an
	// unpipelined reduce of a large message) would be payload-sized memory
	// held between calls.
	m.plan, m.a, m.dist = nil, nil, nil
	if cap(m.scratch) > core.PipelineMaxChunk {
		m.scratch = nil
	}
	if verdict := c.leave(plan, err); err == nil {
		err = verdict
	}
	c.opEnd(plan, t0, err)
	return err
}

// verify is the end-to-end integrity check of a finished plan plus its
// ledger consequences. Under the root rule the origin's payload digest must
// match the delivered buffer on every receiver; under the segment rule
// every gathered segment must match its contributor's. It catches whatever
// the per-hop checksums could not attribute to a single edge. A verified
// result is fully held (whatever component or path delivered it), a failed
// one fully untrusted — nothing in the buffer can be relied on.
func (c *Comm) verify(plan *collPlan, a *collArgs) error {
	err := c.verifyDigests(plan, a)
	if a.led == nil {
		return err
	}
	if err != nil {
		a.led.Reset()
	} else if len(plan.digests) > 0 {
		a.led.MarkAll()
	}
	return err
}

func (c *Comm) verifyDigests(plan *collPlan, a *collArgs) error {
	w := c.state.world
	if w.integ == nil || len(plan.digests) == 0 {
		return nil
	}
	rootRule := a.d.digest == digestRoot
	if rootRule && c.rank == a.root {
		return nil // the root's buffer is the payload
	}
	group := c.state.group
	seg := len(a.recv) / len(plan.digests)
	for k, want := range plan.digests {
		origin, chunk := k, k
		if rootRule {
			origin, chunk = a.root, -1
		}
		got := integrity.Digest(a.recv[k*seg : (k+1)*seg])
		if got == want {
			continue
		}
		w.integ.E2EFailure()
		w.tracer.Integrity(plan.op, plan.id, group[c.rank], group[origin], chunk, -1, want, got)
		return &CorruptionError{Src: group[origin], Dst: group[c.rank], Chunk: chunk, EndToEnd: true}
	}
	return nil
}

// opEnd emits the OpEnd matching runPlan's OpBegin, t0 being its time.
func (c *Comm) opEnd(plan *collPlan, t0 time.Time, err error) {
	if tr := c.state.world.tracer; tr.Enabled() {
		tr.OpEnd(plan.op, plan.id, c.rank, time.Since(t0), err)
	}
}

// member is one communicator member's run of one plan: the exec.Hooks. It
// lives in the communicator's per-member slot (commState.mem).
type member struct {
	c       *Comm
	plan    *collPlan
	wr      int                  // the member's world rank
	a       *collArgs            // its arguments, where it deposited them: the reduction operator, the progress ledger
	scratch []byte               // landing buffer of kernel-assisted reduces (member.move); kept between calls
	dist    *distance.Clustered  // set only while tracing; covers every schedule rank (newPlan)
	left    atomic.Int64         // generation of the last plan the member left; read by the others' completion waits
	led     recovery.ChunkLedger // the resilient ladder's progress ledger, restarted per call (Comm.resilient)
}

// BeforeOp consults the injector. A crash is published to the world (waking
// every blocked rank) and breaks the communicator before it propagates.
func (m *member) BeforeOp(*sched.Op) error {
	w := m.c.state.world
	if w.inj == nil {
		return nil
	}
	err := w.inj.BeforeOp(m.wr)
	if err != nil && fault.IsCrashed(err) {
		m.c.state.setBroken()
		w.MarkFailed(m.wr)
	}
	return err
}

// Perform moves one op's bytes (member.move), then traces the copy and
// marks it in the member's progress ledger — all before the executor
// publishes the op as complete.
func (m *member) Perform(o *sched.Op) error {
	if o.Bytes == 0 {
		return nil
	}
	plan := m.plan
	tr := m.c.state.world.tracer
	var t0 time.Time
	if tr.Enabled() {
		t0 = time.Now()
	}
	if err := m.move(o, plan.bufs[o.Dst][o.DstOff:o.DstOff+o.Bytes]); err != nil {
		return err
	}
	if tr.Enabled() {
		src, dstRank := plan.s.Buffers[o.Src].Rank, plan.s.Buffers[o.Dst].Rank
		tr.Copy(plan.op, plan.id, m.c.rank, src, dstRank, int(o.ID), o.Chunk,
			o.Bytes, m.dist.At(src, dstRank), o.Mode.String(), time.Since(t0))
	}
	if plan.exact && m.a.led != nil {
		// The one mark: bytes that landed in the member's own ledgered
		// buffer are held at the offsets they landed at.
		if dst := &plan.s.Buffers[o.Dst]; dst.Rank == m.c.rank && dst.Name == m.a.d.ledger {
			m.a.led.MarkHeld(o.DstOff, o.Bytes)
		}
	}
	return nil
}

// Await blocks until dependency d of o completes. If a member of the
// communicator fails meanwhile the collective cannot complete, so the wait
// aborts with a RankFailureError; if the watchdog expires, with a HangError
// carrying the blocked-rank and pending-op dumps. Nothing here allocates or
// formats until the wait fails.
func (m *member) Await(p *exec.Progress, o *sched.Op, d sched.OpID) error {
	st := m.c.state
	w, wr := st.world, m.wr
	depRank := st.group[m.plan.s.Ops[d].Rank]
	desc := blockDesc{kind: blockDep, a: int(o.ID), b: int(d), c: depRank}
	w.blockEnter(wr, desc)
	defer w.blockExit(wr)
	dog := &st.dogs[m.c.rank]
	timeoutC := dog.arm(w.opDeadline)
	defer dog.disarm()
	for gen := 0; ; {
		failed, failCh := w.failureWatch()
		if len(failed) != gen { // scan the group once per failure generation
			gen = len(failed)
			if dead := deadIn(failed, st.group); len(dead) > 0 {
				st.setBroken()
				if perr := w.partitionCheck(wr); perr != nil {
					return perr
				}
				return &RankFailureError{Failed: dead}
			}
		}
		if p.Done(d) {
			return nil
		}
		select {
		case <-p.Wake(m.c.rank):
		case <-failCh:
		case <-timeoutC:
			if !dog.expired() {
				continue
			}
			w.tracer.Watchdog(wr, desc.String())
			return &HangError{Rank: wr, Op: desc.String(), Deadline: w.opDeadline,
				Dump:      w.BlockedDump() + "; schedule: " + m.plan.s.PendingDump(p.Done),
				Suspicion: w.hangSuspicion(wr, []int{depRank})}
		}
	}
}

// knemPull performs one kernel-assisted copy. Transient injected
// failures retry inside transportPull; when integrity verification is
// enabled, the delivered chunk is additionally checked against the
// sender-side CRC32-Castagnoli over (src, dst, chunk, payload) and
// re-pulled with backoff on mismatch — a budget deliberately separate
// from the transient retries (a transient failure means no data arrived;
// a mismatch means wrong data arrived). A peer whose chunks keep failing
// the whole re-pull budget is marked corrupting and treated like a
// failed rank: the survivors agree and rebuild around it.
func (c *Comm) knemPull(plan *collPlan, wr int, o *sched.Op, dst []byte) error {
	w := c.state.world
	cookie, off := plan.cookies[o.Src], o.SrcOff
	srcW := c.state.group[plan.s.Buffers[o.Src].Rank] // in range: newPlan checked NumRanks
	if w.integ == nil {
		return c.transportPull(plan, wr, srcW, cookie, off, dst)
	}
	sum := func(b []byte) uint32 { return integrity.Sum(srcW, wr, o.Chunk, b) }
	// Sending-side checksum, computed over the clean source region before
	// the (possibly faulty) data path runs.
	want, serr := w.dev.SumRegion(cookie, off, int64(len(dst)), sum)
	if serr != nil {
		// Region already gone (abandonment race): let the plain pull
		// surface the proper transport error.
		return c.transportPull(plan, wr, srcW, cookie, off, dst)
	}
	backoff := w.integ.Backoff()
	attempts := 0
	var got uint32
	for attempt := 0; attempt <= w.integ.Repulls(); attempt++ {
		if attempt > 0 {
			w.integ.Repull()
			w.tracer.IntegrityRepull()
			if !w.sleep(backoff) {
				return fmt.Errorf("mpi: world closed during integrity re-pull backoff (rank %d, chunk %d)", wr, o.Chunk)
			}
			backoff *= 2
		}
		if err := c.transportPull(plan, wr, srcW, cookie, off, dst); err != nil {
			return err
		}
		attempts++
		if got = sum(dst); got == want {
			if attempt > 0 {
				w.integ.Recovered()
			}
			return nil
		}
		w.integ.Mismatch()
		w.tracer.Integrity(plan.op, plan.id, wr, srcW, o.Chunk, attempt, want, got)
	}
	// Persistent corruption: mark the peer, fail it world-wide and break
	// the communicator — the resilient collectives then recover exactly
	// as they do from a crash. Break before publishing the failure so the
	// failure-channel wakeup already observes the broken flag.
	w.integ.MarkCorrupting(srcW)
	w.tracer.IntegrityFailure()
	c.state.setBroken()
	w.MarkFailed(srcW)
	return &CorruptionError{Src: srcW, Dst: wr, Chunk: o.Chunk, Attempts: attempts}
}

// transportPull is the raw kernel-assisted copy with retry-with-backoff
// on injected transient failures. srcW is the world rank the data is
// pulled from: every outcome doubles as reachability evidence for the
// partition detector on the directed edge srcW→wr.
func (c *Comm) transportPull(plan *collPlan, wr, srcW int, cookie knem.Cookie, off int64, dst []byte) error {
	w := c.state.world
	mover := w.mover
	backoff := copyRetryBase
	var err error
	for attempt := 0; attempt < copyRetryAttempts; attempt++ {
		err = mover.CopyFrom(wr, cookie, off, dst)
		if err == nil {
			w.partitionEdge(srcW, wr, true)
			return nil
		}
		if !fault.IsTransient(err) {
			break
		}
		w.tracer.Retry(plan.op, wr, attempt+1, err)
		if !w.sleep(backoff) {
			return fmt.Errorf("mpi: world closed during copy retry backoff (rank %d): %w", wr, err)
		}
		backoff *= 2
	}
	if fault.IsCrashed(err) {
		c.state.setBroken()
		w.MarkFailed(wr)
		return err
	}
	if fault.IsSevered(err) {
		// A refused link, not a dead peer: record the edge, break the
		// communicator, and force a quorum decision. A minority caller
		// gets its PartitionError right here; a majority caller returns
		// the severed error and the resilient ladder shrinks around the
		// (now failed) minority.
		w.partitionEdge(srcW, wr, false)
		c.state.setBroken()
		w.resolvePartition(false)
		if perr := w.partitionCheck(wr); perr != nil {
			return perr
		}
		return fmt.Errorf("mpi: rank %d knem copy severed: %w", wr, err)
	}
	if partition.IsFenced(err) {
		// The quorum decision landed between this caller's entry and its
		// copy: report the caller's own partition verdict, not the raw
		// boundary refusal.
		c.state.setBroken()
		if perr := w.partitionCheck(wr); perr != nil {
			return perr
		}
		return err
	}
	return fmt.Errorf("mpi: rank %d knem copy failed: %w", wr, err)
}

// leave is the completion barrier: no member may return (and reuse its
// buffers) before every member has stopped copying. Each member votes its
// local outcome, and the last to leave resolves the votes to ONE verdict for
// all: if any member failed, every member returns that error — the
// uniformity the resilient retry loops rely on. A member that crashed, or
// that the quorum decision left out, must NOT vote: its absence is what
// fails the survivors over, even when their own copies all succeeded.
func (c *Comm) leave(plan *collPlan, local error) error {
	st := c.state
	gen := st.seqs[c.rank] // the plan's generation: the member's own entry, which only it advances
	out := local           // what a member leaving without a vote returns: its crash, or its PartitionError
	if !fault.IsCrashed(local) {
		out = st.world.partitionRecheck(st.group[c.rank])
	}
	if out != nil {
		st.setBroken()
	} else if local != nil {
		vote := local
		plan.err.CompareAndSwap(nil, &vote)
	}
	st.mem[c.rank].left.Store(gen)
	if int(plan.leavers.Add(1)) == len(st.group) {
		st.closePlan(plan, gen)
	} else if out == nil {
		desc := blockDesc{kind: blockSync, comm: st.id, a: int(gen)}
		out = c.await(context.Background(), desc, &plan.done, 1,
			func(i int) bool { return st.mem[i].left.Load() >= gen })
	}
	if out != nil {
		return out
	}
	return plan.verdict
}

// closePlan is the last leaver's half, the one point where no member can
// still be mid-copy: release every KNEM region, decide the verdict (under
// the lock a waiter gives up on a broken communicator under: the two agree
// on which came first), hand the slab and the instance back after a clean
// call — the instance pinning no caller buffer — and clear the record.
func (st *commState) closePlan(plan *collPlan, gen int64) {
	for _, cookie := range plan.cookies {
		st.world.dev.ForceDestroy(cookie)
	}
	st.world.tracer.PlanReap(plan.id, len(plan.cookies))
	failed, _ := st.world.failureWatch()
	st.mu.Lock()
	if st.broken {
		plan.verdict = &RankFailureError{Failed: deadIn(failed, st.group)}
	} else if vote := plan.err.Load(); vote != nil {
		plan.verdict = *vote
	} else {
		if plan.slab != nil && cap(plan.slab) <= slabCap {
			st.slab = plan.slab
		}
		clear(plan.bufs)
		plan.slab, st.spare = nil, plan
	}
	rv := &st.rv[gen&1]
	rv.plan = nil
	clear(rv.args)
	plan.done.Store(1)
	st.mu.Unlock()
	st.wakeAll()
}
