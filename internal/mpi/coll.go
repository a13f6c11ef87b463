package mpi

import (
	"fmt"
	"sync/atomic"
	"time"

	"distcoll/internal/baseline"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/fault"
	"distcoll/internal/integrity"
	"distcoll/internal/knem"
	"distcoll/internal/partition"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
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
// schedule, the real backing buffers, KNEM cookies, and the executor's
// completion state. Cookie cleanup is handled by a reaper: the LAST member to leave
// execute force-destroys every region, which works on the success path and
// on every abandonment path (failure, watchdog timeout, crash) alike,
// since even a crashing member leaves execute.
type collPlan struct {
	s       *sched.Schedule
	op      string // collective name for trace attribution
	id      int64  // world-unique plan id
	bufs    [][]byte
	cookies []knem.Cookie
	prog    exec.Progress
	world   *World
	members int
	leavers atomic.Int32

	// End-to-end digests (set only when integrity verification is on):
	// the broadcast origin's payload digest, piggybacked to every member
	// through the shared plan exactly like the payload itself travels the
	// tree, and the allgather contributors' per-segment digests carried
	// around the ring. Written once by the plan builder, read-only after.
	digest    uint32
	hasDigest bool
	digests   []uint32

	// onDone[commRank], when non-nil, observes every op that member
	// performed successfully — after the (possibly integrity-verified)
	// copy, before the completion signal. It feeds the progress ledgers
	// behind incremental recovery: what is marked here is exactly what a
	// later delta repair may serve to other survivors. Written once by the
	// plan builder, read-only after.
	onDone []func(o *sched.Op)
}

// notePlanCache emits the Adaptive component's plan_cache event for this
// plan, tying the selector's decision to the plan id so the trace carries
// the decision → measured-duration correlation. A nil ad (any fixed
// component) is a no-op.
func (p *collPlan) notePlanCache(ad *adecision) {
	if ad == nil {
		return
	}
	p.world.tracer.PlanCache(string(ad.coll), p.id, ad.bytes, ad.dec.String(), ad.hit)
}

// reap releases every KNEM region of the plan. Called exactly once, by the
// last member to leave execute, so no member can still be mid-copy.
func (p *collPlan) reap() {
	if p.world == nil {
		return
	}
	for _, cookie := range p.cookies {
		p.world.dev.ForceDestroy(cookie)
	}
	p.world.tracer.PlanReap(p.id, len(p.cookies))
}

// emptyPlan is the no-op plan for zero-byte collectives.
func (st *commState) emptyPlan(op string, n int) *collPlan {
	s := sched.New(n)
	idx, _ := s.Index() // an op-less schedule over n ≥ 1 ranks is valid
	return &collPlan{s: s, op: op, prog: exec.NewProgress(idx, st.wake), world: st.world, members: len(st.group)}
}

// newPlan checks the schedule (once per schedule object: Index memoises
// it) and the caller buffer sizes (per call), binds caller buffers,
// allocates auxiliary ones (bounce/temporary segments), and declares every
// buffer as a KNEM region owned by the member's WORLD rank (fault plans
// address world ranks).
func (st *commState) newPlan(op string, s *sched.Schedule, caller func(rank int, name string) []byte) (*collPlan, error) {
	idx, err := s.Index()
	if err != nil {
		return nil, err
	}
	if s.NumRanks > len(st.group) {
		return nil, fmt.Errorf("mpi: schedule for %d ranks on a communicator of %d", s.NumRanks, len(st.group))
	}
	plan := &collPlan{
		s:       s,
		op:      op,
		id:      st.world.nplan.Add(1),
		bufs:    make([][]byte, len(s.Buffers)),
		cookies: make([]knem.Cookie, len(s.Buffers)),
		prog:    exec.NewProgress(idx, st.wake),
		world:   st.world,
		members: len(st.group),
	}
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
	// One slab for all auxiliary buffers: a rank-based baseline stages
	// through a bounce buffer per send, thousands per plan.
	slab := make([]byte, aux)
	for i, spec := range s.Buffers {
		if plan.bufs[i] == nil {
			plan.bufs[i], slab = slab[:spec.Bytes:spec.Bytes], slab[spec.Bytes:]
		}
		plan.cookies[i] = st.world.mover.Declare(st.group[spec.Rank], plan.bufs[i])
	}
	st.world.tracer.PlanBuild(op, plan.id, len(s.Ops), len(s.Buffers), s.TotalCopiedBytes())
	return plan, nil
}

// bcastArgs is each member's contribution to a broadcast. led is the
// member's progress ledger (nil outside the resilient wrappers): the plan
// builder wires it into the plan's completion hooks so every landed chunk
// is recorded for a possible later delta repair.
type bcastArgs struct {
	buf  []byte
	root int
	comp Component
	led  *recovery.ChunkLedger
}

// Bcast broadcasts the root's buffer to every member. All members must
// pass equal-length buffers, the same root and the same component.
func (c *Comm) Bcast(buf []byte, root int, comp Component) error {
	return c.bcastLedger(buf, root, comp, nil)
}

// bcastLedger is Bcast with an optional progress ledger (the resilient
// wrapper's). Per-op chunk marks are only attached for the distance-aware
// component, whose schedule copies straight between the caller "data"
// buffers at true payload offsets; the baseline components stage through
// bounce buffers, so for them (and for any component when integrity is
// on) the whole buffer is marked held only after the end-to-end digest
// verifies. A failed digest clears the ledger instead — nothing in the
// buffer can be trusted.
func (c *Comm) bcastLedger(buf []byte, root int, comp Component, led *recovery.ChunkLedger) error {
	_, result, err := c.coordinate(bcastArgs{buf: buf, root: root, comp: comp, led: led},
		func(vals []any) (any, error) {
			args := make([]bcastArgs, len(vals))
			for i, v := range vals {
				a, ok := v.(bcastArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: bcast coordination corrupted")
				}
				args[i] = a
				if a.root != args[0].root || a.comp != args[0].comp || len(a.buf) != len(args[0].buf) {
					return nil, fmt.Errorf("mpi: bcast arguments mismatch across ranks")
				}
			}
			size := int64(len(args[0].buf))
			if size == 0 {
				return c.state.emptyPlan("bcast", len(args)), nil
			}
			s, ad, err := c.buildBcast(size, args[0].root, args[0].comp)
			if err != nil {
				return nil, err
			}
			caller := func(rank int, name string) []byte {
				if name == "data" {
					return args[rank].buf
				}
				return nil
			}
			plan, err := c.state.newPlan("bcast", s, caller)
			if err != nil {
				return nil, err
			}
			plan.notePlanCache(ad)
			if c.state.world.e2eEnabled() {
				plan.digest = integrity.Digest(args[args[0].root].buf)
				plan.hasDigest = true
			}
			if args[0].comp == KNEMColl {
				attachBcastLedgers(plan, args)
			}
			return plan, nil
		})
	if err != nil {
		return err
	}
	plan := result.(*collPlan)
	return c.runPlanVerified(plan, nil, func() error {
		return c.ledgerBcastVerify(plan, buf, root, led)
	})
}

// ledgerBcastVerify is the post-execution digest check plus its ledger
// consequences: a verified buffer is fully held (whatever component or
// path delivered it), a failed one is fully untrusted.
func (c *Comm) ledgerBcastVerify(plan *collPlan, buf []byte, root int, led *recovery.ChunkLedger) error {
	err := c.verifyBcastDigest(plan, buf, root)
	if led == nil {
		return err
	}
	if err != nil {
		led.Reset()
	} else if plan.hasDigest {
		led.MarkAll()
	}
	return err
}

// attachBcastLedgers wires each member's progress ledger into the plan's
// completion hooks: every pull into the "data" buffer marks its payload
// span held. Offsets in the distance-aware broadcast schedule are true
// payload offsets, so the mark is exact; with integrity on, the hook runs
// only after the per-hop checksum verified, so only verified chunks count
// as held.
func attachBcastLedgers(plan *collPlan, args []bcastArgs) {
	s := plan.s
	for i := range args {
		led := args[i].led
		if led == nil {
			continue
		}
		if plan.onDone == nil {
			plan.onDone = make([]func(*sched.Op), len(args))
		}
		plan.onDone[i] = func(o *sched.Op) {
			if s.Buffers[o.Dst].Name == "data" {
				led.MarkHeld(o.DstOff, o.Bytes)
			}
		}
	}
}

// verifyBcastDigest is the end-to-end integrity check of a broadcast: the
// origin's payload digest (piggybacked down the tree via the shared plan)
// must match the delivered buffer on every receiver. It catches whatever
// the per-hop checksums could not attribute to a single edge.
func (c *Comm) verifyBcastDigest(plan *collPlan, buf []byte, root int) error {
	w := c.state.world
	if w.integ == nil || !plan.hasDigest || c.rank == root {
		return nil
	}
	got := integrity.Digest(buf)
	if got == plan.digest {
		return nil
	}
	w.integ.E2EFailure()
	me, origin := c.state.group[c.rank], c.state.group[root]
	w.tracer.Integrity(plan.op, plan.id, me, origin, -1, -1, plan.digest, got)
	return &CorruptionError{Src: origin, Dst: me, Chunk: -1, EndToEnd: true}
}

// allgatherArgs is each member's contribution to an allgather. led is the
// member's segment ledger (nil outside the resilient wrappers).
type allgatherArgs struct {
	send, recv []byte
	comp       Component
	led        *recovery.SegLedger
}

// Allgather gathers every member's send buffer into every member's recv
// buffer in communicator-rank order. recv must be Size()·len(send) bytes.
func (c *Comm) Allgather(send, recv []byte, comp Component) error {
	return c.allgatherLedger(send, recv, comp, nil)
}

// allgatherLedger is Allgather with an optional segment ledger, under the
// same rules as bcastLedger: exact per-segment marks for the
// distance-aware component (whose ring schedule lands whole blocks at
// their final recv offsets), whole-result marks after a verified
// end-to-end digest pass, a full clear after a failed one.
func (c *Comm) allgatherLedger(send, recv []byte, comp Component, led *recovery.SegLedger) error {
	_, result, err := c.coordinate(allgatherArgs{send: send, recv: recv, comp: comp, led: led},
		func(vals []any) (any, error) {
			args := make([]allgatherArgs, len(vals))
			for i, v := range vals {
				a, ok := v.(allgatherArgs)
				if !ok {
					return nil, fmt.Errorf("mpi: allgather coordination corrupted")
				}
				args[i] = a
				if a.comp != args[0].comp || len(a.send) != len(args[0].send) {
					return nil, fmt.Errorf("mpi: allgather arguments mismatch across ranks")
				}
				if len(a.recv) != len(vals)*len(a.send) {
					return nil, fmt.Errorf("mpi: allgather recv buffer is %d bytes, want %d",
						len(a.recv), len(vals)*len(a.send))
				}
			}
			block := int64(len(args[0].send))
			if block == 0 {
				return c.state.emptyPlan("allgather", len(args)), nil
			}
			s, ad, err := c.buildAllgather(block, args[0].comp)
			if err != nil {
				return nil, err
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
			plan, err := c.state.newPlan("allgather", s, caller)
			if err != nil {
				return nil, err
			}
			plan.notePlanCache(ad)
			if c.state.world.e2eEnabled() {
				plan.digests = make([]uint32, len(args))
				for i := range args {
					plan.digests[i] = integrity.Digest(args[i].send)
				}
			}
			if args[0].comp == KNEMColl {
				attachAllgatherLedgers(plan, args, c.state.group, block)
			}
			return plan, nil
		})
	if err != nil {
		return err
	}
	plan := result.(*collPlan)
	return c.runPlanVerified(plan, nil, func() error {
		return c.ledgerAllgatherVerify(plan, recv, len(send), led)
	})
}

// ledgerAllgatherVerify is the allgather digest check plus its ledger
// consequences (see ledgerBcastVerify).
func (c *Comm) ledgerAllgatherVerify(plan *collPlan, recv []byte, block int, led *recovery.SegLedger) error {
	err := c.verifyAllgatherDigests(plan, recv, block)
	if led == nil {
		return err
	}
	if err != nil {
		led.Reset()
	} else if plan.digests != nil {
		led.MarkHeldAll(c.state.group)
	}
	return err
}

// attachAllgatherLedgers wires each member's segment ledger into the
// plan's completion hooks: a whole block landing at a block-aligned recv
// offset marks that origin's segment held. Origins are recorded as WORLD
// ranks (group translates the layout index), so the marks survive
// communicator shrinks.
func attachAllgatherLedgers(plan *collPlan, args []allgatherArgs, group []int, block int64) {
	s := plan.s
	owners := append([]int(nil), group...)
	for i := range args {
		led := args[i].led
		if led == nil {
			continue
		}
		if plan.onDone == nil {
			plan.onDone = make([]func(*sched.Op), len(args))
		}
		plan.onDone[i] = func(o *sched.Op) {
			if s.Buffers[o.Dst].Name != "recv" || o.Bytes != block || o.DstOff%block != 0 {
				return
			}
			if idx := int(o.DstOff / block); idx >= 0 && idx < len(owners) {
				led.MarkHeld(owners[idx])
			}
		}
	}
}

// verifyAllgatherDigests is the end-to-end integrity check of an
// allgather: every gathered segment must match its contributor's digest
// (carried around the ring via the shared plan).
func (c *Comm) verifyAllgatherDigests(plan *collPlan, recv []byte, block int) error {
	w := c.state.world
	if w.integ == nil || plan.digests == nil || block == 0 {
		return nil
	}
	me := c.state.group[c.rank]
	for r := range plan.digests {
		got := integrity.Digest(recv[r*block : (r+1)*block])
		if got == plan.digests[r] {
			continue
		}
		w.integ.E2EFailure()
		origin := c.state.group[r]
		w.tracer.Integrity(plan.op, plan.id, me, origin, r, -1, plan.digests[r], got)
		return &CorruptionError{Src: origin, Dst: me, Chunk: r, EndToEnd: true}
	}
	return nil
}

// buildBcast compiles the broadcast schedule for this communicator's
// members: the distance-aware component consults the runtime placement of
// exactly the member processes, so the topology adapts to communicator
// composition (the paper's dynamic-communicator argument). The *adecision
// result is non-nil only for the Adaptive component: the selector's
// choice, which the plan builder ties to the plan id in the trace.
func (c *Comm) buildBcast(size int64, root int, comp Component) (*sched.Schedule, *adecision, error) {
	if comp == Adaptive {
		return c.adaptiveSchedule(tune.CollBcast, root, size, 0)
	}
	s, err := c.fixedSchedule("bcast", comp, root, size, 0, func() (*sched.Schedule, error) {
		n := c.Size()
		switch comp {
		case KNEMColl:
			tree, err := c.state.distanceTree(root)
			if err != nil {
				return nil, err
			}
			return core.CompileBroadcast(tree, size, 0)
		case Tuned:
			alg, seg := baseline.TunedBcastDecision(n, size)
			return baseline.CompileBcast(alg, n, root, size, seg, baseline.SMKnemBTL())
		default:
			alg, seg := baseline.MPICHBcastDecision(n, size)
			return baseline.CompileBcast(alg, n, root, size, seg, baseline.NemesisSM())
		}
	})
	return s, nil, err
}

func (c *Comm) buildAllgather(block int64, comp Component) (*sched.Schedule, *adecision, error) {
	if comp == Adaptive {
		return c.adaptiveSchedule(tune.CollAllgather, 0, block, 0)
	}
	s, err := c.fixedSchedule("allgather", comp, 0, block, 0, func() (*sched.Schedule, error) {
		n := c.Size()
		switch comp {
		case KNEMColl:
			ring, err := c.state.distanceRing()
			if err != nil {
				return nil, err
			}
			return core.CompileAllgather(ring, block)
		case Tuned:
			return baseline.CompileAllgather(baseline.TunedAllgatherDecision(n, block), n, block, baseline.SMKnemBTL())
		default:
			return baseline.CompileAllgather(baseline.TunedAllgatherDecision(n, block), n, block, baseline.NemesisSM())
		}
	})
	return s, nil, err
}

// distanceMatrix returns the member-to-member process distances from the
// runtime binding (cached for the communicator's lifetime).
func (c *Comm) distanceMatrix() distance.Matrix {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	return c.state.matrixLocked()
}

// runPlanVerified executes this member's share — combine is the reduction
// operator, nil on copy-only plans — and synchronizes completion. A member
// that crashed must NOT join the completion barrier: it is dead, and its
// absence is precisely what tells the survivors to fail over. verify (may
// be nil) is the end-to-end digest check; it runs after this member's share
// but before the rendezvous, and its verdict is deposited INTO it: the
// completion barrier doubles as an agreement on the outcome, so either
// every member observes the digest failure or none does — otherwise the one
// rank that detected corruption would retry while the others moved on.
func (c *Comm) runPlanVerified(plan *collPlan, combine func(dst, src []byte), verify func() error) error {
	finishBracket := c.opBracket(plan)
	err := c.execute(plan, combine)
	if fault.IsCrashed(err) {
		finishBracket(err)
		return err
	}
	if err == nil && verify != nil {
		err = verify()
	}
	if ferr := c.finish(plan, err); err == nil {
		err = ferr
	}
	finishBracket(err)
	return err
}

// opBracket emits the OpBegin event for this member and returns the
// closure emitting the matching OpEnd with the measured duration. On the
// disabled tracer both halves are no-ops.
func (c *Comm) opBracket(plan *collPlan) func(error) {
	tr := c.state.world.tracer
	if !tr.Enabled() {
		return func(error) {}
	}
	tr.OpBegin(plan.op, plan.id, c.rank, plan.s.TotalCopiedBytes())
	t0 := time.Now()
	return func(err error) {
		tr.OpEnd(plan.op, plan.id, c.rank, time.Since(t0), err)
	}
}

// execute runs this member's share of the plan through exec's one executor
// with the runtime's hooks; the last member to leave reaps the plan.
func (c *Comm) execute(plan *collPlan, combine func(dst, src []byte)) error {
	defer func() {
		if int(plan.leavers.Add(1)) == plan.members {
			plan.reap()
		}
	}()
	m := &member{c: c, plan: plan, wr: c.state.group[c.rank], combine: combine}
	// Copy events carry the distance class of the edge they crossed, read
	// from the base view: O(1) dense or clustered, so tracing never
	// materializes a cluster-scale communicator's O(n²) matrix.
	if c.state.world.tracer.Enabled() {
		c.state.mu.Lock()
		m.dist = c.state.baseViewLocked()
		c.state.mu.Unlock()
	}
	return plan.prog.RunRank(c.rank, m)
}

// member is one communicator member's run of one plan: the exec.Hooks.
type member struct {
	c       *Comm
	plan    *collPlan
	wr      int                   // the member's world rank
	combine func(dst, src []byte) // reduction operator; nil on copy-only plans
	scratch []byte                // landing buffer of kernel-assisted reduces (member.move)
	dist    distance.View         // set only while tracing; covers every schedule rank (newPlan)
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
// reports it to the member's completion hook — all before the executor
// publishes the op as complete.
func (m *member) Perform(o *sched.Op) error {
	if o.Bytes == 0 {
		return nil
	}
	plan := m.plan
	tr := plan.world.tracer
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
	if plan.onDone != nil {
		if f := plan.onDone[m.c.rank]; f != nil {
			f(o)
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
	srcW := plan.s.Buffers[o.Src].Rank
	if srcW >= 0 && srcW < len(c.state.group) {
		srcW = c.state.group[srcW]
	}
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

// finish is the completion barrier: no member may return (and reuse its
// buffers) before every member has stopped copying. It is failure-aware —
// a member that crashed mid-collective never arrives, so the survivors get
// a RankFailureError here even when their own copies all succeeded.
//
// Each member deposits its local outcome (nil, or the execution/digest
// error it hit), and the rendezvous resolves them to ONE verdict shared
// by all members: if any member failed, every member returns that error.
// A collective either completed everywhere or failed everywhere — the
// uniformity the resilient retry loops rely on.
func (c *Comm) finish(plan *collPlan, local error) error {
	_, _, err := c.coordinate(local, func(vals []any) (any, error) {
		for _, v := range vals {
			if e, ok := v.(error); ok && e != nil {
				return nil, e
			}
		}
		return nil, nil
	})
	return err
}
