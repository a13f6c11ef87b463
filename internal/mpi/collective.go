package mpi

import (
	"context"
	"fmt"

	"distcoll/internal/integrity"
	"distcoll/internal/recovery"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// collective describes one collective operation as data (DESIGN.md §17).
// Every exported collective is one entry of the collectives table plus a
// wrapper that fills a collArgs; the argument check, schedule selection
// and caching, plan construction, end-to-end digests, ledger marks, the
// outcome vote and the recovery ladder are shared code driven by the
// entry (Comm.run → Comm.buildPlan → Comm.runPlan, Comm.resilient).
type collective struct {
	name    string          // op name in traces, errors and plan-cache keys
	coll    tune.Collective // what tune.CompileFor compiles it as, on every component
	decided bool            // the selector decides it under Adaptive (else Adaptive is an error)
	rooted  bool            // takes a root, which must be a member

	// roles maps the schedule's buffer names to caller buffers and states
	// each one's required length. The first role is bound on every rank;
	// rank 0's length of it fixes the unit the schedule is compiled for
	// (the full message, or the per-rank block when the role is perRank).
	roles []role

	// digest is the end-to-end digest rule applied when integrity
	// verification is on.
	digest digestRule

	// ledger names the role whose buffer — the member's output — the
	// resilient ladder keeps a progress ledger over, and repair merges the
	// survivors' ledgers after a shrink and compiles the delta repair
	// schedule over what is missing (nil when nothing is held or the repair
	// does not compile), also counting the missing pieces. A descriptor
	// without them recovers by restart.
	ledger string
	repair func(c *Comm, args []collArgs, unit int64) (s *sched.Schedule, missing int)
}

// role binds one named schedule buffer to a caller buffer.
type role struct {
	name    string // the schedule's buffer name
	recv    bool   // the caller's recv buffer (else send)
	atRoot  bool   // bound, and its length checked, at the root only; auxiliary elsewhere
	perRank bool   // Size()·unit bytes (else unit)
}

// digestRule says what a plan's end-to-end digests cover.
type digestRule int

const (
	digestNone     digestRule = iota
	digestRoot                // one digest: the root's payload, checked on every receiver
	digestSegments            // one per contributor: its send block, checked in every recv
)

// Indices into collectives.
const (
	opBcast = iota
	opAllgather
	opReduce
	opAllreduce
	opGather
	opScatter
	opAlltoall
)

// collectives is the descriptor table. Adding a collective is one entry
// here, a tune.CompileFor case, and an exported wrapper; a new variant of
// an existing one is a CompileFor case alone.
var collectives = [...]collective{
	opBcast: {
		name: "bcast", coll: tune.CollBcast, decided: true, rooted: true,
		roles:  []role{{name: "data", recv: true}},
		digest: digestRoot, ledger: "data", repair: bcastRepair,
	},
	opAllgather: {
		name: "allgather", coll: tune.CollAllgather, decided: true,
		roles:  []role{{name: "send"}, {name: "recv", recv: true, perRank: true}},
		digest: digestSegments, ledger: "recv", repair: allgatherRepair,
	},
	opReduce: {
		name: "reduce", coll: tune.CollReduce, decided: true, rooted: true,
		roles: []role{{name: "send"}, {name: "acc", recv: true, atRoot: true}},
	},
	opAllreduce: {
		name: "allreduce", coll: tune.CollAllreduce, decided: true,
		roles: []role{{name: "send"}, {name: "recv", recv: true}},
	},
	opGather: {
		name: "gather", coll: tune.CollGather, rooted: true,
		roles: []role{{name: "send"}, {name: "recv", recv: true, atRoot: true, perRank: true}},
	},
	opScatter: {
		name: "scatter", coll: tune.CollScatter, rooted: true,
		roles: []role{{name: "recv", recv: true}, {name: "send", atRoot: true, perRank: true}},
	},
	opAlltoall: {
		name: "alltoall", coll: tune.CollAlltoall,
		roles: []role{{name: "send", perRank: true}, {name: "recv", recv: true, perRank: true}},
	},
}

// barrier is the descriptor of a Barrier on the resilient ladder: no roles,
// so no plan — the rendezvous is the whole operation (Comm.run).
var barrier = collective{name: "barrier"}

// collectiveByName resolves Call.Coll; nil for an unknown name.
func collectiveByName(name string) *collective {
	if name == barrier.name {
		return &barrier
	}
	for i := range collectives {
		if collectives[i].name == name {
			return &collectives[i]
		}
	}
	return nil
}

// AlltoallHierarchicalLimit is the block size below which the
// distance-aware alltoall aggregates at machine leaders
// (tune.AlltoallHierarchicalLimit, where the compiler reads it).
const AlltoallHierarchicalLimit = tune.AlltoallHierarchicalLimit

// collArgs is one member's contribution to a collective: what it deposits
// by copy in the rendezvous record, where the last arriver reads every
// member's in place and the member runs its share of the plan off its own.
type collArgs struct {
	d          *collective
	send, recv []byte
	root       int // communicator rank; 0 when the collective is not rooted
	comp       Component
	op         ReduceOp // the reduction operator; zero on copy-only collectives
	// led is the member's progress ledger (over d's ledgered role), recovering
	// marks the attempt after a shrink; only the resilient ladder sets them.
	led        *recovery.ChunkLedger
	recovering bool
}

func (a *collArgs) buf(r *role) []byte {
	if r.recv {
		return a.recv
	}
	return a.send
}

// bound returns the caller buffer behind a schedule buffer name on one
// member: nil for a name the collective does not bind there, which the
// plan then allocates as an auxiliary buffer.
func (d *collective) bound(a *collArgs, name string, isRoot bool) []byte {
	for i := range d.roles {
		if r := &d.roles[i]; r.name == name && (isRoot || !r.atRoot) {
			return a.buf(r)
		}
	}
	return nil
}

// check is the one argument check: every member called the same collective
// with the same root, component and operator; a rooted collective's root is
// a member (before the zero-size shortcut); every role's buffer has the
// length the unit implies, on every rank it is bound on; a reduction's
// buffers hold whole elements. It returns the unit size.
func (d *collective) check(args []collArgs) (int64, error) {
	n := int64(len(args))
	a0 := &args[0]
	for i := range args {
		a := &args[i]
		if a.d != d || a.root != a0.root || a.comp != a0.comp || a.op.Name != a0.op.Name || a.recovering != a0.recovering {
			return 0, d.mismatch()
		}
	}
	if len(d.roles) == 0 {
		return 0, nil // a barrier
	}
	if d.rooted && (a0.root < 0 || int64(a0.root) >= n) {
		return 0, fmt.Errorf("mpi: %s root %d out of range", d.name, a0.root)
	}
	unit := int64(len(a0.buf(&d.roles[0])))
	if d.roles[0].perRank {
		if unit%n != 0 {
			return 0, fmt.Errorf("mpi: %s buffer of %d bytes is not a multiple of %d ranks", d.name, unit, n)
		}
		unit /= n
	}
	if elem := a0.op.ElemSize; elem > 1 && unit%elem != 0 {
		return 0, fmt.Errorf("mpi: %s buffer of %d bytes is not a multiple of element size %d", d.name, unit, elem)
	}
	for i := range args {
		a := &args[i]
		for ri := range d.roles {
			r := &d.roles[ri]
			if r.atRoot && i != a0.root {
				continue
			}
			want := unit
			if r.perRank {
				want *= n
			}
			got := int64(len(a.buf(r)))
			if got == want {
				continue
			}
			if ri == 0 {
				return 0, d.mismatch()
			}
			which := "recv"
			if !r.recv {
				which = "send"
			}
			if r.atRoot {
				which = "root " + which
			}
			return 0, fmt.Errorf("mpi: %s %s buffer is %d bytes, want %d", d.name, which, got, want)
		}
	}
	return unit, nil
}

func (d *collective) mismatch() error {
	return fmt.Errorf("mpi: %s arguments mismatch across ranks", d.name)
}

// digests appends the end-to-end digests a plan carries to dst (the plan's
// own, emptied storage), from the clean source buffers before any byte moves.
func (d *collective) digests(dst []uint32, args []collArgs, root int) []uint32 {
	switch d.digest {
	case digestRoot:
		dst = append(dst, integrity.Digest(args[root].recv))
	case digestSegments:
		for i := range args {
			dst = append(dst, integrity.Digest(args[i].send))
		}
	}
	return dst
}

// run is the one call path of every collective: deposit the arguments, let
// the last arriver build the shared plan, run this member's share of it.
func (c *Comm) run(ctx context.Context, a collArgs) error {
	rv, err := c.coordinate(ctx, func(rv *rendezvous) { rv.args[c.rank] = a }, c.buildPlan)
	if err != nil || rv.plan == nil { // no plan: a barrier, and the rendezvous was all of it
		return err
	}
	return c.runPlan(rv.plan, &rv.args[c.rank])
}

// buildPlan is the plan-building rendezvous, run exactly once per
// collective by the last-arriving member over every member's collArgs:
// check the arguments, pick the schedule (selector or fixed component,
// through the plan cache) — after a shrink, the cheaper of that and a delta
// repair over the merged ledgers — and bind the caller buffers to it.
func (c *Comm) buildPlan(rv *rendezvous) error {
	args := rv.args
	d := args[c.rank].d // the builder's own deposit
	unit, err := d.check(args)
	if err != nil {
		return err
	}
	if len(d.roles) == 0 {
		return nil
	}
	if unit == 0 {
		rv.plan = c.state.emptyPlan(d.name)
		return nil
	}
	a0 := &args[0]
	root := a0.root
	full, ad, err := c.schedule(d, a0.comp, root, unit, a0.op.ElemSize)
	if err != nil {
		return err
	}
	s, op, mode, missing := full, d.name, "", 0
	if a0.recovering {
		s, mode, missing = c.chooseRecovery(d, args, full, unit)
		if mode == recoverRepair {
			op += ".repair"
		}
	}
	plan, err := c.state.newPlan(op, s, func(rank int, name string) []byte {
		return d.bound(&args[rank], name, rank == root)
	})
	if err != nil {
		return err
	}
	if a0.recovering {
		moved, fullBytes := s.TotalCopiedBytes(), full.TotalCopiedBytes()
		c.state.world.tracer.Recovery(d.name, mode, missing, moved, fullBytes, fullBytes-moved)
	} else if ad.coll != "" { // the selector decided: tie its decision to the plan id the op_end events will carry
		c.state.world.tracer.PlanCache(string(ad.coll), plan.id, ad.bytes, ad.dec.String(), ad.hit)
	}
	if c.state.world.e2eEnabled() {
		plan.digests = d.digests(plan.digests, args, root)
	}
	// Per-op ledger marks are exact only where the schedule copies straight
	// between caller buffers at true payload offsets: the distance-aware
	// component and every repair schedule. The baselines stage through
	// bounce buffers, so for them the whole result is marked held only
	// after the end-to-end digests verify (Comm.verify).
	plan.exact = a0.comp == KNEMColl || mode == recoverRepair
	rv.plan = plan
	return nil
}

// Bcast broadcasts the root's buffer to every member. All members must
// pass equal-length buffers, the same root and the same component.
func (c *Comm) Bcast(buf []byte, root int, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opBcast], recv: buf, root: root, comp: comp})
}

// Allgather gathers every member's send buffer into every member's recv
// buffer in communicator-rank order. recv must be Size()·len(send) bytes.
func (c *Comm) Allgather(send, recv []byte, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opAllgather], send: send, recv: recv, comp: comp})
}

// Reduce combines every member's send buffer with op; the result lands in
// the root's recv buffer (nil elsewhere). This is the paper's §VI
// future-work extension: the distance-aware component reduces up the
// Algorithm-1 tree, so partial results cross each slow link exactly once.
// Buffer lengths must be a multiple of the operator's element size.
func (c *Comm) Reduce(send, recv []byte, root int, op ReduceOp, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opReduce], send: send, recv: recv, root: root, comp: comp, op: op})
}

// Allreduce combines every member's send buffer with op and delivers the
// result to every member's recv buffer. Buffer lengths must be a multiple
// of the operator's element size.
func (c *Comm) Allreduce(send, recv []byte, op ReduceOp, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opAllreduce], send: send, recv: recv, comp: comp, op: op})
}

// Gather collects every member's send block into the root's recv buffer
// (Size()·len(send) bytes) in communicator-rank order; recv is ignored on
// other ranks.
func (c *Comm) Gather(send, recv []byte, root int, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opGather], send: send, recv: recv, root: root, comp: comp})
}

// Scatter distributes the root's send buffer (Size()·len(recv) bytes, in
// communicator-rank order) so every member's recv buffer holds its block;
// send is ignored on other ranks.
func (c *Comm) Scatter(send, recv []byte, root int, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opScatter], send: send, recv: recv, root: root, comp: comp})
}

// Alltoall exchanges one block with every member: send and recv are
// Size()·block bytes; recv[a·block:] ends up holding rank a's block for
// the caller.
func (c *Comm) Alltoall(send, recv []byte, comp Component) error {
	return c.run(context.Background(), collArgs{d: &collectives[opAlltoall], send: send, recv: recv, comp: comp})
}
