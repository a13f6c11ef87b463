// Package serve is the service layer of the runtime (DESIGN.md §12): a
// long-running daemon that owns one shared plan cache and hosts many
// TENANTS, each a complete mpi.World with its own communicators, fault
// injector and integrity checker, driving collectives through the
// adaptive/plancache/integrity/resilient stack.
//
// Robustness at this layer is about ISOLATION, not per-op fault
// tolerance (the runtime below already has that): one tenant's crash
// storm, oversized request or cache-thrashing workload must not degrade
// its neighbors. Three mechanisms deliver it:
//
//   - Admission control + backpressure (admission.go): a weighted-fair
//     gate with per-tenant in-flight and bytes-in-flight quotas and
//     bounded queues that shed with a typed OverloadError.
//   - Brownout (brownout.go): sustained pressure progressively disables
//     optional work — event tracing first, end-to-end digests last —
//     and re-enables it in reverse as pressure drains.
//   - Circuit breaking (breaker.go): a tenant whose ops keep failing is
//     rejected at the door (half-open probe before readmission) instead
//     of burning shared retry budget.
//
// Isolation is observable, not asserted: every decision feeds per-tenant
// counters (serve.tenant.<id>.admitted/shed/browned_out/circuit_open)
// in the server's metrics registry, and the sharded plan cache exports
// per-tenant hit/miss/resident counts.
package serve

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"distcoll/internal/autotune"
	"distcoll/internal/binding"
	"distcoll/internal/chaos"
	"distcoll/internal/fault"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/mpi"
	"distcoll/internal/partition"
	"distcoll/internal/plancache"
	"distcoll/internal/trace"
)

// Config tunes the server. The zero value selects workable defaults.
type Config struct {
	GlobalSlots       int           // total in-flight ops across tenants (default 32)
	TenantSlots       int           // per-tenant in-flight quota (default 4)
	TenantBytes       int64         // per-tenant bytes-in-flight quota (default 8 MiB)
	QueueDepth        int           // per-tenant bounded admission queue (default 8)
	PlanCacheCapacity int           // shared compiled-plan cache (default plancache.DefaultCapacity)
	PlanCacheShards   int           // cache shards (default plancache.DefaultShards)
	TenantPlanQuota   int           // per-tenant resident-plan quota (0 = unlimited)
	OpDeadline        time.Duration // per-tenant watchdog deadline (default 5s)
	BreakerThreshold  int           // consecutive failures tripping the circuit (default 5)
	BreakerCooldown   time.Duration // open → half-open delay (default 250ms)
	BrownoutHigh      float64       // occupancy raising the brownout level (default 0.85)
	BrownoutLow       float64       // occupancy lowering it (default 0.5)
	BrownoutHold      time.Duration // sustained-pressure hold (default 100ms)
}

func (c Config) withDefaults() Config {
	if c.GlobalSlots <= 0 {
		c.GlobalSlots = 32
	}
	if c.TenantSlots <= 0 {
		c.TenantSlots = 4
	}
	if c.TenantBytes <= 0 {
		c.TenantBytes = 8 << 20
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.PlanCacheCapacity <= 0 {
		c.PlanCacheCapacity = plancache.DefaultCapacity
	}
	if c.PlanCacheShards <= 0 {
		c.PlanCacheShards = plancache.DefaultShards
	}
	if c.OpDeadline <= 0 {
		c.OpDeadline = 5 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	if c.BrownoutHigh <= 0 || c.BrownoutHigh > 1 {
		c.BrownoutHigh = 0.85
	}
	if c.BrownoutLow <= 0 || c.BrownoutLow >= c.BrownoutHigh {
		c.BrownoutLow = 0.5
	}
	if c.BrownoutHold <= 0 {
		c.BrownoutHold = 100 * time.Millisecond
	}
	return c
}

// Server hosts tenants over one shared plan cache and admission gate.
type Server struct {
	cfg     Config
	metrics *trace.Metrics
	plans   *plancache.Cache
	gate    *gate
	brown   *brownout

	mu      sync.Mutex
	tenants map[uint64]*Tenant
	nextID  uint64
	closed  bool
}

// NewServer creates an empty server.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := trace.NewMetrics()
	s := &Server{
		cfg:     cfg,
		metrics: m,
		plans:   plancache.NewSharded(cfg.PlanCacheCapacity, cfg.PlanCacheShards, m),
		gate:    newGate(cfg.GlobalSlots),
		tenants: make(map[uint64]*Tenant),
	}
	if cfg.TenantPlanQuota > 0 {
		s.plans.SetTenantQuota(cfg.TenantPlanQuota)
	}
	s.brown = newBrownout(cfg.BrownoutHigh, cfg.BrownoutLow, cfg.BrownoutHold, s.applyBrownout)
	return s
}

// Metrics returns the server's registry (admission, brownout and
// per-tenant counters, plus everything the shared plan cache mirrors).
func (s *Server) Metrics() *trace.Metrics { return s.metrics }

// PlanCache returns the shared compiled-plan cache.
func (s *Server) PlanCache() *plancache.Cache { return s.plans }

// BrownoutLevel returns the current brownout level (BrownoutOff,
// BrownoutTracing, BrownoutDigests).
func (s *Server) BrownoutLevel() int { return s.brown.Level() }

// applyBrownout reconfigures every tenant for the new level. Runs
// outside the brownout lock; tenant set changes race benignly (a tenant
// created mid-transition applies the current level at creation).
func (s *Server) applyBrownout(level int) {
	s.metrics.Counter("serve.brownout.transitions").Add(1)
	s.mu.Lock()
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.applyBrownout(level)
	}
}

// TenantConfig describes one tenant.
type TenantConfig struct {
	Name      string
	Ranks     int
	Topology  string      // "cross" (default) | "contiguous" | "zoot"
	Weight    int         // admission weight (default 1)
	Fault     *fault.Plan // optional fault injection (the chaos victim)
	Integrity bool        // arm per-hop checksums + e2e digests
	Trace     trace.Sink  // optional event sink, wrapped in a brownout gate
	// Autotune arms per-tenant online autotuning: the tenant's world runs
	// an autotune.Tuner whose fitted parameters and decision-flip
	// counters are mirrored into the server's metrics registry under
	// serve.tenant.<id>.autotune. (removed with the tenant's other
	// metrics on Free).
	Autotune *autotune.Config
	// Health arms per-tenant gray-failure detection: the tenant's world
	// runs a health.Scorer that demotes persistently slow links in the
	// tenant's own distance view and replans around them. Demotions are
	// strictly tenant-local — they invalidate only this tenant's plan
	// cache entries and never touch a neighbor's view. Scorer counters
	// are mirrored under serve.tenant.<id>.health. (removed on Free).
	Health *health.Config
	// Partition arms per-tenant partition tolerance: the tenant's world
	// runs a partition detector, quorum decisions fence minority ranks,
	// and a rank fenced out of the membership reports exclusion (counted
	// under serve.tenant.<id>.partition.*) instead of charging the
	// breaker. A tenant that loses quorum outright is reaped by
	// Server.ReapPartitioned.
	Partition *partition.Config
}

// Tenant is one hosted job: a long-lived world whose per-rank processes
// loop over an op channel, so a single tenant runs many collectives
// over the same communicators — including communicators shrunk by
// failures along the way.
type Tenant struct {
	id   uint64
	name string
	srv  *Server

	world    *mpi.World
	ranks    int
	gateSink *trace.GateSink // nil when the tenant traces nowhere
	brk      *breaker

	// dispatch: sending one op to every rank channel happens under mu,
	// so every rank sees ops in the same order (the MPI same-order
	// rule); closed refuses new submissions during teardown.
	mu      sync.Mutex
	ops     []chan *tenantOp
	closed  bool
	pending sync.WaitGroup // in-flight Submits, drained by Free

	runDone chan error // World.Run's result

	cAdmitted, cShed, cBrowned, cCircuit *trace.Counter
	cPartition                           *trace.Counter
}

// ErrServerClosed rejects work on a closed server or tenant.
var ErrServerClosed = fmt.Errorf("serve: server closed")

// bindingFor resolves a tenant topology name, mirroring the chaos
// harness's names.
func bindingFor(topology string, ranks int) (*binding.Binding, error) {
	switch topology {
	case "cross", "":
		return binding.CrossSocket(hwtopo.NewIG(), ranks)
	case "contiguous":
		return binding.Contiguous(hwtopo.NewIG(), ranks)
	case "zoot":
		return binding.Contiguous(hwtopo.NewZoot(), ranks)
	default:
		return nil, fmt.Errorf("serve: unknown topology %q", topology)
	}
}

// CreateTenant provisions a tenant: its world (sharing the server's
// plan cache under a fresh tenant id), its breaker, its slice of the
// admission gate, and its long-lived per-rank process loops.
func (s *Server) CreateTenant(tc TenantConfig) (*Tenant, error) {
	if tc.Ranks < 2 {
		return nil, fmt.Errorf("serve: tenant needs at least 2 ranks, got %d", tc.Ranks)
	}
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	b, err := bindingFor(tc.Topology, tc.Ranks)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	if tc.Name == "" {
		tc.Name = fmt.Sprintf("tenant-%d", id)
	}

	t := &Tenant{
		id:    id,
		name:  tc.Name,
		srv:   s,
		ranks: tc.Ranks,
		brk:   newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown),
		ops:   make([]chan *tenantOp, tc.Ranks),
		// Channel capacity covers every op the gate can have admitted or
		// queued, so dispatch sends never block under the tenant mutex.
		runDone:   make(chan error, 1),
		cAdmitted: s.metrics.Counter(fmt.Sprintf("serve.tenant.%d.admitted", id)),
		cShed:     s.metrics.Counter(fmt.Sprintf("serve.tenant.%d.shed", id)),
		cBrowned:  s.metrics.Counter(fmt.Sprintf("serve.tenant.%d.browned_out", id)),
		cCircuit:  s.metrics.Counter(fmt.Sprintf("serve.tenant.%d.circuit_open", id)),
		cPartition: s.metrics.Counter(
			fmt.Sprintf("serve.tenant.%d.partition.errors", id)),
	}
	depth := s.cfg.TenantSlots + s.cfg.QueueDepth + 2
	for r := range t.ops {
		t.ops[r] = make(chan *tenantOp, depth)
	}

	opts := []mpi.Option{
		mpi.WithPlanCache(s.plans),
		mpi.WithTenant(id),
		mpi.WithOpDeadline(s.cfg.OpDeadline),
	}
	if tc.Fault != nil {
		opts = append(opts, mpi.WithFault(*tc.Fault))
	}
	if tc.Integrity {
		opts = append(opts, mpi.WithIntegrity(integrity.Config{}))
	}
	if tc.Trace != nil {
		t.gateSink = trace.NewGate(tc.Trace)
		opts = append(opts, mpi.WithTracer(trace.New(t.gateSink)))
	}
	if tc.Autotune != nil {
		opts = append(opts, mpi.WithAutotune(*tc.Autotune))
	}
	if tc.Health != nil {
		opts = append(opts, mpi.WithHealth(*tc.Health))
	}
	if tc.Partition != nil {
		opts = append(opts, mpi.WithPartitionDetector(*tc.Partition))
	}
	t.world = mpi.NewWorld(b, opts...)
	if at := t.world.Autotuner(); at != nil {
		// Re-target the tuner's mirror at the server registry so the
		// daemon exposes every tenant's fit and flips side by side.
		at.MirrorMetrics(s.metrics, fmt.Sprintf("serve.tenant.%d.autotune.", id))
	}
	if hs := t.world.Health(); hs != nil {
		hs.MirrorMetrics(s.metrics, fmt.Sprintf("serve.tenant.%d.health.", id))
	}
	t.applyBrownout(s.brown.Level())

	s.gate.register(&tenantGate{
		id: id, name: tc.Name, weight: tc.Weight,
		maxOps: s.cfg.TenantSlots, maxBytes: s.cfg.TenantBytes, maxQueue: s.cfg.QueueDepth,
	})
	go func() { t.runDone <- t.world.Run(t.procLoop) }()

	s.mu.Lock()
	if s.closed {
		// Close() ran between the early check and registration: its
		// tenant snapshot cannot have seen this tenant, so nothing else
		// will ever free it — tear it down here.
		s.mu.Unlock()
		t.Free()
		return nil, ErrServerClosed
	}
	s.tenants[id] = t
	s.mu.Unlock()
	return t, nil
}

// applyBrownout reconfigures the tenant's optional work for a level.
func (t *Tenant) applyBrownout(level int) {
	if t.gateSink != nil {
		t.gateSink.SetEnabled(level < BrownoutTracing)
	}
	if t.world != nil {
		t.world.SetE2EDigests(level < BrownoutDigests)
	}
}

// ID returns the tenant's id (its plan-cache tenant tag).
func (t *Tenant) ID() uint64 { return t.id }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// World returns the tenant's runtime (stats, failure injection).
func (t *Tenant) World() *mpi.World { return t.world }

// Kill marks one of the tenant's ranks failed, as a crash fault would —
// the deterministic handle churn and isolation tests use to force a
// shrink.
func (t *Tenant) Kill(rank int) { t.world.MarkFailed(rank) }

// Request is one collective op submission.
type Request struct {
	Kind string // "bcast" | "allgather" | "barrier"
	Size int64  // payload (bcast) or per-rank block (allgather); 0 for barrier
	Seed int64  // oracle payload seed
}

// footprint is the request's bytes-in-flight charge.
func (r Request) footprint(ranks int) int64 {
	switch r.Kind {
	case "allgather":
		return r.Size * int64(ranks)
	default:
		return r.Size
	}
}

// Result is one completed op.
type Result struct {
	Completed int           // ranks that delivered a verified result
	Excluded  int           // ranks legitimately excluded (crashed, shrunk away)
	Group     []int         // agreed final membership of the completing ranks
	Latency   time.Duration // dispatch → last rank done
	Browned   bool          // the op ran under brownout
}

// rankDone is one rank's report for one op.
type rankDone struct {
	completed bool
	excluded  bool
	crashed   bool
	group     []int
	err       error
}

// tenantOp is one dispatched collective.
type tenantOp struct {
	ctx  context.Context
	req  Request
	done chan rankDone // buffered ranks-deep
}

// Submit runs one collective across the tenant's world: breaker →
// admission gate → dispatch to every rank loop → aggregate. ctx bounds
// admission AND the recovery machinery (agreement, delta rendezvous) of
// the op itself; the data path is bounded by the world's op deadline.
// Sheds return OverloadError, broken tenants CircuitOpenError.
func (t *Tenant) Submit(ctx context.Context, req Request) (Result, error) {
	switch req.Kind {
	case "bcast", "allgather", "barrier":
	default:
		return Result{}, fmt.Errorf("serve: unknown op kind %q", req.Kind)
	}
	s := t.srv
	ok, probe, wait, fails := t.brk.allow()
	if !ok {
		t.cCircuit.Add(1)
		s.metrics.Counter("serve.circuit_open").Add(1)
		return Result{}, &CircuitOpenError{Tenant: t.name, Failures: fails, RetryAfter: wait}
	}
	bytes := req.footprint(t.ranks)
	if err := s.gate.Admit(ctx, t.id, bytes); err != nil {
		if IsOverloaded(err) {
			t.cShed.Add(1)
			s.metrics.Counter("serve.shed").Add(1)
		}
		// An admission failure is load, not tenant health: the breaker
		// only watches op outcomes — but a half-open probe that never
		// dispatched must give its slot back, or no probe ever settles
		// and the circuit wedges open.
		if probe {
			t.brk.abortProbe()
		}
		return Result{}, err
	}
	t.cAdmitted.Add(1)
	s.metrics.Counter("serve.admitted").Add(1)
	level := s.brown.observe(s.gate.Occupancy())
	browned := level > BrownoutOff
	if browned {
		t.cBrowned.Add(1)
		s.metrics.Counter("serve.browned_out").Add(1)
	}

	start := time.Now()
	res, err := t.dispatch(ctx, req)
	dur := time.Since(start)
	s.brown.observe(s.gate.Release(t.id, bytes, dur))

	if err != nil {
		if t.brk.failure() {
			s.metrics.Counter("serve.circuit_trips").Add(1)
		}
		return Result{}, err
	}
	t.brk.success()
	res.Latency = dur
	res.Browned = browned
	return res, nil
}

// dispatch sends the op to every rank loop in one critical section (the
// same-order rule) and gathers every rank's report.
func (t *Tenant) dispatch(ctx context.Context, req Request) (Result, error) {
	op := &tenantOp{ctx: ctx, req: req, done: make(chan rankDone, t.ranks)}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return Result{}, ErrServerClosed
	}
	t.pending.Add(1)
	for r := range t.ops {
		t.ops[r] <- op
	}
	t.mu.Unlock()
	defer t.pending.Done()

	var res Result
	var firstErr error
	for i := 0; i < t.ranks; i++ {
		// The rank loops always drain their channels (crashed ranks
		// report exclusion immediately), and every in-flight collective
		// is bounded by the watchdog/context, so this wait terminates.
		d := <-op.done
		switch {
		case d.completed:
			res.Completed++
			if res.Group == nil {
				res.Group = d.group
			}
		case d.excluded:
			res.Excluded++
		case d.err != nil && firstErr == nil:
			firstErr = d.err
		}
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	if res.Completed == 0 {
		return Result{}, fmt.Errorf("serve: %s completed on no rank (all %d excluded)", req.Kind, t.ranks)
	}
	return res, nil
}

// procLoop is one rank's long-lived process: it pulls ops off its
// channel and runs them on its CURRENT communicator — which shrinks
// through failures and stays shrunk, so later ops run on the survivor
// communicator instead of re-tripping over the same dead ranks. A rank
// that crashed (or was shrunk away) keeps draining its channel,
// reporting exclusion, so dispatch never wedges on a dead rank.
func (t *Tenant) procLoop(p *mpi.Proc) error {
	cur := p.Comm()
	dead := false
	for op := range t.ops[p.Rank()] {
		if dead {
			op.done <- rankDone{excluded: true}
			continue
		}
		d, next := t.runOp(op, p, cur)
		if next != nil {
			cur = next
		}
		if d.crashed {
			dead = true
		}
		op.done <- d
	}
	return nil
}

// runOp executes one op on one rank, returning its report and the
// communicator to use for the NEXT op (nil = unchanged). Ops are rows of the
// chaos harness's table of verified collectives, run on the runtime's
// resilient ladder: payloads are oracle bytes, verified on delivery in the
// survivors' rank space, so a tenant op that "succeeds" has provably moved
// correct data — the soak's bystander zero-error assertion is a
// data-integrity assertion, not just an error-code check.
func (t *Tenant) runOp(op *tenantOp, p *mpi.Proc, cur *mpi.Comm) (rankDone, *mpi.Comm) {
	if cur.RankOf(p.Rank()) < 0 {
		// Shrunk away by an earlier op's recovery.
		return rankDone{excluded: true}, nil
	}
	nc, err := chaos.RunVerified(op.ctx, cur, op.req.Kind, op.req.Seed, op.req.Size, mpi.Adaptive)
	if err != nil {
		return t.classify(p, err), nc
	}
	return rankDone{completed: true, group: nc.Group()}, nc
}

// classify sorts a per-rank op error into the report taxonomy on the
// runtime's one exclusion rule (mpi.Classify): a rank that crashed, was
// fenced out or saw recovery refuse or run out is a legitimate exclusion —
// it is dead or out of the membership, and the op itself may well have
// completed on the survivors. What is the serve layer's own: the partition
// counters, and the World.Failed() scan for a rank marked failed while still
// running (e.g. declared corrupting), whatever its error looks like.
// Anything else (hangs above all) is a real failure, charged to the tenant's
// breaker.
func (t *Tenant) classify(p *mpi.Proc, err error) rankDone {
	kind := mpi.Classify(err)
	switch kind {
	case mpi.OutcomeCrashed:
		return rankDone{excluded: true, crashed: true}
	case mpi.OutcomePartitioned:
		// Before the Failed() scan: a fenced minority rank is ALSO marked
		// failed by the majority's quorum decision, and the more specific
		// classification must win so the isolation counters see it. The rank
		// is permanently out of the membership and the op itself completes
		// on the majority component: isolation accounting, not tenant health.
		t.cPartition.Add(1)
		t.srv.metrics.Counter("serve.partition_errors").Add(1)
		t.srv.metrics.Gauge(fmt.Sprintf("serve.tenant.%d.partition.epoch", t.id)).
			Set(float64(t.world.PartitionEpoch()))
		return rankDone{excluded: true, crashed: true}
	}
	if slices.Contains(t.world.Failed(), p.Rank()) {
		// Marked failed while still running: permanently out. The crashed
		// flag makes the rank loop drain later ops instead of re-failing
		// each one.
		return rankDone{excluded: true, crashed: true}
	}
	if kind == mpi.OutcomeExcluded {
		return rankDone{excluded: true}
	}
	return rankDone{err: err}
}

// Free tears the tenant down: refuse new submissions, wait for
// in-flight ones, stop every rank loop, then release everything it
// pinned in shared structures — queued admissions, its plan-cache
// entries, its trace sink, its server registration. Idempotent.
func (t *Tenant) Free() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	t.pending.Wait()
	for r := range t.ops {
		close(t.ops[r])
	}
	err := <-t.runDone
	// Cut short any injected stall or retry backoff a straggling rank is
	// still sleeping in, so teardown latency is bounded by real work.
	t.world.Close()

	s := t.srv
	s.gate.unregister(t.id)
	s.plans.InvalidateTenant(t.id)
	// Tenant ids are monotone, so per-tenant counters left behind would
	// grow the registry without bound under churn.
	s.metrics.RemovePrefix(fmt.Sprintf("serve.tenant.%d.", t.id))
	s.mu.Lock()
	delete(s.tenants, t.id)
	s.mu.Unlock()
	return err
}

// TenantSnapshot is one tenant's stats.
type TenantSnapshot struct {
	ID              uint64
	Name            string
	Admitted        int64
	Shed            int64
	BrownedOut      int64
	CircuitOpen     int64
	Breaker         string // "closed" | "open" | "half-open"
	InFlight        int
	Queued          int
	PlanHits        int64
	PlanMisses      int64
	PlanResident    int
	Failed          []int // dead world ranks in the tenant's world
	Fenced          []int // world ranks fenced by quorum decisions
	PartitionErrors int64
	PartitionEpoch  int64
}

// Stats is a server-wide snapshot.
type Stats struct {
	Tenants       []TenantSnapshot
	BrownoutLevel int
	Occupancy     float64
	Admitted      int64
	Shed          int64
	BrownedOut    int64
	CircuitOpen   int64
	PlanCache     plancache.Stats
}

// Stats snapshots the server: global counters, brownout level, and one
// entry per live tenant sorted by id.
func (s *Server) Stats() Stats {
	st := Stats{
		BrownoutLevel: s.brown.Level(),
		Occupancy:     s.gate.Occupancy(),
		Admitted:      s.metrics.Counter("serve.admitted").Load(),
		Shed:          s.metrics.Counter("serve.shed").Load(),
		BrownedOut:    s.metrics.Counter("serve.browned_out").Load(),
		CircuitOpen:   s.metrics.Counter("serve.circuit_open").Load(),
		PlanCache:     s.plans.Stats(),
	}
	s.mu.Lock()
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	sort.Slice(ts, func(a, b int) bool { return ts[a].id < ts[b].id })
	for _, t := range ts {
		inFlight, _, queued := s.gate.snapshot(t.id)
		pc := s.plans.TenantStats(t.id)
		st.Tenants = append(st.Tenants, TenantSnapshot{
			ID: t.id, Name: t.name,
			Admitted:    t.cAdmitted.Load(),
			Shed:        t.cShed.Load(),
			BrownedOut:  t.cBrowned.Load(),
			CircuitOpen: t.cCircuit.Load(),
			Breaker:     t.brk.state(),
			InFlight:    inFlight, Queued: queued,
			PlanHits: pc.Hits, PlanMisses: pc.Misses, PlanResident: pc.Resident,
			Failed:          t.world.Failed(),
			Fenced:          t.world.FencedRanks(),
			PartitionErrors: t.cPartition.Load(),
			PartitionEpoch:  t.world.PartitionEpoch(),
		})
	}
	return st
}

// Partitioned reports whether the tenant's world lost quorum outright:
// a quorum decision ran and NO component survived (e.g. a three-way
// split). Such a tenant can never complete another op — every rank is
// in a minority — and should be reaped.
func (t *Tenant) Partitioned() bool {
	v := t.world.PartitionVerdict()
	return v != nil && v.Winner == nil
}

// ReapPartitioned frees every tenant whose world lost quorum outright,
// releasing its admission slice, plan-cache entries and metrics exactly
// as Free does, and returns the reaped tenants' names sorted. Tenants
// that kept a majority component are NOT reaped — they continue on the
// surviving membership.
func (s *Server) ReapPartitioned() []string {
	s.mu.Lock()
	var doomed []*Tenant
	for _, t := range s.tenants {
		if t.Partitioned() {
			doomed = append(doomed, t)
		}
	}
	s.mu.Unlock()
	names := make([]string, 0, len(doomed))
	for _, t := range doomed {
		names = append(names, t.name)
		s.metrics.Counter("serve.partition_reaped").Add(1)
		t.Free()
	}
	sort.Strings(names)
	return names
}

// TenantCount returns the number of live tenants.
func (s *Server) TenantCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Close frees every tenant and refuses further creation.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	var first error
	for _, t := range ts {
		if err := t.Free(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
