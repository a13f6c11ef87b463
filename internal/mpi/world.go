// Package mpi is a miniature message-passing runtime: the substrate that
// stands in for Open MPI's process layer in this reproduction. A World
// runs one goroutine per MPI process, bound to the cores of a simulated
// machine; processes exchange messages point-to-point, form communicators
// (split, re-rank), and invoke collective operations backed by pluggable
// components — the distance-aware KNEM collectives of package core or the
// rank-based tuned/MPICH baselines.
//
// Collectives compile to the same sched.Schedule the performance model
// simulates, then execute concurrently on real buffers, with cross-address
// space transfers routed through the emulated KNEM device. The runtime
// therefore demonstrates the paper's full stack end to end: communicator →
// process distance → adaptive topology → kernel-assisted data movement.
//
// On top of that sits a fault-tolerance layer modeled on ULFM: a World
// can carry a fault.Injector (transient copy failures, corrupted or
// delayed transfers, dropped messages, rank crashes), a watchdog whose
// per-operation deadlines turn deadlocks into diagnosable HangErrors,
// and failure notification that lets surviving ranks shrink a broken
// communicator (Comm.Shrink) and re-run the distance-aware topology
// construction over the survivors.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distcoll/internal/autotune"
	"distcoll/internal/binding"
	"distcoll/internal/fault"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/knem"
	"distcoll/internal/partition"
	"distcoll/internal/plancache"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

// message is one point-to-point payload in flight.
type message struct {
	tag  int
	data []byte
}

// DefaultMailboxCapacity is the per-(src,dst) mailbox depth unless
// overridden with WithMailboxCapacity.
const DefaultMailboxCapacity = 64

// World is a job: n processes bound to cores of one machine.
type World struct {
	bind   *binding.Binding
	dev    *knem.Device
	mover  knem.Mover         // data path: the device, possibly fault-wrapped
	inj    *fault.Injector    // nil when no fault injection is configured
	tracer *trace.Tracer      // nil when tracing is disabled
	integ  *integrity.Checker // nil when integrity verification is disabled
	n      int

	// nplan issues world-unique plan ids so trace events from concurrent
	// collectives on different communicators stay separable.
	nplan atomic.Int64

	mailboxCap  int
	sendTimeout time.Duration
	opDeadline  time.Duration

	// Adaptive component state: the decision engine picking per-call
	// algorithms, and the cache of compiled schedules it reuses
	// (DESIGN.md §8). Always non-nil after NewWorld. The cache may be
	// shared across worlds (WithPlanCache); tenant scopes this world's
	// keys and invalidations so co-resident worlds never drop each
	// other's plans. With WithAutotune the selector is the tuner's
	// overlay; otherwise the static *tune.Selector.
	selector tune.Decider
	plans    *plancache.Cache
	planCap  int
	tenant   uint64

	// Online autotuning (DESIGN.md §14): when configured, the tuner sits
	// as a trace sink behind the world's tracer, and its revisions
	// invalidate exactly the affected plan-cache entries.
	autoCfg *autotune.Config
	tuner   *autotune.Tuner

	// Gray-failure detection (DESIGN.md §15): when configured, the scorer
	// sits as a trace sink, and its demotion snapshots overlay every
	// communicator's distance view so plans route around degraded links.
	scorer *health.Scorer

	// Partition tolerance (DESIGN.md §16): when configured, the detector
	// maintains the reachability view, quorum decisions fence minority
	// ranks (fenced maps rank → fencing epoch) and the probe mover —
	// the injectable but unfenced, untraced transport — carries the
	// reachability probes. Guarded by pmu except the lock-free hints.
	partCfg      *partition.Config
	det          *partition.Detector
	probeMover   knem.Mover
	probeCookies []knem.Cookie
	pmu          sync.Mutex
	fenced       map[int]int64
	fencedHint   atomic.Bool
	lastVerdict  *partition.Verdict
	lastRev      int64
	resolved     bool
	partOps      atomic.Int64

	// done closes on Close: injected fault stalls and retry backoffs
	// select on it so teardown never waits out a sleep.
	done      chan struct{}
	closeOnce sync.Once

	// e2eOff is the brownout gate for end-to-end digests: when set, new
	// plans skip digest attachment (per-hop checksums stay on). Flipped
	// at runtime by the serve layer under sustained pressure.
	e2eOff atomic.Bool

	// mail[src·n+dst] carries messages, created on the pair's first Send or
	// Recv (mailbox): collectives never touch it, and n² eager channels were
	// most of a world's heap. Receivers keep per-sender pending queues for
	// tag matching.
	mail []atomic.Pointer[chan message]

	// Failure detection: the set of dead world ranks, plus a broadcast
	// channel closed (and replaced) on every change so blocked operations
	// wake immediately — event-driven, never polled. failed is copy-on-write:
	// MarkFailed publishes a fresh map and never edits a published one, so
	// waiters read the set without copying it, and since ranks are only ever
	// added its length is the failure generation.
	fmu    sync.Mutex
	failed map[int]bool
	failCh chan struct{}

	// Watchdog bookkeeping: what each rank is currently blocked on, for
	// the hang diagnostic. By world rank, zero when it is not blocked: a
	// fixed slice, so that parking never allocates.
	bmu     sync.Mutex
	blocked []blockEntry

	// Communicator identity and the shrink registry: survivors of a
	// failure derive the same shrunken communicator state from (parent
	// comm id, survivor group) without coordinating through the broken
	// communicator.
	ncomm  atomic.Int64
	smu    sync.Mutex
	shrunk map[string]*commState

	worldComm *commState
}

// Option configures a World at construction.
type Option func(*World)

// WithMailboxCapacity sets the per-(src,dst) mailbox depth. Senders that
// outrun a full mailbox block, then time out with a SendTimeoutError
// (when a send timeout or op deadline is set) instead of hanging silently.
func WithMailboxCapacity(n int) Option {
	return func(w *World) {
		if n > 0 {
			w.mailboxCap = n
		}
	}
}

// WithSendTimeout bounds how long a Send may block on a full mailbox
// before failing with a SendTimeoutError naming the blocked src→dst pair.
// Zero falls back to the op deadline, if any.
func WithSendTimeout(d time.Duration) Option {
	return func(w *World) { w.sendTimeout = d }
}

// WithOpDeadline arms the watchdog: any single blocking operation (a
// recv, a send on a full mailbox, a collective synchronization, a
// dependency wait inside a collective) that exceeds d fails with a
// HangError carrying a dump of every blocked rank, instead of
// deadlocking the job. Zero disables the watchdog.
func WithOpDeadline(d time.Duration) Option {
	return func(w *World) { w.opDeadline = d }
}

// WithFault installs a fault-injection plan: the KNEM data path and the
// mailbox transport are routed through a deterministic fault.Injector.
func WithFault(plan fault.Plan) Option {
	return func(w *World) { w.inj = fault.NewInjector(plan) }
}

// WithIntegrity arms end-to-end data-integrity verification: every KNEM
// pull is covered by a per-chunk CRC32-Castagnoli computed at the sending
// side and verified by the receiver (mismatches re-pull with backoff, on
// a budget separate from the transient-error retries; a peer whose chunks
// keep failing is marked corrupting and treated like a failed rank), and
// Bcast/Allgather additionally verify origin digests end to end. The
// zero Config selects the default re-pull budget and backoff.
func WithIntegrity(cfg integrity.Config) Option {
	return func(w *World) { w.integ = integrity.NewChecker(cfg) }
}

// WithTracer installs a structured-event tracer: collective plans, edge
// copies (tagged with distance class and chunk index), cookie lifecycle,
// retries, failure detection and watchdog fires are emitted into its
// sinks, and its metrics registry accumulates the per-distance-class
// counters. A nil tracer leaves tracing disabled.
func WithTracer(t *trace.Tracer) Option {
	return func(w *World) { w.tracer = t }
}

// WithSelector installs a decision selector for the Adaptive component
// (e.g. one built from freshly calibrated tables). Without this option
// the world uses tune.DefaultSelector() — the shipped default tables plus
// the paper's fallback crossover rules. With WithAutotune the selector
// becomes the base of the tuner's overlay.
func WithSelector(s *tune.Selector) Option {
	return func(w *World) { w.selector = s }
}

// WithAutotune arms the online autotuning subsystem: an autotune.Tuner
// is attached as a trace sink (creating a tracer if none was installed),
// the Adaptive component selects through the tuner's overlay instead of
// the static selector, and every published decision revision invalidates
// exactly the plan-cache entries it affects — this tenant's entries for
// that collective in the revised size range; everything else stays
// cached. The tuner learns the world communicator's topology; fitted
// parameters and flip counters are mirrored into the tracer's metrics
// under "autotune.".
func WithAutotune(cfg autotune.Config) Option {
	return func(w *World) { w.autoCfg = &cfg }
}

// WithHealth arms gray-failure detection and self-healing: a
// health.Scorer is attached as a trace sink (creating a tracer if none
// was installed) that scores every (src, dst) link and rank against its
// distance-class baseline. Persistently slow links are demoted — their
// effective distance class is raised in every communicator's view, so
// the existing builders route around them — and each demotion revision
// invalidates this tenant's plan-cache entries, forcing a replan on
// next use. A probation clock probes demoted links and reinstates the
// recovered ones. With Config.EscalateRatio set, a rank degraded beyond
// that ratio is handed to the hard-failure ladder via MarkFailed.
// Scorer counters are mirrored into the tracer's metrics under
// "health.".
func WithHealth(cfg health.Config) Option {
	return func(w *World) { w.scorer = health.NewScorer(cfg) }
}

// WithPlanCacheCapacity bounds the world's compiled-schedule cache (the
// Adaptive component's LRU); ≤ 0 keeps plancache.DefaultCapacity.
func WithPlanCacheCapacity(n int) Option {
	return func(w *World) { w.planCap = n }
}

// WithPlanCache shares an externally owned (typically sharded) plan
// cache instead of creating a private one — the serve layer hands every
// tenant world the daemon's cache. Combine with WithTenant so keys and
// invalidations stay scoped to this world.
func WithPlanCache(c *plancache.Cache) Option {
	return func(w *World) {
		if c != nil {
			w.plans = c
		}
	}
}

// WithTenant tags the world's plan-cache keys and invalidations with a
// tenant id (non-zero). Two worlds with identical process placements
// hash to the same topology fingerprint; the tenant tag keeps one
// world's failure-driven invalidation from dropping the other's plans.
func WithTenant(id uint64) Option {
	return func(w *World) { w.tenant = id }
}

// NewWorld creates a world with one process per bound rank.
func NewWorld(b *binding.Binding, opts ...Option) *World {
	n := b.NumRanks()
	w := &World{
		bind:       b,
		dev:        knem.NewDevice(),
		n:          n,
		mailboxCap: DefaultMailboxCapacity,
		mail:       make([]atomic.Pointer[chan message], n*n),
		failed:     make(map[int]bool),
		failCh:     make(chan struct{}),
		blocked:    make([]blockEntry, n),
		shrunk:     make(map[string]*commState),
		done:       make(chan struct{}),
	}
	for _, opt := range opts {
		opt(w)
	}
	if w.selector == nil {
		w.selector = tune.DefaultSelector()
	}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	w.worldComm = newCommState(w, group)
	if w.autoCfg != nil {
		base, _ := w.selector.(*tune.Selector)
		t := autotune.NewTuner(base, w.worldComm.baseView(), *w.autoCfg)
		w.tuner = t
		w.selector = t.Overlay()
		t.OnRevise(func(revs []autotune.Revision) {
			for _, rev := range revs {
				w.plans.Invalidate(func(k plancache.Key) bool {
					return k.Tenant == w.tenant && k.Coll == string(rev.Coll) &&
						k.Size >= rev.MinBytes && (rev.MaxBytes == 0 || k.Size < rev.MaxBytes)
				})
			}
		})
		w.attach(t, "autotune.")
	}
	if s := w.scorer; s != nil {
		s.OnRevise(func(rev health.Revision) {
			// A demotion (or probe lift) changes the effective topology
			// of every communicator containing the affected endpoints:
			// their topology hashes change with the snapshot, so this
			// tenant's old-hash entries are dead weight — drop them.
			w.plans.Invalidate(func(k plancache.Key) bool {
				return k.Tenant == w.tenant
			})
		})
		s.OnDead(func(rank int) { w.MarkFailed(rank) })
		w.attach(s, "health.")
	}
	if w.plans == nil {
		w.plans = plancache.New(w.planCap, w.tracer.Metrics())
	}
	w.mover = knem.Mover(w.dev)
	if w.inj != nil {
		w.inj.SetAbort(w.done)
		w.mover = w.inj.Wrap(w.dev)
	}
	// Probes ride the injectable transport (a severed link must refuse
	// them) but bypass both the trace layer (they carry no schedule
	// information) and the fence (a fenced rank may still observe the
	// network; it just may not touch collective data).
	w.probeMover = w.mover
	w.mover = knem.Traced(w.mover, w.tracer)
	if w.partCfg != nil {
		w.initPartition()
		w.mover = &fenceMover{w: w, inner: w.mover}
		if w.scorer != nil {
			// A severed edge escalates to partition suspicion: the
			// gray-failure ladder must not burn demote/probe cycles on a
			// link the quorum machinery is about to fence.
			w.scorer.SetPartitionSuspect(func(a, b int) bool {
				return !w.det.MutuallyReachable(a, b)
			})
		}
	}
	if w.tracer != nil {
		w.tracer.Meta(trace.MetaInfo{Machine: b.Topology().Name, Binding: b.Name, Procs: n}.String())
	}
	return w
}

// attach arms one feedback layer (the tuner, the scorer): a sink behind the
// world's tracer — made here when none was installed — whose state is
// mirrored into the tracer's registry under prefix.
func (w *World) attach(layer interface {
	trace.Sink
	MirrorMetrics(*trace.Metrics, string)
}, prefix string) {
	if w.tracer == nil {
		w.tracer = trace.New(layer)
	} else {
		w.tracer.AddSink(layer)
	}
	layer.MirrorMetrics(w.tracer.Metrics(), prefix)
}

// mailbox returns the src→dst channel, creating it on first use. Sender
// and receiver may race to create it: the CAS makes one channel win and
// both use it, so per-pair ordering is that of the one channel.
func (w *World) mailbox(src, dst int) chan message {
	slot := &w.mail[src*w.n+dst]
	if ch := slot.Load(); ch != nil {
		return *ch
	}
	ch := make(chan message, w.mailboxCap)
	if slot.CompareAndSwap(nil, &ch) {
		return ch
	}
	return *slot.Load()
}

// Size returns the number of processes.
func (w *World) Size() int { return w.n }

// Binding returns the process placement.
func (w *World) Binding() *binding.Binding { return w.bind }

// Topology returns the machine.
func (w *World) Topology() *hwtopo.Topology { return w.bind.Topology() }

// Device returns the shared KNEM device (for stats and tests).
func (w *World) Device() *knem.Device { return w.dev }

// Injector returns the fault injector, or nil when none is installed.
func (w *World) Injector() *fault.Injector { return w.inj }

// Tracer returns the installed tracer, or nil when tracing is disabled.
func (w *World) Tracer() *trace.Tracer { return w.tracer }

// Integrity returns the integrity checker, or nil when disabled.
func (w *World) Integrity() *integrity.Checker { return w.integ }

// Selector returns the adaptive component's decision engine: the static
// selector, or the autotuner's overlay when WithAutotune is armed.
func (w *World) Selector() tune.Decider { return w.selector }

// Autotuner returns the online tuner, or nil when WithAutotune was not
// configured.
func (w *World) Autotuner() *autotune.Tuner { return w.tuner }

// Health returns the gray-failure scorer, or nil when WithHealth was
// not configured.
func (w *World) Health() *health.Scorer { return w.scorer }

// Close signals world teardown: injected fault stalls and in-flight
// retry backoffs return promptly instead of sleeping out their full
// duration. Idempotent; safe to call while ranks are still running
// (their current sleeps are cut short, their results unchanged).
func (w *World) Close() {
	w.closeOnce.Do(func() { close(w.done) })
}

// Done returns the channel closed by Close.
func (w *World) Done() <-chan struct{} { return w.done }

// sleep blocks for d on a timer, returning false immediately when the
// world is closed first. Retry backoffs in the copy paths use it so a
// straggling rank mid-backoff cannot outlive Close.
func (w *World) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.done:
		return false
	}
}

// PlanCache returns the world's compiled-schedule cache (for stats and
// tests).
func (w *World) PlanCache() *plancache.Cache { return w.plans }

// Tenant returns the tenant id tagging this world's plan-cache keys
// (zero when untagged).
func (w *World) Tenant() uint64 { return w.tenant }

// SetE2EDigests enables or disables end-to-end digest attachment on new
// collective plans — the last rung of the serve layer's brownout ladder.
// Per-hop checksums are unaffected; with digests off, a silent fault is
// still caught hop by hop, just not re-verified against the origin.
// A world without WithIntegrity is unaffected either way.
func (w *World) SetE2EDigests(on bool) { w.e2eOff.Store(!on) }

// e2eEnabled reports whether new plans should carry end-to-end digests.
func (w *World) e2eEnabled() bool { return w.integ != nil && !w.e2eOff.Load() }

// Run spawns every process, executes main on each, and waits for all.
// Per-rank errors (and recovered panics) are aggregated with errors.Join,
// so multi-rank failures are fully reported; nil means every rank
// succeeded.
func (w *World) Run(main func(p *Proc) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				}
			}()
			p := &Proc{world: w, rank: rank}
			if err := main(p); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MarkFailed records the death of a world rank and wakes every blocked
// operation so failure handling is event-driven. Idempotent.
func (w *World) MarkFailed(rank int) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.failed[rank] {
		return
	}
	next := make(map[int]bool, len(w.failed)+1)
	for r := range w.failed {
		next[r] = true
	}
	next[rank] = true
	w.failed = next
	close(w.failCh)
	w.failCh = make(chan struct{})
	w.tracer.Failure(rank)
}

// Failed returns the sorted world ranks known to be dead.
func (w *World) Failed() []int {
	failed, _ := w.failureWatch()
	return sortedRanks(failed)
}

// failureWatch returns the failed set — an immutable snapshot, never to be
// modified by the caller — and a channel closed on its next change, from
// one critical section. Waiters loop: check the snapshot, block on the
// channel, re-check; len(snapshot) is the failure generation, so a waiter
// woken for another reason can skip the re-check while it is unchanged.
func (w *World) failureWatch() (map[int]bool, <-chan struct{}) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	return w.failed, w.failCh
}

// blockKind says what kind of operation a rank is blocked in.
type blockKind uint8

const (
	blockSend  blockKind = iota // a = dst, b = tag
	blockRecv                   // a = src, b = tag
	blockSync                   // comm, a = seq
	blockAgree                  // comm, a = round
	blockDep                    // a = op, b = dependency, c = world rank executing it
)

// blockDesc names one blocking operation as a small value: recording it
// costs no formatting and no allocation. It is rendered only when a
// watchdog fires (HangError.Op, BlockedDump).
type blockDesc struct {
	kind    blockKind
	comm    int64
	a, b, c int
}

func (d blockDesc) String() string {
	switch d.kind {
	case blockSend:
		return fmt.Sprintf("send(dst=%d, tag=%d)", d.a, d.b)
	case blockRecv:
		return fmt.Sprintf("recv(src=%d, tag=%d)", d.a, d.b)
	case blockSync:
		return fmt.Sprintf("collective sync (comm %d, seq %d)", d.comm, d.a)
	case blockAgree:
		return fmt.Sprintf("agreement (comm %d, round %d)", d.comm, d.a)
	default:
		return fmt.Sprintf("collective op %d (waiting on op %d of rank %d)", d.a, d.b, d.c)
	}
}

// blockEntry records one rank's current blocking operation.
type blockEntry struct {
	what  blockDesc
	since time.Time
}

func (w *World) blockEnter(rank int, what blockDesc) {
	w.bmu.Lock()
	w.blocked[rank] = blockEntry{what: what, since: time.Now()}
	w.bmu.Unlock()
}

func (w *World) blockExit(rank int) {
	w.bmu.Lock()
	w.blocked[rank] = blockEntry{}
	w.bmu.Unlock()
}

// BlockedDump renders the watchdog diagnostic: every currently blocked
// rank, what it is blocked on, and for how long.
func (w *World) BlockedDump() string {
	w.bmu.Lock()
	var parts []string
	for r, e := range w.blocked {
		if e.since.IsZero() {
			continue
		}
		parts = append(parts, fmt.Sprintf("rank %d in %s for %v", r, e.what, time.Since(e.since).Round(time.Millisecond)))
	}
	w.bmu.Unlock()
	if len(parts) == 0 {
		return "no ranks blocked"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return out
}

// sortedRanks flattens a rank set into sorted order.
func sortedRanks(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// deadIn returns the sorted world ranks of group present in failed.
func deadIn(failed map[int]bool, group []int) []int {
	var dead []int
	for _, wr := range group {
		if failed[wr] {
			dead = append(dead, wr)
		}
	}
	sort.Ints(dead)
	return dead
}

// Proc is the handle one process uses: its rank, world, and mailbox state.
// A Proc is owned by its goroutine and must not be shared.
type Proc struct {
	world   *World
	rank    int
	pending [][]message // unmatched messages per sender; made by the first Recv
}

// Rank returns the process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.n }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// Core returns the core the process is bound to.
func (p *Proc) Core() *hwtopo.Object { return p.world.bind.CoreObject(p.rank) }

// Comm returns the world communicator handle for this process.
func (p *Proc) Comm() *Comm {
	return &Comm{state: p.world.worldComm, rank: p.rank, proc: p}
}

// Send delivers a tagged message to dst. The payload is copied (MPI send
// semantics: the caller's buffer is reusable on return). A send that
// blocks on a full mailbox past the send timeout (or, failing that, the
// op deadline) returns a SendTimeoutError naming the blocked src→dst
// pair; a send to a rank known dead fails with a RankFailureError.
func (p *Proc) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= p.world.n {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	w := p.world
	if err := w.fenceCheck(p.rank, "send"); err != nil {
		return err
	}
	if w.inj != nil {
		drop, delay, err := w.inj.OnSend(p.rank, dst)
		if err != nil {
			return fmt.Errorf("mpi: send from rank %d: %w", p.rank, err)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if drop {
			// Lost in transit. Send has local-completion semantics, so the
			// sender cannot tell — the receiver's watchdog will.
			return nil
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m := message{tag: tag, data: cp}
	ch := w.mailbox(p.rank, dst)
	select {
	case ch <- m:
		return nil
	default:
	}
	// Mailbox full: block with failure watch and timeout.
	timeout := w.sendTimeout
	if timeout <= 0 {
		timeout = w.opDeadline
	}
	w.blockEnter(p.rank, blockDesc{kind: blockSend, a: dst, b: tag})
	defer w.blockExit(p.rank)
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	for {
		failed, failCh := w.failureWatch()
		if failed[dst] {
			return &RankFailureError{Failed: sortedRanks(failed)}
		}
		select {
		case ch <- m:
			return nil
		case <-failCh:
		case <-timeoutC:
			return &SendTimeoutError{Src: p.rank, Dst: dst, Tag: tag, Capacity: cap(ch), Timeout: timeout}
		}
	}
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload. Messages from one sender are matched in order;
// unmatched tags are queued. If src is known dead and no matching
// message is buffered, Recv fails with a RankFailureError; if the
// watchdog deadline passes first, it fails with a HangError carrying the
// blocked-rank dump.
func (p *Proc) Recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= p.world.n {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	if p.pending == nil {
		p.pending = make([][]message, p.world.n)
	}
	q := p.pending[src]
	for i, m := range q {
		if m.tag == tag {
			p.pending[src] = append(q[:i:i], q[i+1:]...)
			return m.data, nil
		}
	}
	w := p.world
	ch := w.mailbox(src, p.rank)
	blocked := false
	var timeoutC <-chan time.Time
	desc := blockDesc{kind: blockRecv, a: src, b: tag}
	for {
		var m message
		select {
		case m = <-ch:
		default:
			// Would block: arm the watchdog once, then wait on the message,
			// a failure notification, or the deadline.
			if !blocked {
				blocked = true
				w.blockEnter(p.rank, desc)
				defer w.blockExit(p.rank)
				var dog watchdog
				timeoutC = dog.arm(w.opDeadline)
				defer dog.disarm()
			}
			failed, failCh := w.failureWatch()
			if failed[src] {
				return nil, &RankFailureError{Failed: sortedRanks(failed)}
			}
			select {
			case m = <-ch:
			case <-failCh:
				continue
			case <-timeoutC:
				w.tracer.Watchdog(p.rank, desc.String())
				return nil, &HangError{Rank: p.rank, Op: desc.String(), Deadline: w.opDeadline,
					Dump: w.BlockedDump(), Suspicion: w.hangSuspicion(p.rank, []int{src})}
			}
		}
		if m.tag == tag {
			return m.data, nil
		}
		p.pending[src] = append(p.pending[src], m)
	}
}

// Sendrecv exchanges messages with a partner (deadlock-free pairwise
// exchange).
func (p *Proc) Sendrecv(partner, tag int, send []byte) ([]byte, error) {
	if err := p.Send(partner, tag, send); err != nil {
		return nil, err
	}
	return p.Recv(partner, tag)
}
