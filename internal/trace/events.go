package trace

// This file is the runtime half of the package: a low-overhead structured
// event layer the live runtime (mpi, knem, exec) emits into, as opposed to
// the simulation post-mortems above. Events record where bytes actually
// flowed — per-edge copies tagged with the process-distance class of the
// edge, pipeline chunk indices, plan and cookie lifecycle, retries and
// failure detection — so the schedule a collective *executed* can be
// checked mechanically against the schedule the paper's algorithms
// *promised* (cmd/disttrace).
//
// The zero value of the whole layer is "off": every emit method is
// nil-safe, so callers thread a possibly-nil *Tracer everywhere and pay
// one pointer test per event site when tracing is disabled.

import (
	"fmt"
	"time"
)

// Kind classifies an Event.
type Kind string

const (
	// KindMeta is the trace header: machine, binding, rank count — what a
	// later analyzer needs to rebuild the distance matrix (Det holds
	// MetaInfo.String()).
	KindMeta Kind = "meta"
	// KindOpBegin / KindOpEnd bracket one collective call on one rank.
	KindOpBegin Kind = "op_begin"
	KindOpEnd   Kind = "op_end"
	// KindCopy is one executed edge copy: Rank pulled Bytes from Src's
	// buffer into Dst's, chunk Chunk, over an edge of distance class Dist.
	KindCopy Kind = "copy"
	// KindPlanBuild / KindPlanReap bracket a collective plan's lifetime:
	// schedule compiled + regions declared, and the reaper releasing every
	// cookie after the last member left.
	KindPlanBuild Kind = "plan_build"
	KindPlanReap  Kind = "plan_reap"
	// KindDeclare / KindDestroy are KNEM cookie lifecycle events from the
	// transport layer.
	KindDeclare Kind = "declare"
	KindDestroy Kind = "destroy"
	// KindPlanCache is one plan-cache lookup by the adaptive component:
	// Det holds the selector's decision, Mode is "hit" or "miss".
	KindPlanCache Kind = "plan_cache"
	// KindRetry is one retry of a transiently-failed copy.
	KindRetry Kind = "retry"
	// KindIntegrity is one per-hop checksum mismatch on a verified pull:
	// Rank pulled chunk Chunk from Src and the CRC32-Castagnoli did not
	// match the sender-side value (Det holds attempt and both sums). The
	// runtime re-pulls with backoff; persistent mismatch marks the peer
	// corrupting.
	KindIntegrity Kind = "integrity"
	// KindAgree is one completed fault-tolerant agreement on a
	// communicator's failure set (Comm.Agree): Rank decided, after Chunk
	// merge rounds, on the membership recorded in Det.
	KindAgree Kind = "agree"
	// KindRecovery is one recovery decision of the resilient collectives:
	// Mode says which rung of the escalation ladder ran ("retry" in place,
	// delta "repair", full "restart"), Chunk the missing (rank, chunk)
	// pairs the ledger exchange found, Bytes the payload bytes the chosen
	// plan moves, and Det the full-restart cost and the bytes saved
	// ("full=<n> saved=<n>").
	KindRecovery Kind = "recovery"
	// KindFailure is the failure detector marking a rank dead.
	KindFailure Kind = "failure"
	// KindWatchdog is a watchdog deadline firing on a blocked rank.
	KindWatchdog Kind = "watchdog"
	// KindPartition is one quorum decision by the partition detector:
	// Chunk holds the new partition epoch and Det the verdict (connected
	// components, winner, quorum math). Exactly one event per epoch.
	KindPartition Kind = "partition"
	// KindFence is stale-epoch traffic rejected at the transport
	// boundary: Rank is the fenced caller, Chunk the epoch it was fenced
	// at, Det the refused operation.
	KindFence Kind = "fence"
)

// Event is one structured trace record. Every field is always serialized,
// so a trace line is self-describing and goldens are byte-stable; fields
// that do not apply hold -1 (ranks, ids, chunk, dist) or are empty.
type Event struct {
	T     int64  `json:"t"`     // nanoseconds since the tracer started
	Kind  Kind   `json:"k"`     // event class
	Op    string `json:"op"`    // collective name ("bcast", "allgather", …)
	Plan  int64  `json:"plan"`  // plan id grouping one collective's events
	Rank  int    `json:"rank"`  // acting rank (-1 when not rank-scoped)
	Src   int    `json:"src"`   // copy source rank (-1)
	Dst   int    `json:"dst"`   // copy destination rank (-1)
	OpID  int    `json:"opid"`  // schedule op id (-1)
	Chunk int    `json:"chunk"` // pipeline chunk / ring step index (-1)
	Bytes int64  `json:"bytes"` // payload bytes (0 when not a transfer)
	Dist  int    `json:"dist"`  // process-distance class of the edge (-1)
	Mode  string `json:"mode"`  // transfer mode ("knem", "shm", "local")
	Dur   int64  `json:"dur"`   // operation duration in nanoseconds (0)
	Err   string `json:"err"`   // error text for retry/failure events
	Det   string `json:"det"`   // free-form detail (meta payload, dumps)
}

// Sink consumes events. Implementations must be safe for concurrent Emit
// calls: many rank goroutines trace into one sink.
type Sink interface {
	Emit(Event)
}

// Tracer fans events out to its sinks and maintains the metrics registry.
// The nil *Tracer is the disabled tracer: every method is a no-op and the
// hot path (one nil test per call site) allocates nothing.
type Tracer struct {
	sinks   []Sink
	metrics *Metrics
	start   time.Time
}

// New creates a tracer writing to the given sinks (zero sinks is valid:
// the tracer then only feeds its metrics registry).
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks, metrics: NewMetrics(), start: time.Now()}
}

// AddSink appends a sink to the tracer. Construction-time only: the sink
// list is read without synchronization on every emit, so AddSink must
// happen before any goroutine can emit (mpi.NewWorld uses it to attach
// the autotuner before the world's ranks exist). A nil tracer ignores
// the call.
func (t *Tracer) AddSink(s Sink) {
	if t == nil || s == nil {
		return
	}
	t.sinks = append(t.sinks, s)
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the tracer's registry, or nil on the disabled tracer.
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Now returns nanoseconds since the tracer started.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

func (t *Tracer) emit(e Event) {
	e.T = int64(time.Since(t.start))
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// blank returns an event with every "not applicable" field at its
// sentinel, ready for the caller to fill in.
func blank(kind Kind) Event {
	return Event{Kind: kind, Rank: -1, Src: -1, Dst: -1, OpID: -1, Chunk: -1, Dist: -1}
}

// MetaInfo is the meta record's content, and the one place its text format
// "machine=<name> bind=<name> np=<n>" is written and read.
type MetaInfo struct {
	Machine, Binding string
	Procs            int
}

func (m MetaInfo) String() string {
	return fmt.Sprintf("machine=%s bind=%s np=%d", m.Machine, m.Binding, m.Procs)
}

// ParseMeta finds the first meta record of a trace and parses it.
func ParseMeta(events []Event) (m MetaInfo, err error) {
	for _, e := range events {
		if e.Kind == KindMeta {
			if _, err = fmt.Sscanf(e.Det, "machine=%s bind=%s np=%d", &m.Machine, &m.Binding, &m.Procs); err != nil {
				err = fmt.Errorf("unparseable meta record %q: %w", e.Det, err)
			}
			return m, err
		}
	}
	return m, fmt.Errorf("trace has no meta record; cannot rebuild its topology")
}

// Meta records the trace header. Emit it once, before any operation, with
// enough detail for an analyzer to rebuild the distance matrix.
func (t *Tracer) Meta(detail string) {
	if t == nil {
		return
	}
	e := blank(KindMeta)
	e.Det = detail
	t.emit(e)
}

// OpBegin records one rank entering a collective.
func (t *Tracer) OpBegin(op string, plan int64, rank int, bytes int64) {
	if t == nil {
		return
	}
	e := blank(KindOpBegin)
	e.Op, e.Plan, e.Rank, e.Bytes = op, plan, rank, bytes
	t.emit(e)
}

// OpEnd records one rank leaving a collective after dur, updating the
// per-operation latency histogram. A non-nil err marks the op failed.
func (t *Tracer) OpEnd(op string, plan int64, rank int, dur time.Duration, err error) {
	if t == nil {
		return
	}
	e := blank(KindOpEnd)
	e.Op, e.Plan, e.Rank, e.Dur = op, plan, rank, int64(dur)
	if err != nil {
		e.Err = err.Error()
		t.metrics.Counter("ops.failed").Add(1)
	} else {
		t.metrics.opLatency(op).Observe(dur.Seconds())
	}
	t.emit(e)
}

// Copy records one executed edge copy and feeds the per-distance-class
// byte and copy counters. dist is the process-distance class of the edge
// (-1 unknown); chunk the pipeline chunk or ring step index.
func (t *Tracer) Copy(op string, plan int64, rank, src, dst, opID, chunk int, bytes int64, dist int, mode string, dur time.Duration) {
	if t == nil {
		return
	}
	e := blank(KindCopy)
	e.Op, e.Plan, e.Rank, e.Src, e.Dst = op, plan, rank, src, dst
	e.OpID, e.Chunk, e.Bytes, e.Dist, e.Mode, e.Dur = opID, chunk, bytes, dist, mode, int64(dur)
	t.metrics.DistClass("bytes", dist).Add(bytes)
	t.metrics.DistClass("copies", dist).Add(1)
	t.emit(e)
}

// PlanBuild records a compiled plan entering service: ops and buffers
// counted, regions declared.
func (t *Tracer) PlanBuild(op string, plan int64, ops, buffers int, bytes int64) {
	if t == nil {
		return
	}
	e := blank(KindPlanBuild)
	e.Op, e.Plan, e.OpID, e.Chunk, e.Bytes = op, plan, ops, buffers, bytes
	t.metrics.Counter("plans").Add(1)
	t.emit(e)
}

// PlanReap records the reaper releasing a plan's cookies.
func (t *Tracer) PlanReap(plan int64, cookies int) {
	if t == nil {
		return
	}
	e := blank(KindPlanReap)
	e.Plan, e.Chunk = plan, cookies
	t.metrics.Counter("plans.reaped").Add(1)
	t.emit(e)
}

// PlanCache records one adaptive plan-cache lookup: which decision the
// selector made for the collective at this size, and whether the compiled
// schedule came from the cache. plan ties the lookup to the plan the
// decision compiled into, so a later op_end with the same plan id carries
// the measured cost of exactly this decision — the correlation the online
// autotuner's measured-decision store is built on. Hit/miss/eviction
// *counters* live with the cache itself (plancache.New wires them into
// this tracer's registry), so this event only adds the per-lookup trace
// record.
func (t *Tracer) PlanCache(op string, plan int64, bytes int64, decision string, hit bool) {
	if t == nil {
		return
	}
	e := blank(KindPlanCache)
	e.Op, e.Plan, e.Bytes, e.Det = op, plan, bytes, decision
	if hit {
		e.Mode = "hit"
	} else {
		e.Mode = "miss"
	}
	t.emit(e)
}

// Declare records a KNEM region declaration by its owner rank.
func (t *Tracer) Declare(owner int, cookie uint64, bytes int64) {
	if t == nil {
		return
	}
	e := blank(KindDeclare)
	e.Rank, e.Plan, e.Bytes = owner, int64(cookie), bytes
	t.metrics.Counter("knem.declares").Add(1)
	t.emit(e)
}

// Destroy records a KNEM cookie destruction.
func (t *Tracer) Destroy(owner int, cookie uint64) {
	if t == nil {
		return
	}
	e := blank(KindDestroy)
	e.Rank, e.Plan = owner, int64(cookie)
	t.metrics.Counter("knem.destroys").Add(1)
	t.emit(e)
}

// Retry records one retry of a transiently-failed copy.
func (t *Tracer) Retry(op string, rank, attempt int, err error) {
	if t == nil {
		return
	}
	e := blank(KindRetry)
	e.Op, e.Rank, e.Chunk = op, rank, attempt
	if err != nil {
		e.Err = err.Error()
	}
	t.metrics.Counter("retries").Add(1)
	t.emit(e)
}

// Integrity records one per-hop checksum mismatch: rank's pull of chunk
// from src failed verification on the given attempt (0 = first pull).
// It feeds the integrity.mismatches counter; re-pulls are counted
// separately by IntegrityRepull.
func (t *Tracer) Integrity(op string, plan int64, rank, src, chunk, attempt int, want, got uint32) {
	if t == nil {
		return
	}
	e := blank(KindIntegrity)
	e.Op, e.Plan, e.Rank, e.Src, e.Chunk = op, plan, rank, src, chunk
	e.Det = fmt.Sprintf("attempt=%d want=%08x got=%08x", attempt, want, got)
	t.metrics.Counter("integrity.mismatches").Add(1)
	t.emit(e)
}

// IntegrityRepull counts one checksum-mismatch re-pull (no event: the
// mismatch that caused it is already in the trace).
func (t *Tracer) IntegrityRepull() {
	if t == nil {
		return
	}
	t.metrics.Counter("integrity.repulls").Add(1)
}

// IntegrityFailure counts a transfer abandoned after the full re-pull
// budget — the peer is being declared corrupting.
func (t *Tracer) IntegrityFailure() {
	if t == nil {
		return
	}
	t.metrics.Counter("integrity.failures").Add(1)
}

// Agree records one completed fault-tolerant agreement: rank decided on
// the failure set det after rounds merge rounds.
func (t *Tracer) Agree(rank, rounds int, det string) {
	if t == nil {
		return
	}
	e := blank(KindAgree)
	e.Rank, e.Chunk, e.Det = rank, rounds, det
	t.metrics.Counter("agree.calls").Add(1)
	t.metrics.Counter("agree.rounds").Add(int64(rounds))
	t.emit(e)
}

// Recovery records one recovery decision: after a failed collective, the
// escalation ladder either retried in place (mode "retry"), compiled a
// delta repair plan over the missing chunks (mode "repair"), or fell back
// to a full restart (mode "restart"). missing counts the missing (rank,
// chunk) pairs the merged ledgers reported, moved the payload bytes the
// chosen plan copies, full what a fresh run would copy, and saved their
// difference (zero unless a repair was chosen). The decision is made once
// per recovery (by the rendezvous builder or, for in-place retries, by
// comm rank 0), so events count decisions, not members.
func (t *Tracer) Recovery(op, mode string, missing int, moved, full, saved int64) {
	if t == nil {
		return
	}
	e := blank(KindRecovery)
	e.Op, e.Mode, e.Chunk, e.Bytes = op, mode, missing, moved
	e.Det = fmt.Sprintf("full=%d saved=%d", full, saved)
	switch mode {
	case "repair":
		t.metrics.Counter("recovery.repairs").Add(1)
		t.metrics.Counter("recovery.chunks_repulled").Add(int64(missing))
		t.metrics.Counter("recovery.bytes_saved").Add(saved)
	case "restart":
		t.metrics.Counter("recovery.restarts").Add(1)
	case "retry":
		t.metrics.Counter("recovery.retries").Add(1)
	}
	t.metrics.Counter("recovery.bytes_moved").Add(moved)
	t.emit(e)
}

// Failure records the failure detector marking a world rank dead.
func (t *Tracer) Failure(rank int) {
	if t == nil {
		return
	}
	e := blank(KindFailure)
	e.Rank = rank
	t.metrics.Counter("failures").Add(1)
	t.emit(e)
}

// Watchdog records a watchdog deadline firing on a blocked rank; detail
// carries the blocked-operation description.
func (t *Tracer) Watchdog(rank int, detail string) {
	if t == nil {
		return
	}
	e := blank(KindWatchdog)
	e.Rank, e.Det = rank, detail
	t.metrics.Counter("watchdog.fires").Add(1)
	t.emit(e)
}

// Partition records one quorum decision establishing partition epoch:
// detail carries the verdict (components, winner, quorum math). Feeds
// the partition.decisions counter and the partition.epoch gauge — the
// gauge tracks the highest epoch decided, so counters and events can be
// cross-checked for epoch monotonicity.
func (t *Tracer) Partition(epoch int64, detail string) {
	if t == nil {
		return
	}
	e := blank(KindPartition)
	e.Chunk, e.Det = int(epoch), detail
	t.metrics.Counter("partition.decisions").Add(1)
	t.metrics.Gauge("partition.epoch").Set(float64(epoch))
	t.emit(e)
}

// Fence records stale-epoch traffic from a fenced rank refused at the
// transport boundary; detail names the refused operation.
func (t *Tracer) Fence(rank int, epoch int64, detail string) {
	if t == nil {
		return
	}
	e := blank(KindFence)
	e.Rank, e.Chunk, e.Det = rank, int(epoch), detail
	t.metrics.Counter("partition.fenced").Add(1)
	t.emit(e)
}

// PartitionProbe counts one reachability probe transfer (no event:
// probes are chatty and carry no schedule information).
func (t *Tracer) PartitionProbe() {
	if t == nil {
		return
	}
	t.metrics.Counter("partition.probes").Add(1)
}
