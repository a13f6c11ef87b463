package mpi

import (
	"fmt"
	"sort"

	"distcoll/internal/fault"
	"distcoll/internal/knem"
	"distcoll/internal/partition"
	"distcoll/internal/plancache"
)

// This file wires partition tolerance (DESIGN.md §16) into the world: a
// partition.Detector accumulates reachability evidence from the data
// path, watchdog suspicions, and probe pulls; when the view splits, one
// centralized quorum decision fences the minority and advances the
// monotone partition epoch. The rules, in order of enforcement:
//
//   - detection: severed copies report dead directed edges; watchdog
//     fires on unreachable peers register suspicions; a probe cadence
//     catches partitions that pure-synchronization workloads (moving no
//     payload bytes) would never observe.
//   - decision: resolvePartition computes connected components of the
//     mutual-reachability graph among the live ranks, applies the quorum
//     rule (strict majority of pre-partition membership, lowest-rank
//     tiebreak at exactly half), advances the epoch, fences every rank
//     outside the winner and marks it failed — the existing Agree/Shrink
//     machinery then carries the majority to its successor communicator.
//   - fencing: the fence sits outermost on the transport chain and on
//     Send, so a fenced rank's traffic is refused at the boundary even
//     after the injected network heals; minority collectives fail fast
//     with PartitionError at every entry point.

// WithPartitionDetector arms partition tolerance: a partition.Detector
// maintains this world's reachability view, collectives and agreements
// consult it at entry, and a quorum decision on a split fences the
// minority under a new partition epoch (folded into every topology
// hash, so stale compiled plans can never be served across an epoch).
// The zero Config selects the default probe cadence.
func WithPartitionDetector(cfg partition.Config) Option {
	return func(w *World) { w.partCfg = &cfg }
}

// PartitionDetector returns the world's detector, or nil when partition
// tolerance is not configured.
func (w *World) PartitionDetector() *partition.Detector { return w.det }

// PartitionEpoch returns the current partition epoch (0 = never
// partitioned, or detection disabled).
func (w *World) PartitionEpoch() int64 {
	if w.det == nil {
		return 0
	}
	return w.det.Epoch()
}

// PartitionVerdict returns the latest quorum decision, or nil.
func (w *World) PartitionVerdict() *partition.Verdict {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	return w.lastVerdict
}

// FencedRanks returns the sorted world ranks fenced by quorum decisions.
func (w *World) FencedRanks() []int {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	out := make([]int, 0, len(w.fenced))
	for r := range w.fenced {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// initPartition finishes partition wiring at construction time: the
// probe regions (one byte per rank, declared directly on the device so
// probes never pollute the trace's cookie lifecycle) and the detector.
func (w *World) initPartition() {
	w.det = partition.NewDetector(w.n, *w.partCfg)
	w.fenced = make(map[int]int64)
	w.probeCookies = make([]knem.Cookie, w.n)
	for r := 0; r < w.n; r++ {
		w.probeCookies[r] = w.dev.Declare(r, []byte{0x5a})
	}
}

// worldProber issues one probe transfer moving data src→dst: rank dst
// pulls one byte from src's probe region over the injectable (but
// unfenced and untraced) transport. Transient injected noise is retried
// and, if it persists, treated as reachable — a transient error means
// the link exists; only a severed refusal (or a hard transport error)
// is evidence of a dead direction.
type worldProber struct{ w *World }

func (p worldProber) Probe(src, dst int) error {
	w := p.w
	var b [1]byte
	var err error
	for attempt := 0; attempt < copyRetryAttempts; attempt++ {
		w.tracer.PartitionProbe()
		err = w.probeMover.CopyFrom(dst, w.probeCookies[src], 0, b[:])
		if err == nil || !fault.IsTransient(err) {
			break
		}
	}
	if err == nil || fault.IsTransient(err) || fault.IsCrashed(err) {
		// Crash errors key the calling rank, not the link: a dead caller
		// is the failure detector's business, not the partition view's.
		return nil
	}
	return err
}

// fenceMover enforces quorum fencing at the transport boundary: every
// copy by a rank fenced at an older epoch is refused with a FenceError
// before it can touch (or observe) the majority's buffers. It sits
// outermost on the mover chain, so fenced traffic never reaches the
// injector or the trace layer.
type fenceMover struct {
	w     *World
	inner knem.Mover
}

var _ knem.Mover = (*fenceMover)(nil)

func (f *fenceMover) Declare(owner int, buf []byte) knem.Cookie { return f.inner.Declare(owner, buf) }
func (f *fenceMover) Destroy(owner int, c knem.Cookie) error    { return f.inner.Destroy(owner, c) }

func (f *fenceMover) CopyFrom(caller int, c knem.Cookie, offset int64, dst []byte) error {
	if err := f.w.fenceCheck(caller, "copy_from"); err != nil {
		return err
	}
	return f.inner.CopyFrom(caller, c, offset, dst)
}

func (f *fenceMover) CopyTo(caller int, c knem.Cookie, offset int64, src []byte) error {
	if err := f.w.fenceCheck(caller, "copy_to"); err != nil {
		return err
	}
	return f.inner.CopyTo(caller, c, offset, src)
}

// fenceCheck refuses an operation by a fenced caller, tracing the
// rejection. The lock-free hint keeps the un-partitioned hot path at
// one atomic load.
func (w *World) fenceCheck(caller int, op string) error {
	if w.det == nil || !w.fencedHint.Load() {
		return nil
	}
	w.pmu.Lock()
	epoch, fenced := w.fenced[caller]
	w.pmu.Unlock()
	if !fenced {
		return nil
	}
	w.tracer.Fence(caller, epoch, op)
	return &partition.FenceError{Rank: caller, Epoch: epoch}
}

// partitionGate is the collective/agreement entry check: it advances
// the probe cadence — one tick per rank per call, so ProbeEveryOps × n
// ticks are ProbeEveryOps collectives — sweeps when the cadence calls for
// it, and then rechecks. A nil detector gates nothing.
func (w *World) partitionGate(me int) error {
	if w.det == nil {
		return nil
	}
	cadence := int64(w.det.Config().ProbeEveryOps) * int64(w.n)
	if tick := w.partOps.Add(1); cadence > 0 && tick%cadence == 0 && !w.det.Suspicious() {
		// Scheduled sweep: pure-synchronization workloads move no
		// payload bytes, so without this a partition would go unseen.
		w.resolvePartition(true)
	}
	return w.partitionRecheck(me)
}

// partitionRecheck resolves the view when evidence calls for it and fails
// fast with the caller's PartitionError when a decision has left the
// caller outside the surviving component. The completion barrier calls it
// directly: a collective is one tick of the cadence, at its entry.
func (w *World) partitionRecheck(me int) error {
	if w.det == nil {
		return nil
	}
	if w.det.Suspicious() {
		w.resolvePartition(false)
	}
	return w.partitionCheck(me)
}

// partitionCheck returns the PartitionError for me when the latest
// quorum decision placed it outside the surviving component, else nil.
func (w *World) partitionCheck(me int) error {
	if w.det == nil {
		return nil
	}
	w.pmu.Lock()
	v := w.lastVerdict
	w.pmu.Unlock()
	if v == nil || v.InWinner(me) {
		return nil
	}
	return w.partitionError(v, me)
}

// partitionError renders the verdict as me's typed minority failure.
func (w *World) partitionError(v *partition.Verdict, me int) error {
	comp := v.ComponentOf(me)
	return &partition.PartitionError{
		Rank:      me,
		Component: comp,
		Epoch:     v.Epoch,
		Have:      len(comp),
		Need:      v.Total/2 + 1,
		Total:     v.Total,
	}
}

// resolvePartition is the single quorum-decision point. It probes the
// live ranks, computes the mutual-reachability components, and — when
// the view is split — picks the quorum winner, advances the epoch,
// fences and fails every rank outside the winner, and invalidates this
// tenant's compiled plans. Idempotent: fenced and failed ranks leave
// the live set, so a settled partition resolves to one component and
// decides nothing new; the memoized fast path skips re-probing when the
// evidence has not changed since the last resolution. force bypasses
// the memoization for the scheduled probe sweeps.
func (w *World) resolvePartition(force bool) *partition.Verdict {
	if w.det == nil {
		return nil
	}
	w.pmu.Lock()
	defer w.pmu.Unlock()
	if !force && w.lastRev == w.det.Rev() && w.resolved {
		return w.lastVerdict
	}
	failed, _ := w.failureWatch()
	var alive []int
	for r := 0; r < w.n; r++ {
		if _, fenced := w.fenced[r]; !failed[r] && !fenced {
			alive = append(alive, r)
		}
	}
	if len(alive) == 0 {
		return w.lastVerdict
	}
	w.det.ProbeAll(alive, worldProber{w})
	w.lastRev = w.det.Rev()
	w.resolved = true
	comps := w.det.Components(alive)
	if len(comps) <= 1 {
		return w.lastVerdict
	}

	winner := partition.Quorum(comps, len(alive))
	epoch := w.det.AdvanceEpoch()
	v := &partition.Verdict{Epoch: epoch, Components: comps, Winner: winner, Total: len(alive)}
	w.lastVerdict = v
	w.tracer.Partition(epoch, v.String())

	// Fence every rank outside the winner so its traffic is refused at
	// the transport boundary from this moment on — healed network or
	// not. On total quorum loss (no winner) nobody is fenced: there is
	// no surviving component to protect, and every island fails its
	// collectives fast with PartitionError instead.
	var minority []int
	if winner != nil {
		for _, comp := range comps {
			if comp[0] == winner[0] {
				continue
			}
			for _, r := range comp {
				w.fenced[r] = epoch
				minority = append(minority, r)
			}
		}
		w.fencedHint.Store(len(w.fenced) > 0)
	}

	// The epoch is folded into every topology hash, so compiled plans
	// from before the decision can never be served again; drop this
	// tenant's entries eagerly rather than letting them age out.
	w.plans.Invalidate(func(k plancache.Key) bool { return k.Tenant == w.tenant })

	// Mark the minority failed AFTER the fence is up: the failure
	// notification wakes every blocked survivor, whose Agree/Shrink
	// machinery then derives the successor communicator over exactly
	// the winning component.
	for _, r := range minority {
		w.MarkFailed(r)
	}
	return v
}

// partitionEdge feeds one data-path copy outcome into the detector:
// data moved (or was refused) on the directed edge src→dst. Successful
// copies are only reported while the view holds suspicion — that is
// when a success carries information (it heals an edge) — keeping the
// healthy hot path at one atomic load.
func (w *World) partitionEdge(src, dst int, ok bool) {
	if w.det == nil || src < 0 || dst < 0 || src == dst {
		return
	}
	if ok && !w.det.Suspicious() {
		return
	}
	w.det.ReportEdge(src, dst, ok)
}

// partitionRung is the escalation-ladder rung between delta repair and
// restart: when a collective failed with partition-shaped evidence (a
// severed copy, or a hang while the detector holds suspicion), resolve
// the view before escalating. For a majority caller the resolution has
// marked the minority failed and nil is returned — the ladder proceeds
// to Shrink and recovers on the surviving component. A minority caller
// gets its PartitionError, the ladder's terminal verdict.
func (c *Comm) partitionRung(err error) error {
	w := c.state.world
	if w.det == nil {
		return nil
	}
	if partition.IsPartition(err) || partition.IsFenced(err) {
		return err
	}
	if fault.IsSevered(err) || (IsHang(err) && w.det.Suspicious()) {
		w.resolvePartition(false)
	}
	return w.partitionCheck(c.state.group[c.rank])
}

// reachClique reports whether every pair among members is mutually
// reachable per the detector — agreement's closure condition: a member
// only counts toward closure while it can actually exchange data with
// every other would-be survivor.
func reachClique(det *partition.Detector, members []int) bool {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if !det.MutuallyReachable(members[i], members[j]) {
				return false
			}
		}
	}
	return true
}

// hangSuspicion classifies a watchdog fire: the blocked peers are
// registered as suspects, the view is resolved (probing them), and when
// every peer the operation waits on turns out unreachable, the hang is
// a partition suspicion — the suspected unreachable component is named
// in the returned suffix for the HangError. A reachable-peer hang (or a
// world without detection) returns "".
func (w *World) hangSuspicion(me int, peers []int) string {
	if w.det == nil {
		return ""
	}
	distinct := make(map[int]bool)
	for _, p := range peers {
		if p != me {
			w.det.Suspect(p)
			distinct[p] = true
		}
	}
	if len(distinct) == 0 {
		return ""
	}
	w.resolvePartition(false)
	unreachable := w.det.UnreachablePeers(me, sortedRanks(distinct))
	if len(unreachable) != len(distinct) {
		return ""
	}
	return fmt.Sprintf("partition suspected: peers %v unreachable from rank %d", unreachable, me)
}
