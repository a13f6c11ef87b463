// Package fault is the fault-injection layer of the mini-MPI runtime: a
// deterministic, seed-driven injector that wraps the KNEM transport and
// the mailbox point-to-point path with the failures a production MPI stack
// must survive — transient copy errors, corrupted or delayed transfers,
// dropped messages, slow ranks, and whole-rank crashes.
//
// Determinism is the design center: every injection decision is a pure
// function of (seed, rank, that rank's operation index), never of
// wall-clock time or goroutine interleaving, so a failing run replays
// exactly under `go test -race` and in CI. Crashes are sticky — once a
// rank crashes, every later operation it attempts fails with the same
// CrashError, emulating a dead process.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Plan configures which faults an Injector introduces. The zero Plan
// injects nothing. Probabilities are per-operation in [0,1].
type Plan struct {
	// Seed drives every probabilistic decision; two injectors with equal
	// plans make identical decisions.
	Seed int64

	// CopyFailProb is the probability a KNEM copy fails transiently (the
	// retryable EAGAIN class). MaxTransients caps the total number of
	// injected transient failures (0 = unlimited), so retry loops can be
	// proven to converge.
	CopyFailProb  float64
	MaxTransients int64

	// CorruptProb is the probability a completed copy is corrupted: one
	// byte of the transferred data is flipped.
	CorruptProb float64

	// DelayProb stalls a copy for Delay before it executes.
	DelayProb float64
	Delay     time.Duration

	// DropProb is the probability a mailbox message is silently lost in
	// transit; MsgDelayProb/MsgDelay stall delivery instead.
	DropProb     float64
	MsgDelayProb float64
	MsgDelay     time.Duration

	// CrashAtOp maps a rank to the 0-based index of the collective
	// operation at which it dies: the rank completes CrashAtOp[r]
	// operations, then fails permanently.
	CrashAtOp map[int]int

	// SlowRanks stalls every operation of the given ranks by the given
	// duration (a straggler, not a failure).
	SlowRanks map[int]time.Duration

	// SlowLinks stalls every copy whose data flows across the directed
	// link {src, dst} by the given duration — a gray-failed link: bytes
	// still move, so the watchdog stays quiet, but the link's effective
	// distance has changed. The key is strictly directional in the
	// direction the data moves: src is the rank the bytes leave (the
	// region owner of a pull, the caller of a push), dst the rank they
	// arrive at. Unlike SlowRanks (which stalls before an operation
	// starts), the stall sits inside the timed copy window, so it is
	// visible to trace copy durations — and therefore to the
	// gray-failure scorer. Mutable at runtime via SetSlowLink for flap
	// scenarios.
	SlowLinks map[[2]int]time.Duration

	// Severed lists directed links {src, dst} that are unreachable from
	// the start: no data flows src→dst — copies fail with SeverError and
	// mailbox messages are silently lost, exactly as a network partition
	// behaves. Mutable at runtime via Sever/SeverGroups/Heal.
	Severed [][2]int
}

// TransientError is a retryable injected copy failure.
type TransientError struct {
	Rank int   // rank whose copy failed
	Op   int64 // that rank's device-operation index
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient copy failure injected (rank %d, copy %d)", e.Rank, e.Op)
}

// IsTransient reports whether err is (or wraps) an injected transient
// failure, i.e. whether retrying can succeed.
func IsTransient(err error) bool {
	if err == nil {
		// Before the target is declared: errors.As makes it escape, and the
		// nil case is every successful collective call of every rank.
		return false
	}
	var te *TransientError
	return errors.As(err, &te)
}

// CrashError marks a rank as dead: the rank reached its crash point and
// every operation it attempts from then on fails with this error.
type CrashError struct {
	Rank int
	Op   int // the operation index at which the rank died
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: rank %d crashed at operation %d (injected)", e.Rank, e.Op)
}

// IsCrashed reports whether err is (or wraps) a rank crash.
func IsCrashed(err error) bool {
	if err == nil {
		return false
	}
	var ce *CrashError
	return errors.As(err, &ce)
}

// SeverError marks a copy that crossed a severed link: the directed path
// Src→Dst is unreachable. It is neither transient (retrying the same
// link cannot succeed) nor a crash (both endpoints are alive) — it is
// the transport-level signature of a network partition, and the
// partition detector treats it as direct evidence.
type SeverError struct {
	Src int // rank the data was leaving
	Dst int // rank the data was bound for
}

func (e *SeverError) Error() string {
	return fmt.Sprintf("fault: link %d->%d severed (injected partition)", e.Src, e.Dst)
}

// IsSevered reports whether err is (or wraps) a severed-link failure.
func IsSevered(err error) bool {
	if err == nil {
		return false
	}
	var se *SeverError
	return errors.As(err, &se)
}

// Stats counts the faults an injector has introduced.
type Stats struct {
	Transients  int64 // transient copy failures
	Corruptions int64 // corrupted copies
	Delays      int64 // delayed copies or messages
	Drops       int64 // dropped mailbox messages
	Crashes     int64 // rank crashes
	SlowCopies  int64 // copies stalled by a slow link
	SeveredOps  int64 // copies refused by a severed link
	SeveredMsgs int64 // mailbox messages lost to a severed link
}

// Injector makes fault decisions for one world. It is safe for concurrent
// use by all rank goroutines.
type Injector struct {
	plan Plan

	mu      sync.Mutex
	copySeq map[int]int64    // per-rank device-operation index
	opSeq   map[int]int      // per-rank collective-operation index
	sendSeq map[[2]int]int64 // per-(src,dst) message index
	crashed map[int]bool     // sticky crash state
	severed map[[2]int]bool  // directed unreachable links {src,dst}
	stats   Stats
	abort   <-chan struct{} // closes to cut injected sleeps short

	// slowLinks and anySevered are the lock-free "anything to check?"
	// hints consulted on the copy hot path before taking the injector
	// lock.
	slowLinks  atomic.Bool
	anySevered atomic.Bool
}

// NewInjector builds an injector for the plan. SlowLinks is deep-copied
// so runtime SetSlowLink mutations never race the caller's map.
func NewInjector(p Plan) *Injector {
	if p.SlowLinks != nil {
		links := make(map[[2]int]time.Duration, len(p.SlowLinks))
		for k, v := range p.SlowLinks {
			links[k] = v
		}
		p.SlowLinks = links
	}
	in := &Injector{
		plan:    p,
		copySeq: make(map[int]int64),
		opSeq:   make(map[int]int),
		sendSeq: make(map[[2]int]int64),
		crashed: make(map[int]bool),
		severed: make(map[[2]int]bool),
	}
	for _, link := range p.Severed {
		in.severed[link] = true
	}
	in.slowLinks.Store(len(p.SlowLinks) > 0)
	in.anySevered.Store(len(in.severed) > 0)
	return in
}

// SetAbort installs a channel whose close cuts every injected sleep
// (stragglers, delays, slow links) short — the runtime wires its
// shutdown signal here so a world being torn down never waits out an
// injected stall. Call before the world starts running.
func (in *Injector) SetAbort(ch <-chan struct{}) { in.abort = ch }

// SetSlowLink stalls (or, with d ≤ 0, stops stalling) copies crossing
// the directed link {src, dst}. Safe to call while the world runs —
// this is the flap lever for gray-failure scenarios.
func (in *Injector) SetSlowLink(src, dst int, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.SlowLinks == nil {
		in.plan.SlowLinks = make(map[[2]int]time.Duration)
	}
	if d <= 0 {
		delete(in.plan.SlowLinks, [2]int{src, dst})
	} else {
		in.plan.SlowLinks[[2]int{src, dst}] = d
	}
	in.slowLinks.Store(len(in.plan.SlowLinks) > 0)
}

// Sever cuts the directed link src→dst: from now on no data flows in
// that direction — copies fail with SeverError, mailbox messages are
// silently lost. Reverse traffic dst→src is untouched, so one-way
// (asymmetric) partitions are expressible. Safe to call while the world
// runs — this is the partition lever for chaos scenarios.
func (in *Injector) Sever(src, dst int) {
	in.mu.Lock()
	in.severed[[2]int{src, dst}] = true
	in.anySevered.Store(true)
	in.mu.Unlock()
}

// Heal restores the directed link src→dst.
func (in *Injector) Heal(src, dst int) {
	in.mu.Lock()
	delete(in.severed, [2]int{src, dst})
	in.anySevered.Store(len(in.severed) > 0)
	in.mu.Unlock()
}

// SeverGroups partitions the world into the given islands: every
// directed link between ranks in different islands is severed, both
// ways, while intra-island links stay up. Ranks absent from every
// island are untouched.
func (in *Injector) SeverGroups(islands ...[]int) {
	in.mu.Lock()
	for i, a := range islands {
		for j, b := range islands {
			if i == j {
				continue
			}
			for _, src := range a {
				for _, dst := range b {
					in.severed[[2]int{src, dst}] = true
				}
			}
		}
	}
	in.anySevered.Store(len(in.severed) > 0)
	in.mu.Unlock()
}

// HealAll restores every severed link.
func (in *Injector) HealAll() {
	in.mu.Lock()
	in.severed = make(map[[2]int]bool)
	in.anySevered.Store(false)
	in.mu.Unlock()
}

// Reachable reports whether data can currently flow src→dst.
func (in *Injector) Reachable(src, dst int) bool {
	if !in.anySevered.Load() {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.severed[[2]int{src, dst}]
}

// severedCopy makes the sever decision for a copy moving data src→dst,
// counting refusals.
func (in *Injector) severedCopy(src, dst int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.severed[[2]int{src, dst}] {
		in.stats.SeveredOps++
		return &SeverError{Src: src, Dst: dst}
	}
	return nil
}

// slowLink returns the stall for the directed link {src, dst}, counting
// it when it fires.
func (in *Injector) slowLink(src, dst int) time.Duration {
	in.mu.Lock()
	defer in.mu.Unlock()
	d := in.plan.SlowLinks[[2]int{src, dst}]
	if d > 0 {
		in.stats.SlowCopies++
	}
	return d
}

// sleep blocks for d or until the abort channel closes, whichever comes
// first. Injected stalls must never outlive the world they stall.
func (in *Injector) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if in.abort == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-in.abort:
	}
}

// Plan returns the plan the injector was built from.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Crashed reports whether rank has passed its crash point.
func (in *Injector) Crashed(rank int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[rank]
}

// BeforeOp is called by the runtime before a rank executes one schedule
// operation. It applies straggler delay, and kills the rank when it
// reaches its planned crash point (or has already crashed).
func (in *Injector) BeforeOp(rank int) error {
	in.mu.Lock()
	if in.crashed[rank] {
		op := in.opSeq[rank]
		in.mu.Unlock()
		return &CrashError{Rank: rank, Op: op}
	}
	op := in.opSeq[rank]
	in.opSeq[rank] = op + 1
	crashAt, planned := in.plan.CrashAtOp[rank]
	if planned && op >= crashAt {
		in.crashed[rank] = true
		in.stats.Crashes++
		in.mu.Unlock()
		return &CrashError{Rank: rank, Op: op}
	}
	slow := in.plan.SlowRanks[rank]
	in.mu.Unlock()
	in.sleep(slow)
	return nil
}

// onCopy makes the per-copy decision for rank: crash (sticky), delay,
// then possibly a transient failure. It returns the copy's sequence
// number for corruption keying.
func (in *Injector) onCopy(rank int) (int64, error) {
	in.mu.Lock()
	if in.crashed[rank] {
		op := in.opSeq[rank]
		in.mu.Unlock()
		return 0, &CrashError{Rank: rank, Op: op}
	}
	seq := in.copySeq[rank]
	in.copySeq[rank] = seq + 1
	delay := time.Duration(0)
	if in.plan.Delay > 0 && in.decide(rank, seq, saltDelay, in.plan.DelayProb) {
		delay = in.plan.Delay
		in.stats.Delays++
	}
	var err error
	if in.decide(rank, seq, saltFail, in.plan.CopyFailProb) &&
		(in.plan.MaxTransients == 0 || in.stats.Transients < in.plan.MaxTransients) {
		in.stats.Transients++
		err = &TransientError{Rank: rank, Op: seq}
	}
	in.mu.Unlock()
	in.sleep(delay)
	return seq, err
}

// corruptDraw makes the corruption decision for (rank, seq) and bumps the
// corruption counter when it fires. It is the single stats-mutation path
// for corruption: every caller goes through here, under the injector
// lock, so `-race` soak runs stay clean.
func (in *Injector) corruptDraw(rank int, seq int64) bool {
	in.mu.Lock()
	hit := in.decide(rank, seq, saltCorrupt, in.plan.CorruptProb)
	if hit {
		in.stats.Corruptions++
	}
	in.mu.Unlock()
	return hit
}

// corruptIndex picks the deterministic byte to flip for (rank, seq).
func (in *Injector) corruptIndex(rank int, seq int64, n int) int {
	return int(mix(uint64(in.plan.Seed), uint64(rank), uint64(seq), saltCorruptIdx) % uint64(n))
}

// corrupt flips one deterministic byte of data in place when the
// corruption draw for (rank, seq) fires — the pull path, where data is
// the private destination buffer the device just filled, so flipping in
// place taints only this delivery and a re-pull starts from the clean
// source region.
func (in *Injector) corrupt(rank int, seq int64, data []byte) {
	if len(data) == 0 {
		return
	}
	if in.corruptDraw(rank, seq) {
		data[in.corruptIndex(rank, seq, len(data))] ^= 0xFF
	}
}

// corruptedCopy returns data with one deterministic byte flipped when the
// draw for (rank, seq) fires, and data itself untouched otherwise. The
// input slice is never mutated: the push path hands the result to the
// device, so the caller's source buffer stays clean and any retry (or
// checksum-mismatch re-push) starts from uncorrupted source data.
func (in *Injector) corruptedCopy(rank int, seq int64, data []byte) []byte {
	if len(data) == 0 || !in.corruptDraw(rank, seq) {
		return data
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	cp[in.corruptIndex(rank, seq, len(cp))] ^= 0xFF
	return cp
}

// OnSend is consulted by the mailbox transport for each message from src
// to dst. drop=true means the message is lost in transit; a non-zero
// delay stalls delivery. A crashed sender cannot send.
func (in *Injector) OnSend(src, dst int) (drop bool, delay time.Duration, err error) {
	in.mu.Lock()
	if in.crashed[src] {
		op := in.opSeq[src]
		in.mu.Unlock()
		return false, 0, &CrashError{Rank: src, Op: op}
	}
	key := [2]int{src, dst}
	if in.severed[key] {
		// A partition loses messages silently: the sender cannot tell,
		// only the receiver's watchdog (and then the partition
		// detector) notices the direction is dead.
		in.stats.SeveredMsgs++
		in.mu.Unlock()
		return true, 0, nil
	}
	seq := in.sendSeq[key]
	in.sendSeq[key] = seq + 1
	// Key message draws by a combined src/dst identity so every directed
	// pair has an independent deterministic stream.
	pair := src*1_000_003 + dst
	if in.decide(pair, seq, saltDrop, in.plan.DropProb) {
		in.stats.Drops++
		in.mu.Unlock()
		return true, 0, nil
	}
	if in.plan.MsgDelay > 0 && in.decide(pair, seq, saltMsgDelay, in.plan.MsgDelayProb) {
		in.stats.Delays++
		delay = in.plan.MsgDelay
	}
	in.mu.Unlock()
	return false, delay, nil
}

// decide makes one deterministic probabilistic draw. Callers hold in.mu.
func (in *Injector) decide(rank int, seq int64, salt uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := mix(uint64(in.plan.Seed), uint64(rank), uint64(seq), salt)
	return float64(h>>11)/float64(1<<53) < prob
}

const (
	saltFail       = 0x9E3779B97F4A7C15
	saltCorrupt    = 0xC2B2AE3D27D4EB4F
	saltCorruptIdx = 0x165667B19E3779F9
	saltDelay      = 0x27D4EB2F165667C5
	saltDrop       = 0x85EBCA77C2B2AE63
	saltMsgDelay   = 0xFF51AFD7ED558CCD
)

// mix is a splitmix64-style avalanche over the decision coordinates.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}
