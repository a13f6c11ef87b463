package mpi

import (
	"errors"
	"fmt"
	"time"

	"distcoll/internal/fault"
	"distcoll/internal/partition"
)

// RankFailureError reports that a collective (or point-to-point operation)
// could not complete because members of the communicator have failed. It
// follows ULFM semantics: the communicator is broken — every subsequent
// collective on it fails fast with the same error — and the survivors must
// call Shrink to obtain a working communicator over the survivors.
type RankFailureError struct {
	// Failed holds the world ranks known dead at detection time, sorted.
	Failed []int
}

func (e *RankFailureError) Error() string {
	return fmt.Sprintf("mpi: operation failed: dead ranks %v (shrink the communicator to continue)", e.Failed)
}

// IsRankFailure reports whether err is (or wraps) a rank-failure error.
func IsRankFailure(err error) bool {
	var rf *RankFailureError
	return errors.As(err, &rf)
}

// CorruptionError reports that data integrity could not be established
// for a collective: either a per-hop chunk checksum kept failing after
// the full re-pull budget (the peer is then marked corrupting and
// treated like a failed rank — survivors agree and shrink around it), or
// an end-to-end digest check found the delivered payload differs from
// what the origin sent.
type CorruptionError struct {
	Src      int  // world rank the corrupted data came from (-1 unknown)
	Dst      int  // world rank that detected the corruption
	Chunk    int  // chunk / ring step index (-1 for end-to-end digests)
	Attempts int  // pulls performed before giving up (0 for digests)
	EndToEnd bool // true when an e2e digest, not a per-hop checksum, failed
}

func (e *CorruptionError) Error() string {
	if e.EndToEnd {
		return fmt.Sprintf("mpi: end-to-end digest mismatch at rank %d (origin rank %d): delivered payload corrupted", e.Dst, e.Src)
	}
	return fmt.Sprintf("mpi: rank %d delivers corrupted data to rank %d (chunk %d failed checksum after %d pulls); peer marked failed",
		e.Src, e.Dst, e.Chunk, e.Attempts)
}

// IsCorruption reports whether err is (or wraps) a data-corruption error.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// HangError is the watchdog's verdict: a blocking operation exceeded the
// world's op deadline with no failure detected. Instead of deadlocking the
// job it carries a diagnostic dump of every blocked rank (and, for
// collectives, the unfinished schedule operations).
type HangError struct {
	Rank     int           // world rank whose operation timed out
	Op       string        // description of the blocked operation
	Deadline time.Duration // the deadline that expired
	Dump     string        // blocked-rank / pending-op diagnostic
	// Suspicion is set when every peer the blocked operation waits on is
	// unreachable per the partition detector: the hang is then not a
	// generic deadlock but a suspected partition, and the text names the
	// suspected unreachable component.
	Suspicion string
}

func (e *HangError) Error() string {
	msg := fmt.Sprintf("mpi: rank %d hung in %s (deadline %v); %s", e.Rank, e.Op, e.Deadline, e.Dump)
	if e.Suspicion != "" {
		msg += "; " + e.Suspicion
	}
	return msg
}

// IsHang reports whether err is (or wraps) a watchdog hang.
func IsHang(err error) bool {
	var he *HangError
	return errors.As(err, &he)
}

// SendTimeoutError reports a send that blocked past its timeout on a full
// mailbox, naming the blocked src→dst pair — the diagnosable replacement
// for a silent producer-consumer deadlock.
type SendTimeoutError struct {
	Src, Dst int           // world ranks of the blocked pair
	Tag      int           // message tag
	Capacity int           // mailbox depth that filled up
	Timeout  time.Duration // how long the send waited
}

func (e *SendTimeoutError) Error() string {
	return fmt.Sprintf("mpi: send %d→%d (tag %d) blocked %v on a full mailbox (capacity %d)",
		e.Src, e.Dst, e.Tag, e.Timeout, e.Capacity)
}

// Recovery's three refusals, matched with errors.Is; the error wrapping one
// names the rank or communicator.
var (
	ErrRootLost        = errors.New("cannot recover")    // a rooted collective's root, its payload or destination, died
	ErrSelfFailed      = errors.New("cannot shrink")     // Shrink's caller is itself marked failed; recovery is the survivors' job
	ErrNothingToShrink = errors.New("nothing to shrink") // the agreed failed set is empty
)

// Outcome is what the error of a collective means for the rank that got it.
type Outcome int

const (
	OutcomeOK          Outcome = iota // no error
	OutcomeCrashed                    // the caller's own rank crashed
	OutcomePartitioned                // a quorum decision left the caller out, or fenced its stale traffic
	// OutcomeExcluded: the fault model's own "not on this rank" — members died
	// or kept corrupting data (RankFailureError, CorruptionError: from a plain
	// collective or an exhausted ladder), the root was lost, Shrink refused.
	OutcomeExcluded
	OutcomeHang    // a watchdog or context deadline expired
	OutcomeFailure // anything else; a severed copy too — evidence for the detector, no verdict on the caller
)

// Classify maps an error returned by a collective, Shrink or the resilient
// ladder to its Outcome. It is the one exclusion rule: the ladder's
// escalation, the chaos harness's expected exclusions and the serve layer's
// breaker accounting are all written on it.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeOK
	case fault.IsCrashed(err):
		return OutcomeCrashed
	case partition.IsPartition(err) || partition.IsFenced(err):
		return OutcomePartitioned
	case IsRankFailure(err) || IsCorruption(err),
		errors.Is(err, ErrRootLost), errors.Is(err, ErrSelfFailed), errors.Is(err, ErrNothingToShrink):
		return OutcomeExcluded
	case IsHang(err):
		return OutcomeHang
	}
	return OutcomeFailure
}
