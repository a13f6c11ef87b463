// Package recovery holds the progress ledger behind the runtime's
// incremental recovery (DESIGN.md §11). The paper's collectives pipeline
// large messages chunk-by-chunk along distance-aware trees and rings; when
// a member dies mid-flight, most survivors already hold most of the
// payload. A ledger records exactly which byte spans of its output buffer
// (a broadcast payload, an allgather's receive buffer) a rank verifiably
// holds, so the resilient ladder can exchange them after Agree+Shrink and
// compile a delta repair plan over only the missing (rank, chunk) pairs
// instead of re-paying the full message.
//
// The package is a leaf (standard library only): internal/core imports it
// to type repair-plan inputs, internal/mpi to maintain the live ledgers.
//
// Progress is tracked as byte intervals, not chunk or block indices: the
// pipeline chunk size is a function of the tree depth, so it changes when
// the communicator shrinks, and only offsets into the member's own buffer
// stay comparable across recovery rounds.
package recovery

import (
	"sort"
	"sync"
)

// Interval is one held byte span [Off, Off+Len).
type Interval struct {
	Off, Len int64
}

// End returns the exclusive end offset.
func (iv Interval) End() int64 { return iv.Off + iv.Len }

// IntervalSet is a set of byte offsets kept as sorted, disjoint,
// coalesced intervals. The zero value is the empty set. It is not safe
// for concurrent use; ChunkLedger adds the locking.
type IntervalSet struct {
	iv []Interval
}

// NewSet builds a set from arbitrary (possibly overlapping, unsorted)
// spans.
func NewSet(spans []Interval) *IntervalSet {
	s := &IntervalSet{}
	for _, sp := range spans {
		s.Add(sp.Off, sp.Len)
	}
	return s
}

// Add inserts [off, off+n), merging with any adjacent or overlapping
// intervals. Non-positive lengths are ignored.
func (s *IntervalSet) Add(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	// First interval that could touch [off, end): the one with the
	// smallest End ≥ off.
	i := sort.Search(len(s.iv), func(k int) bool { return s.iv[k].End() >= off })
	j := i
	for j < len(s.iv) && s.iv[j].Off <= end {
		if s.iv[j].Off < off {
			off = s.iv[j].Off
		}
		if s.iv[j].End() > end {
			end = s.iv[j].End()
		}
		j++
	}
	// Replace s.iv[i:j] by the merged interval in place: every mark of a
	// pipelined collective lands here, so nothing is allocated unless the
	// set has to grow past its capacity.
	if i == j {
		s.iv = append(s.iv, Interval{})
		copy(s.iv[i+1:], s.iv[i:])
	} else {
		s.iv = append(s.iv[:i+1], s.iv[j:]...)
	}
	s.iv[i] = Interval{Off: off, Len: end - off}
}

// Contains reports whether the whole span [off, off+n) is held. The empty
// span is always held.
func (s *IntervalSet) Contains(off, n int64) bool {
	if n <= 0 {
		return true
	}
	i := sort.Search(len(s.iv), func(k int) bool { return s.iv[k].End() > off })
	return i < len(s.iv) && s.iv[i].Off <= off && s.iv[i].End() >= off+n
}

// Spans returns a copy of the held intervals in ascending order.
func (s *IntervalSet) Spans() []Interval {
	return append([]Interval(nil), s.iv...)
}

// Total returns the number of held bytes.
func (s *IntervalSet) Total() int64 {
	var t int64
	for _, iv := range s.iv {
		t += iv.Len
	}
	return t
}

// Missing returns the complement of the set within [0, size).
func (s *IntervalSet) Missing(size int64) []Interval {
	var out []Interval
	pos := int64(0)
	for _, iv := range s.iv {
		if iv.Off >= size {
			break
		}
		if iv.Off > pos {
			out = append(out, Interval{Off: pos, Len: iv.Off - pos})
		}
		if iv.End() > pos {
			pos = iv.End()
		}
	}
	if pos < size {
		out = append(out, Interval{Off: pos, Len: size - pos})
	}
	return out
}

// Clear empties the set.
func (s *IntervalSet) Clear() { s.iv = s.iv[:0] }

// ChunkLedger is one rank's thread-safe progress ledger over its output
// buffer of Size bytes: the spans that have landed and — when integrity
// verification is on — passed their per-hop checksums. The member's own
// goroutine marks it op by op; the recovery rendezvous reads every
// member's from the last arriver's goroutine, hence the mutex.
type ChunkLedger struct {
	mu   sync.Mutex
	size int64
	set  IntervalSet
}

// NewChunkLedger creates an empty ledger over a size-byte buffer.
func NewChunkLedger(size int64) *ChunkLedger {
	l := &ChunkLedger{}
	l.Restart(size)
	return l
}

// Restart empties the ledger and resizes it to a size-byte buffer, keeping
// its interval storage: a ledger restarted per call re-marks in place.
func (l *ChunkLedger) Restart(size int64) {
	l.mu.Lock()
	l.size = max(size, 0)
	l.set.Clear()
	l.mu.Unlock()
}

// Size returns the payload size the ledger covers.
func (l *ChunkLedger) Size() int64 { return l.size }

// MarkHeld records that [off, off+n) landed verified.
func (l *ChunkLedger) MarkHeld(off, n int64) {
	l.mu.Lock()
	l.set.Add(off, n)
	l.mu.Unlock()
}

// MarkAll records the whole buffer held (a receiver whose end-to-end
// digests verified).
func (l *ChunkLedger) MarkAll() {
	l.mu.Lock()
	l.set.Clear()
	l.set.Add(0, l.size)
	l.mu.Unlock()
}

// Reset forgets everything — the response to a failed end-to-end digest,
// after which nothing in the buffer can be trusted.
func (l *ChunkLedger) Reset() {
	l.mu.Lock()
	l.set.Clear()
	l.mu.Unlock()
}

// Holds reports whether the whole span [off, off+n) is held.
func (l *ChunkLedger) Holds(off, n int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.set.Contains(off, n)
}

// Spans snapshots the held intervals — the row this rank contributes to
// the survivors' ledger exchange.
func (l *ChunkLedger) Spans() []Interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.set.Spans()
}

// HeldBytes returns the number of held bytes.
func (l *ChunkLedger) HeldBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.set.Total()
}
