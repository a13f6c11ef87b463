// Package sched defines the communication-schedule representation shared
// by every collective algorithm in this repository. A Schedule is a DAG of
// copy operations over named per-rank buffers: algorithms (distance-aware
// or rank-based baselines) compile a collective call into a Schedule, the
// exec package runs it on real memory to prove correctness, and the
// des/machine packages run it in virtual time to estimate performance.
//
// The representation captures exactly the mechanics the paper measures:
// who executes each copy (receiver-driven KNEM pulls vs sender copy-ins),
// which buffers the bytes traverse, what transfer mode is used (shared
// memory double copy vs kernel-assisted single copy), and the dependency
// edges whose cross-rank notifications cost latency.
package sched

import (
	"fmt"
	"sync/atomic"
)

// BufID identifies a buffer within one Schedule.
type BufID int

// OpID identifies an operation within one Schedule.
type OpID int

// Mode distinguishes the transfer mechanisms the paper compares.
type Mode int

const (
	// ModeLocal is a plain memcpy within the executing rank's own buffers
	// (e.g. allgather's step (1) self-copy).
	ModeLocal Mode = iota
	// ModeShm is one leg of a shared-memory double copy (copy-in to a
	// bounce buffer or copy-out of one): a user-space copy with eager
	// per-fragment handshakes but no kernel crossing.
	ModeShm
	// ModeKnem is a kernel-assisted single copy: one memory traversal,
	// plus a fixed syscall/cookie overhead per operation.
	ModeKnem
)

func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeShm:
		return "shm"
	case ModeKnem:
		return "knem"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// BufSpec declares a buffer owned by (and first-touched on the NUMA node
// of) a rank.
type BufSpec struct {
	Rank  int
	Name  string
	Bytes int64
}

// OpKind distinguishes plain copies from combining operations.
type OpKind int

const (
	// OpCopy moves bytes: dst = src.
	OpCopy OpKind = iota
	// OpReduce combines bytes: dst = combine(dst, src), element-wise under
	// the reduction operator supplied at execution time. Used by the
	// Reduce/Allreduce collectives (the paper's §VI future work).
	OpReduce
)

func (k OpKind) String() string {
	switch k {
	case OpCopy:
		return "copy"
	case OpReduce:
		return "reduce"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one copy or reduce operation. The executing rank's core performs
// it; source and destination buffers may belong to other ranks
// (cross-address-space access is what KNEM provides and shared segments
// emulate).
type Op struct {
	ID   OpID
	Rank int // executing rank
	Kind OpKind
	Mode Mode

	Src    BufID
	SrcOff int64
	Dst    BufID
	DstOff int64
	Bytes  int64

	// Chunk is the pipeline chunk index (broadcast) or ring step
	// (allgather) this op carries, for trace attribution; 0 when the
	// schedule is not pipelined.
	Chunk int

	// Deps are operations that must complete before this one starts. A
	// dependency on an op executed by another rank implies a notification
	// (out-of-band message), which the simulator charges latency for.
	Deps []OpID
}

// Schedule is a complete compiled collective, immutable once compiled:
// the plan cache shares one Schedule, and its memoised Index, across calls.
type Schedule struct {
	NumRanks int
	Buffers  []BufSpec
	Ops      []Op

	// deps is the arena AddOp copies dependency lists into: every stored
	// Op.Deps is a capacity-limited window of it, or of an arena it
	// outgrew (a full arena is replaced, never moved, so windows stay put).
	deps  []OpID
	index atomic.Pointer[Index] // see Index; cleared by AddBuffer/AddOp
}

// New creates an empty schedule for n ranks.
func New(n int) *Schedule {
	return &Schedule{NumRanks: n}
}

// Grow reserves room for ops more operations carrying deps dependencies in
// total, and bufs more buffers, so that adding them allocates nothing
// further. It is a capacity hint only: a schedule behaves the same without
// it or with counts that turn out wrong. Compilers that know their exact
// counts pass them; an estimate from above is held for the schedule's
// lifetime.
func (s *Schedule) Grow(ops, bufs, deps int) {
	s.Ops = reserve(s.Ops, ops)
	s.Buffers = reserve(s.Buffers, bufs)
	if cap(s.deps)-len(s.deps) < deps {
		s.deps = make([]OpID, 0, deps) // windows into the old arena stay where they are
	}
}

// reserve returns s with room for n more elements: exactly that, where
// slices.Grow would round up to an allocation size class.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// AddBuffer declares a buffer and returns its id.
func (s *Schedule) AddBuffer(rank int, name string, bytes int64) BufID {
	s.Buffers = append(s.Buffers, BufSpec{Rank: rank, Name: name, Bytes: bytes})
	s.index.Store(nil)
	return BufID(len(s.Buffers) - 1)
}

// AddOp appends an operation, assigning and returning its id. The schedule
// owns the stored op's dependency list: op.Deps is copied, so the caller
// may build it in a scratch buffer and reuse that at once, and the stored
// Deps (nil when op.Deps is empty) has no spare capacity, so appending to
// it never reaches another op's.
func (s *Schedule) AddOp(op Op) OpID {
	id := OpID(len(s.Ops))
	var deps []OpID
	if n := len(op.Deps); n > 0 {
		if cap(s.deps)-len(s.deps) < n {
			s.deps = make([]OpID, 0, max(2*cap(s.deps), n, 16))
		}
		lo := len(s.deps)
		s.deps = append(s.deps, op.Deps...)
		deps = s.deps[lo:len(s.deps):len(s.deps)]
	}
	// Field by field, not `op` with two fields replaced: storing the
	// parameter itself would make every caller's Deps literal escape.
	s.Ops = append(s.Ops, Op{
		ID: id, Rank: op.Rank, Kind: op.Kind, Mode: op.Mode,
		Src: op.Src, SrcOff: op.SrcOff, Dst: op.Dst, DstOff: op.DstOff, Bytes: op.Bytes,
		Chunk: op.Chunk, Deps: deps,
	})
	s.index.Store(nil)
	return id
}

// Buffer returns the spec for id.
func (s *Schedule) Buffer(id BufID) BufSpec { return s.Buffers[id] }

// FindBuffer returns the buffer named name owned by rank, or (-1, false).
func (s *Schedule) FindBuffer(rank int, name string) (BufID, bool) {
	for i, b := range s.Buffers {
		if b.Rank == rank && b.Name == name {
			return BufID(i), true
		}
	}
	return -1, false
}

// HasReduce reports whether any op combines rather than copies; such
// schedules need a reduction operator at execution time.
func (s *Schedule) HasReduce() bool {
	for _, op := range s.Ops {
		if op.Kind == OpReduce {
			return true
		}
	}
	return false
}

// TotalCopiedBytes sums Bytes over all ops (each op is one read + one
// write of that many bytes).
func (s *Schedule) TotalCopiedBytes() int64 {
	var total int64
	for _, op := range s.Ops {
		total += op.Bytes
	}
	return total
}

// CrossRankDeps counts dependency edges whose endpoint ops run on
// different ranks — each costs one notification. The paper's §IV-C
// overhead analysis counts these synchronizations.
func (s *Schedule) CrossRankDeps() int {
	n := 0
	for _, op := range s.Ops {
		for _, d := range op.Deps {
			if s.Ops[d].Rank != op.Rank {
				n++
			}
		}
	}
	return n
}

// Validate checks structural invariants: ranks valid, buffer references
// and offsets in bounds, and every dependency naming an EARLIER op. Ranks
// execute their ops in id order, so that is exactly runnability (the lowest
// unfinished op is always ready) — strictly stronger than acyclicity, in
// O(ops + edges) with no allocation.
func (s *Schedule) Validate() error {
	if s.NumRanks <= 0 {
		return fmt.Errorf("sched: NumRanks = %d", s.NumRanks)
	}
	for i, b := range s.Buffers {
		if b.Rank < 0 || b.Rank >= s.NumRanks {
			return fmt.Errorf("sched: buffer %d owned by invalid rank %d", i, b.Rank)
		}
		if b.Bytes < 0 {
			return fmt.Errorf("sched: buffer %d has negative size", i)
		}
	}
	for i := range s.Ops {
		op := &s.Ops[i]
		if op.ID != OpID(i) {
			return fmt.Errorf("sched: op %d has id %d", i, op.ID)
		}
		if op.Rank < 0 || op.Rank >= s.NumRanks {
			return fmt.Errorf("sched: op %d executed by invalid rank %d", i, op.Rank)
		}
		if op.Bytes < 0 {
			return fmt.Errorf("sched: op %d has negative size", i)
		}
		if err := s.checkRange(i, "src", op.Src, op.SrcOff, op.Bytes); err != nil {
			return err
		}
		if err := s.checkRange(i, "dst", op.Dst, op.DstOff, op.Bytes); err != nil {
			return err
		}
		for _, d := range op.Deps {
			if int(d) < 0 || int(d) >= len(s.Ops) {
				return fmt.Errorf("sched: op %d depends on invalid op %d", i, d)
			}
			if int(d) >= i {
				return fmt.Errorf("sched: op %d depends on op %d, which does not precede it (cycle or out of program order)", i, d)
			}
		}
	}
	return nil
}

func (s *Schedule) checkRange(op int, tag string, buf BufID, off, n int64) error {
	if int(buf) < 0 || int(buf) >= len(s.Buffers) {
		return fmt.Errorf("sched: op %d %s buffer %d out of range", op, tag, buf)
	}
	if b := &s.Buffers[buf]; off < 0 || off+n > b.Bytes {
		return fmt.Errorf("sched: op %d %s range [%d,%d) exceeds buffer %q size %d", op, tag, off, off+n, b.Name, b.Bytes)
	}
	return nil
}

// BlockTable splits size bytes into n rank blocks of ⌊size/n⌋ bytes with
// the remainder folded into the last block (MPICH's scatter layout, also
// used by ring reduce-scatter). Blocks may be empty when size < n.
func BlockTable(size int64, n int) (offs, lens []int64) {
	return AlignedBlockTable(size, n, 1)
}

// AlignedBlockTable is BlockTable with block boundaries aligned to
// multiples of align bytes (≤ 1: unaligned), so element-wise reductions
// never split an element; the last block absorbs the remainder.
func AlignedBlockTable(size int64, n int, align int64) (offs, lens []int64) {
	if align < 1 {
		align = 1
	}
	offs = make([]int64, n)
	lens = make([]int64, n)
	base := size / int64(n) / align * align
	var off int64
	for i := 0; i < n; i++ {
		offs[i] = off
		lens[i] = base
		off += base
	}
	lens[n-1] += size - base*int64(n)
	return offs, lens
}

// Chunks splits size into pipeline chunks of at most chunkBytes,
// returning (offset, length) pairs. chunkBytes ≤ 0 yields a single chunk.
func Chunks(size, chunkBytes int64) [][2]int64 {
	if size <= 0 {
		return nil
	}
	if chunkBytes <= 0 || chunkBytes >= size {
		return [][2]int64{{0, size}}
	}
	var out [][2]int64
	for off := int64(0); off < size; off += chunkBytes {
		n := chunkBytes
		if off+n > size {
			n = size - off
		}
		out = append(out, [2]int64{off, n})
	}
	return out
}
