// Package exec runs communication schedules on real memory: the functional
// half of the dual execution model. The same sched.Schedule a simulator
// times in virtual seconds is executed here on real byte slices, proving
// that an algorithm moves the right bytes to the right places under full
// concurrency. There is one executor, Progress.RunRank (DESIGN.md §17): the
// drivers here run it with one goroutine per rank over plain buffers; the
// mpi runtime plugs fault injection, KNEM pulls and watchdogs in as Hooks.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"distcoll/internal/sched"
)

// Hooks is what a runtime plugs into the executor for one rank of one run.
type Hooks interface {
	// BeforeOp runs before the op's dependency wait (fault injection).
	BeforeOp(o *sched.Op) error
	// Await is the wait slow path, entered only when dependency dep of o is
	// incomplete: block until p.Done(dep), parking on p.Wake(o.Rank) between
	// checks, or return why the wait was abandoned.
	Await(p *Progress, o *sched.Op, dep sched.OpID) error
	// Perform moves (or combines) the op's bytes, plus whatever must follow
	// a successful op before its completion is published (callbacks, trace).
	Perform(o *sched.Op) error
}

// Progress is the completion state of one run of a schedule: one atomic
// word per op in place of a channel per op, plus each rank's parking channel
// — capacity 1, owned by the caller, reusable across runs. Completing an op
// stores its word and THEN offers a token to every rank in Index.Waiters
// without blocking; a waiter checks the word and only then parks. An offer
// is dropped only when a token is already pending, so no wake-up is lost,
// and a stale token costs one re-check (DESIGN.md §17).
type Progress struct {
	idx  *sched.Index
	done []atomic.Uint32
	wake []chan struct{}
}

// Start begins a run of idx; wake holds a capacity-1 channel per rank. It
// is the one way to start a run: the completion words of the previous run
// are cleared and reused when there are enough of them, so a caller that
// keeps its Progress allocates only when a schedule outgrows every earlier
// one. The previous run must be over on every rank.
func (p *Progress) Start(idx *sched.Index, wake []chan struct{}) {
	n := len(idx.Schedule().Ops)
	if cap(p.done) < n {
		p.done = make([]atomic.Uint32, n)
	}
	p.idx, p.done, p.wake = idx, p.done[:n], wake
	clear(p.done)
}

// Done reports whether op id has completed.
func (p *Progress) Done(id sched.OpID) bool { return p.done[id].Load() != 0 }

// Wake returns rank's parking channel.
func (p *Progress) Wake(rank int) <-chan struct{} { return p.wake[rank] }

// RunRank executes rank's ops in program order and returns the first hook
// error. Dependencies precede their op, so it is deadlock-free when every
// rank runs it.
func (p *Progress) RunRank(rank int, h Hooks) error {
	ops := p.idx.Schedule().Ops
	for _, id := range p.idx.RankOps(rank) {
		o := &ops[id]
		if err := h.BeforeOp(o); err != nil {
			return err
		}
		for _, d := range o.Deps {
			if p.done[d].Load() == 0 {
				if err := h.Await(p, o, d); err != nil {
					return err
				}
			}
		}
		if err := h.Perform(o); err != nil {
			return err
		}
		p.done[id].Store(1)
		for _, r := range p.idx.Waiters(o.ID) {
			select {
			case p.wake[r] <- struct{}{}:
			default: // a token is already pending; the waiter will re-check
			}
		}
	}
	return nil
}

// Buffers holds the allocated backing store for a schedule's buffers.
type Buffers struct {
	data [][]byte
}

// Alloc allocates zeroed storage for every buffer in the schedule.
func Alloc(s *sched.Schedule) *Buffers {
	b := &Buffers{data: make([][]byte, len(s.Buffers))}
	for i, spec := range s.Buffers {
		b.data[i] = make([]byte, spec.Bytes)
	}
	return b
}

// Bytes returns the backing slice for a buffer; writes to it before Run
// seed the initial data (e.g. the broadcast root's message).
func (b *Buffers) Bytes(id sched.BufID) []byte { return b.data[id] }

// Combiner applies a reduction operator element-wise: dst = op(dst, src).
// It must treat dst and src as equal-length byte vectors of the caller's
// datatype.
type Combiner func(dst, src []byte)

// Run executes a copy-only schedule concurrently: one goroutine per rank,
// each running its ops in program order. The schedule is validated first, so
// it cannot deadlock. Schedules containing reduce operations need RunReduce.
func Run(s *sched.Schedule, b *Buffers) error {
	return RunReduce(s, b, nil)
}

// RunReduce executes a schedule that may contain OpReduce operations,
// combining with the given operator.
func RunReduce(s *sched.Schedule, b *Buffers, combine Combiner) error {
	return RunReduceContext(context.Background(), s, b, combine)
}

// RunContext is Run under a context: when ctx is done, ranks blocked on
// dependencies abort instead of waiting forever, running copies finish, and
// the returned error carries a diagnostic of every unfinished operation —
// the hang dump a watchdog prints instead of deadlocking the job.
func RunContext(ctx context.Context, s *sched.Schedule, b *Buffers) error {
	return RunReduceContext(ctx, s, b, nil)
}

// RunReduceContext is RunContext with a reduction operator.
func RunReduceContext(ctx context.Context, s *sched.Schedule, b *Buffers, combine Combiner) error {
	idx, err := check(s, b, combine)
	if err != nil {
		return err
	}
	wake := make([]chan struct{}, s.NumRanks)
	for r := range wake {
		wake[r] = make(chan struct{}, 1)
	}
	var p Progress
	p.Start(idx, wake)
	h := &plainHooks{ctx: ctx, b: b, combine: combine}
	var wg sync.WaitGroup
	for r := 0; r < s.NumRanks; r++ {
		if len(idx.RankOps(r)) == 0 {
			continue
		}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_ = p.RunRank(rank, h) // only ever ctx.Err(), reported below
		}(r)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("exec: schedule aborted (%w); %s", err, s.PendingDump(p.Done))
	}
	return nil
}

// plainHooks runs ops on plain Buffers until the context is done.
type plainHooks struct {
	ctx     context.Context
	b       *Buffers
	combine Combiner
}

func (h *plainHooks) BeforeOp(*sched.Op) error { return nil }

func (h *plainHooks) Await(p *Progress, o *sched.Op, dep sched.OpID) error {
	for !p.Done(dep) {
		select {
		case <-p.Wake(o.Rank):
		case <-h.ctx.Done():
			return h.ctx.Err()
		}
	}
	return nil
}

func (h *plainHooks) Perform(o *sched.Op) error {
	if err := h.ctx.Err(); err != nil {
		return err
	}
	perform(h.b, o, h.combine)
	return nil
}

// RunSerial executes the schedule on the calling goroutine in id order — a
// valid order, since every dependency precedes its op — with results
// identical to Run: for deterministic debugging and pure copy cost.
func RunSerial(s *sched.Schedule, b *Buffers) error {
	return RunSerialReduce(s, b, nil)
}

// RunSerialReduce is RunSerial with a reduction operator.
func RunSerialReduce(s *sched.Schedule, b *Buffers, combine Combiner) error {
	if _, err := check(s, b, combine); err != nil {
		return err
	}
	for i := range s.Ops {
		perform(b, &s.Ops[i], combine)
	}
	return nil
}

func check(s *sched.Schedule, b *Buffers, combine Combiner) (*sched.Index, error) {
	idx, err := s.Index()
	if err != nil {
		return nil, err
	}
	if len(b.data) != len(s.Buffers) {
		return nil, fmt.Errorf("exec: buffers allocated for a different schedule")
	}
	if combine == nil && s.HasReduce() {
		return nil, fmt.Errorf("exec: schedule contains reduce ops; use RunReduce with a combiner")
	}
	return idx, nil
}

func perform(b *Buffers, op *sched.Op, combine Combiner) {
	src := b.data[op.Src][op.SrcOff : op.SrcOff+op.Bytes]
	dst := b.data[op.Dst][op.DstOff : op.DstOff+op.Bytes]
	if op.Kind == sched.OpReduce {
		combine(dst, src)
		return
	}
	copy(dst, src)
}
