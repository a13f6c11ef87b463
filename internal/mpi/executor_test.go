package mpi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/fault"
	"distcoll/internal/health"
	"distcoll/internal/hwtopo"
	"distcoll/internal/integrity"
	"distcoll/internal/sched"
	"distcoll/internal/trace"
)

// runSchedule executes a hand-built schedule as one collective on c, with
// runtime-allocated buffers: the executor's hooks without a compiler in
// front of them. It returns the plan's buffer table as it was bound — a
// clean close clears the plan's own — whose auxiliary buffers hold the run's
// bytes until the communicator's next collective.
func runSchedule(c *Comm, s *sched.Schedule) ([][]byte, error) {
	rv, err := c.coordinate(context.Background(), func(*rendezvous) {}, func(rv *rendezvous) (err error) {
		rv.plan, err = c.state.newPlan("test", s, func(int, string) []byte { return nil })
		return err
	})
	if err != nil {
		return nil, err
	}
	plan := rv.plan
	bufs := slices.Clone(plan.bufs)
	return bufs, c.runPlan(plan, &collArgs{})
}

// fanSchedule: one op of rank 0 that every other rank's pull waits on.
func fanSchedule(n int, size int64) *sched.Schedule {
	s := sched.New(n)
	data := make([]sched.BufID, n)
	for r := range data {
		data[r] = s.AddBuffer(r, "data", size)
	}
	seed := s.AddBuffer(0, "seed", size)
	first := s.AddOp(sched.Op{Rank: 0, Src: seed, Dst: data[0], Bytes: size})
	for r := 1; r < n; r++ {
		s.AddOp(sched.Op{Rank: r, Mode: sched.ModeKnem, Src: data[0], Dst: data[r], Bytes: size, Deps: []sched.OpID{first}})
	}
	return s
}

// warmAllocsPerCall runs `calls` warm calls of one collective on an IG-48
// world and returns heap allocations and allocated bytes per call summed
// over all ranks (and the two bracketing barriers, amortised): the smallest
// of three measurements, because MemStats is process-wide and counts what
// the Go runtime allocates for itself. A rank that parks in a select takes
// one 96-byte sudog per case from a cache that every GC cycle empties and
// that grows whenever more goroutines park at once than before — which a
// loaded host arranges at will (up to 6 "allocations" per Barrier in 5 of 60
// worlds beside three spinning processes, every one of them that select).
// Nothing of the runtime's repeats in all three windows once the cache has
// grown (a warm-up as long as a window; the process's first world takes
// longer, see TestWarmCollectiveAllocBudget), and anything the call path
// itself allocates does.
func warmAllocsPerCall(t *testing.T, w *World, calls int, call func(c *Comm, rank int) error) (allocs, bytes float64) {
	t.Helper()
	var m0, m1 [3]runtime.MemStats
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		for i := 0; i < calls; i++ { // warm: plan cache, plan instance, topology, map growth, sudog cache
			if err := call(c, p.Rank()); err != nil {
				return err
			}
		}
		for k := range m0 {
			if err := c.Barrier(); err != nil {
				return err
			}
			if p.Rank() == 0 {
				runtime.ReadMemStats(&m0[k])
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for i := 0; i < calls; i++ {
				if err := call(c, p.Rank()); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if p.Rank() == 0 {
				runtime.ReadMemStats(&m1[k])
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k := range m0 {
		if m1[k].Mallocs-m0[k].Mallocs < m1[best].Mallocs-m0[best].Mallocs {
			best = k
		}
	}
	return float64(m1[best].Mallocs-m0[best].Mallocs) / float64(calls), float64(m1[best].TotalAlloc-m0[best].TotalAlloc) / float64(calls)
}

// TestWarmCollectiveAllocBudget is the allocation gate of the one call
// path: on a warm 48-rank world a collective call allocates NOTHING, summed
// over all ranks — not per plan, per rank, per schedule op or per auxiliary
// buffer. The arguments are deposited by copy into the communicator's
// rendezvous record; the rendezvous and the completion barrier park on the
// members' own wake channels; the hooks value is the member's slot; the plan
// instance — its buffer and cookie tables, its completion words, its digests
// — and the auxiliary slab are the communicator's, handed back by the last
// leaver of every clean call; the selector's decision travels by value, and
// a chunked one's name is formatted once, not per call. The cells cover
// every descriptor and span 47 to 4512 ops. One exception: the mpich2
// alltoall stages 2.3 MB through bounce buffers, more than the communicator
// keeps (slabCap), so each call allocates its slab, once — and those
// megabytes start GC cycles, each emptying the runtime's sudog cache, so
// parked ranks take a fresh sudog now and then in every window: budget 2.
// Every budget is on bytes too: a table, a slab or a landing buffer coming
// back per call fails it even where the count would not.
//
// Measured 0 on every cell but that one (1–1.1 allocations, 2.3 MB). With
// a fresh plan, tables, completion array and decision per call the plain
// cells cost 4–5 allocations and up to 17.7 KB (the 64 KiB allreduce 11, its
// chunked decision formatted twice per call; the alltoall 95 KB on top of its
// slab); with a boxed argument per rank and two slot records per call 61–68
// and a Barrier 4; with a channel per op, a Validate per call and allocating
// waits, the first three cost 588, 7,518 and 63,826.
//
// The guarded cells run the same executor with every hook live — per-chunk
// CRC, end-to-end digests (carved from the plan instance's storage), a
// tracer with a ring sink — and the resilient cells add the member's
// progress ledger, which lives in its slot and is restarted per call.
// Measured 0 for all of them, budgets 2 and 8. With a fresh plan per call
// the guarded cells cost 6; with a fresh ledger per rank per call the
// resilient ones 99–101 and 244–245 (the ledger plus the growth of its
// interval slice, once per broadcast, a few times per allgather); with an
// op_end closure and a formatted histogram name per rank the guarded cells
// cost 158–160, with an escaping CRC header and a formatted counter name per
// copy 1,354 and 13,954.
//
// The member slot also keeps the landing buffer of kernel-assisted reduces
// between calls: the 64 KiB allreduce cell is the tree at chunk = 64 KiB
// under the shipped table, every interior rank combining its children
// through a 64 KiB landing buffer, and the gather and alltoall cells carve
// ≈ 120 KB and 2.3 MB of bounce buffers.
func TestWarmCollectiveAllocBudget(t *testing.T) {
	const n = 48
	// A call path that allocates anything allocates at least once per call,
	// so counts compare in whole allocations per call; what the runtime adds
	// — now and then a 96-byte sudog — stays under half of one, and under
	// stray bytes per call.
	const stray = 64
	const guardedAllocs, guardedBytes = 2, 512
	const resilientAllocs, resilientBytes = 8, 1 << 10
	bufs := func(size int) [][]byte {
		out := make([][]byte, n)
		for r := range out {
			out[r] = make([]byte, size)
		}
		return out
	}
	type cell struct {
		name          string
		allocs, bytes float64 // budgets per warm call, summed over ranks
		call          func(c *Comm, rank int) error
	}
	b4k, b64k, b16k, b16kAll := bufs(4096), bufs(64<<10), bufs(16<<10), bufs(n*16<<10)
	sum64k := bufs(64 << 10)
	tiny, tinyAll := bufs(64), bufs(n*64)
	small, big, reduced, exchanged := bufs(1024), bufs(n*1024), bufs(1024), bufs(n*1024)
	cells := []cell{
		{"bcast 4KiB knemcoll", 0, stray, func(c *Comm, r int) error { return c.Bcast(b4k[r], 0, KNEMColl) }},
		{"bcast 4KiB adaptive", 0, stray, func(c *Comm, r int) error { return c.Bcast(b4k[r], 0, Adaptive) }},
		{"allgather 1KiB adaptive", 0, stray, func(c *Comm, r int) error { return c.Allgather(small[r], big[r], Adaptive) }},
		{"allgather 64B adaptive", 0, stray, func(c *Comm, r int) error { return c.Allgather(tiny[r], tinyAll[r], Adaptive) }},
		{"reduce 1KiB knemcoll", 0, stray, func(c *Comm, r int) error {
			return c.Reduce(small[r], reduced[r], 0, OpSumInt64, KNEMColl)
		}},
		{"allreduce 1KiB adaptive", 0, stray, func(c *Comm, r int) error {
			return c.Allreduce(small[r], reduced[r], OpSumInt64, Adaptive)
		}},
		{"gather 1KiB knemcoll", 0, stray, func(c *Comm, r int) error { return c.Gather(small[r], big[r], 0, KNEMColl) }},
		{"scatter 1KiB tuned", 0, stray, func(c *Comm, r int) error { return c.Scatter(big[r], small[r], 0, Tuned) }},
		{"alltoall 1KiB mpich2", 2, 2.25 * (1 << 20), func(c *Comm, r int) error { return c.Alltoall(big[r], exchanged[r], MPICH2) }},
		{"barrier", 0, stray, func(c *Comm, _ int) error { return c.Barrier() }},
		{"allreduce 64KiB adaptive", 0, stray, func(c *Comm, r int) error {
			return c.Allreduce(b64k[r], sum64k[r], OpSumInt64, Adaptive)
		}},
		{"bcast-resilient 4KiB knemcoll", resilientAllocs, resilientBytes, func(c *Comm, r int) error {
			_, err := c.BcastResilient(b4k[r], 0, KNEMColl)
			return err
		}},
		{"allgather-resilient 1KiB knemcoll", resilientAllocs, resilientBytes, func(c *Comm, r int) error {
			_, _, err := c.AllgatherResilient(small[r], big[r], KNEMColl)
			return err
		}},
	}
	guarded := []cell{
		{"guarded bcast 64KiB", guardedAllocs, guardedBytes, func(c *Comm, r int) error { return c.Bcast(b64k[r], 0, Adaptive) }},
		{"guarded allgather 16KiB", guardedAllocs, guardedBytes, func(c *Comm, r int) error {
			return c.Allgather(b16k[r], b16kAll[r], Adaptive)
		}},
		{"guarded bcast-resilient 64KiB", resilientAllocs, resilientBytes, func(c *Comm, r int) error {
			_, err := c.BcastResilient(b64k[r], 0, KNEMColl)
			return err
		}},
		{"guarded allgather-resilient 16KiB", resilientAllocs, resilientBytes, func(c *Comm, r int) error {
			_, _, err := c.AllgatherResilient(b16k[r], b16kAll[r], KNEMColl)
			return err
		}},
	}
	// The scored cells run under WithHealth, whose scorer scans once per
	// collective (at its plan_reap), not once per rank: a call costs a
	// per-scan constant (the baseline table, the revision list: measured
	// 18–35) and one median per (edge, size bucket) window the call's copies
	// touched — the tree's n−1 edges, the ring's n, every pair for an
	// alltoall. Measured 65, 67 and 1,163 allocations, 7.9, 8.0 and 179 KB;
	// one more allocation per rank fails the first two. With a fresh plan per
	// call they cost 70, 72 and 1,167 and 10.6, 21.3 and 192 KB; when every
	// rank's op_end ran the scan, 8,789, 8,981 and 113,429 allocations.
	const scan = 40
	scored := []cell{
		{"scored bcast 64KiB", scan + (n - 1), 12 << 10, func(c *Comm, r int) error { return c.Bcast(b64k[r], 0, Adaptive) }},
		{"scored allgather 16KiB", scan + n, 12 << 10, func(c *Comm, r int) error {
			return c.Allgather(b16k[r], b16kAll[r], Adaptive)
		}},
		{"scored alltoall 1KiB", scan + n*(n-1)/2, 184 << 10, func(c *Comm, r int) error {
			return c.Alltoall(big[r], exchanged[r], KNEMColl)
		}},
	}
	// The process's first 48-rank world parks more goroutines at once than it
	// ever has, and grows the runtime's sudog cache by tens per window for
	// a hundred calls or so: let an unmeasured world do that.
	warmAllocsPerCall(t, igWorld(t, "crosssocket", n), 100, cells[0].call)
	run := func(cells []cell, opts func() []Option) {
		for _, cell := range cells {
			w := NewWorld(igWorld(t, "crosssocket", n).Binding(), opts()...)
			got, bytes := warmAllocsPerCall(t, w, 20, cell.call)
			t.Logf("%-34s %.0f allocs/call, %.0f B/call over %d ranks", cell.name, got, bytes, n)
			if math.Round(got) > cell.allocs {
				t.Errorf("%s: %.0f allocations per warm call, budget %.0f", cell.name, got, cell.allocs)
			}
			if bytes > cell.bytes {
				t.Errorf("%s: %.0f bytes allocated per warm call, budget %.0f", cell.name, bytes, cell.bytes)
			}
		}
	}
	run(cells, func() []Option { return nil })
	run(guarded, func() []Option {
		return []Option{WithIntegrity(integrity.Config{}),
			WithTracer(trace.New(trace.NewRing(trace.DefaultRingCapacity)))}
	})
	run(scored, func() []Option { return []Option{WithHealth(health.Config{})} })
}

// TestManyRanksBlockedOnOneOp parks 15 ranks on one op of a straggling
// rank 0, over and over on the same communicator, so every later round
// starts with whatever wake tokens the previous one left behind. Every
// pull must still see the completed write.
func TestManyRanksBlockedOnOneOp(t *testing.T) {
	const n, size, rounds = 16, 512, 40
	w := faultWorld(t, n, fault.Plan{SlowRanks: map[int]time.Duration{0: 200 * time.Microsecond}})
	s := fanSchedule(n, size)
	err := w.Run(func(p *Proc) error {
		c := p.Comm()
		for i := 0; i < rounds; i++ {
			// Interleave a real collective so tokens cross plans.
			if err := c.Allgather(pattern(p.Rank(), 64), make([]byte, n*64), KNEMColl); err != nil {
				return err
			}
			bufs, err := runSchedule(c, s)
			if err != nil {
				return err
			}
			seed, _ := s.FindBuffer(0, "seed")
			mine, _ := s.FindBuffer(c.Rank(), "data")
			if !bytes.Equal(bufs[mine], bufs[seed]) {
				return fmt.Errorf("round %d: rank %d pulled before the write completed", i, p.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompletionRacesMarkFailed crashes a rank at every op index of an
// 8-rank allgather in turn: survivors are mid-ring, some parked on the
// victim's ops, some completing their own, when MarkFailed fires. Every
// survivor must come back with the typed RankFailureError — from the
// dependency wait or from the finish vote — naming nobody but the victim
// (a survivor that reaches the vote between the victim's setBroken and its
// MarkFailed sees the break before the death, and names nobody), and the
// victim with its crash.
func TestCompletionRacesMarkFailed(t *testing.T) {
	const n, victim, block = 8, 5, 256
	for at := 0; at < n; at++ {
		w := faultWorld(t, n, fault.Plan{CrashAtOp: map[int]int{victim: at}})
		errs := make([]error, n)
		w.Run(func(p *Proc) error {
			errs[p.Rank()] = p.Comm().Allgather(pattern(p.Rank(), block), make([]byte, n*block), KNEMColl)
			return nil
		})
		for r, err := range errs {
			if r == victim {
				if !fault.IsCrashed(err) {
					t.Errorf("crash at op %d: victim got %v", at, err)
				}
				continue
			}
			var rf *RankFailureError
			if !errors.As(err, &rf) || len(rf.Failed) > 1 || (len(rf.Failed) == 1 && rf.Failed[0] != victim) {
				t.Errorf("crash at op %d: rank %d got %v, want RankFailureError{[%d]}", at, r, err, victim)
			}
		}
	}
}

// TestDependencyWatchdogNamesOpAndDependency: rank 0 stalls past the
// deadline before the one op everybody waits on. Each waiter's HangError
// must name its blocked op, the dependency and the rank executing it, and
// carry both dumps — formatted only now, on failure.
func TestDependencyWatchdogNamesOpAndDependency(t *testing.T) {
	const n = 6
	w := faultWorld(t, n, fault.Plan{SlowRanks: map[int]time.Duration{0: 500 * time.Millisecond}},
		WithOpDeadline(50*time.Millisecond))
	s := fanSchedule(n, 128)
	errs := make([]error, n)
	w.Run(func(p *Proc) error {
		_, errs[p.Rank()] = runSchedule(p.Comm(), s)
		return nil
	})
	hangs := 0
	for r := 1; r < n; r++ {
		var he *HangError
		if !errors.As(errs[r], &he) {
			continue // a rank may instead lose the race to the finish vote
		}
		hangs++
		if want := fmt.Sprintf("collective op %d (waiting on op 0 of rank 0)", r); he.Op != want {
			t.Errorf("rank %d: HangError.Op = %q, want %q", r, he.Op, want)
		}
		if he.Rank != r || he.Deadline != 50*time.Millisecond {
			t.Errorf("rank %d: HangError{Rank: %d, Deadline: %v}", r, he.Rank, he.Deadline)
		}
		if !strings.Contains(he.Dump, fmt.Sprintf("rank %d in collective op %d (waiting on op 0 of rank 0) for", r, r)) {
			t.Errorf("rank %d: blocked-rank dump does not list the waiter: %q", r, he.Dump)
		}
		if !strings.Contains(he.Dump, fmt.Sprintf("schedule: %d/%d ops unfinished", n, n)) ||
			!strings.Contains(he.Dump, "waits on [0]") || !strings.Contains(he.Dump, "runnable") {
			t.Errorf("rank %d: pending-op dump missing or wrong: %q", r, he.Dump)
		}
	}
	if hangs == 0 {
		t.Fatalf("no dependency-wait HangError among %v", errs)
	}
}

// TestWatchdogIgnoresStaleTick pins the reusable watchdog timer: a tick
// that fired after its wait had already ended stays in the channel, and
// the next wait must not mistake it for its own deadline.
func TestWatchdogIgnoresStaleTick(t *testing.T) {
	var wd watchdog
	if wd.arm(0) != nil {
		t.Fatal("disabled watchdog returned a channel")
	}
	wd.disarm() // no timer yet: must be a no-op
	c := wd.arm(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // let it fire unobserved: the stale tick
	wd.disarm()
	c2 := wd.arm(time.Hour)
	if c2 != c {
		t.Fatal("watchdog allocated a second timer")
	}
	select {
	case <-c2:
		if wd.expired() {
			t.Fatal("stale tick taken for the new deadline")
		}
	default: // runtimes that clear the channel on Reset leave nothing to ignore
	}
	wd.disarm()
	c3 := wd.arm(5 * time.Millisecond)
	<-c3
	for !wd.expired() {
		<-c3
	}
}

// TestTracingKeepsClusteredCommSparse: copy events are tagged with the
// distance class of the edge they crossed, read from the communicator's
// one view — the O(n) clustered one on a single machine as on a cluster —
// and the tags agree with the dense reference matrix.
func TestTracingKeepsClusteredCommSparse(t *testing.T) {
	for _, topo := range []*hwtopo.Topology{hwtopo.NewIGCluster(), hwtopo.NewIG()} {
		b, err := binding.CrossSocket(topo, 48)
		if err != nil {
			t.Fatal(err)
		}
		ring := trace.NewRing(trace.DefaultRingCapacity)
		w := NewWorld(b, WithTracer(trace.New(ring)))
		err = w.Run(func(p *Proc) error {
			if err := p.Comm().Bcast(make([]byte, 8192), 3, KNEMColl); err != nil {
				return err
			}
			return p.Comm().Allgather(make([]byte, 128), make([]byte, 48*128), KNEMColl)
		})
		if err != nil {
			t.Fatal(err)
		}
		st := w.worldComm
		if st.view == nil {
			t.Fatalf("%s world communicator has no distance view", topo.Name)
		}
		copies := trace.Filter(ring.Events(), trace.KindCopy)
		if len(copies) == 0 {
			t.Fatal("no copy events traced")
		}
		dense := distance.NewMatrix(topo, b.Cores())
		for _, e := range copies {
			if want := dense.At(e.Src, e.Dst); e.Dist != want || st.view.At(e.Src, e.Dst) != want {
				t.Fatalf("%s: copy %d→%d tagged distance %d, view says %d, dense matrix %d",
					topo.Name, e.Src, e.Dst, e.Dist, st.view.At(e.Src, e.Dst), want)
			}
		}
	}
}

// TestFixedComponentsUsePlanCache: a fixed component compiles each shape
// once and then hits the world's plan cache, without emitting the
// selector's plan_cache trace event; breaking the communicator drops the
// entries like it drops Adaptive's.
func TestFixedComponentsUsePlanCache(t *testing.T) {
	const n, reps = 8, 4
	b, err := binding.CrossSocket(hwtopo.NewIG(), n)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(trace.DefaultRingCapacity)
	w := NewWorld(b, WithTracer(trace.New(ring)))
	err = w.Run(func(p *Proc) error {
		c := p.Comm()
		for i := 0; i < reps; i++ {
			for _, comp := range []Component{KNEMColl, Tuned, MPICH2} {
				if err := c.Bcast(make([]byte, 2048), 1, comp); err != nil {
					return err
				}
				if err := c.Allreduce(make([]byte, 512), make([]byte, 512), OpSumInt64, comp); err != nil {
					return err
				}
				send, recv := pattern(p.Rank(), 64), make([]byte, n*64)
				if err := c.Gather(send, recv, 2, comp); err != nil {
					return err
				}
				if p.Rank() == 2 && !bytes.Equal(recv[64:128], pattern(1, 64)) {
					return errors.New("cached gather schedule delivered wrong data")
				}
				if err := c.Alltoall(make([]byte, n*32), make([]byte, n*32), comp); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const shapes = 3 * 4
	st := w.PlanCache().Stats()
	if st.Misses != shapes || st.Hits != shapes*(reps-1) || st.Size != shapes {
		t.Errorf("plan cache after %d reps of %d fixed shapes: %+v", reps, shapes, st)
	}
	if evs := trace.Filter(ring.Events(), trace.KindPlanCache); len(evs) != 0 {
		t.Errorf("fixed components emitted %d plan_cache events", len(evs))
	}
	w.worldComm.setBroken()
	if st := w.PlanCache().Stats(); st.Size != 0 {
		t.Errorf("%d fixed-component plans survived setBroken", st.Size)
	}
}

// TestUnrunnableScheduleIsRejectedNotHung: the acyclic-but-out-of-order
// schedule the old validity rule let through must fail in newPlan, on
// every member, instead of parking rank 0 until the watchdog.
func TestUnrunnableScheduleIsRejectedNotHung(t *testing.T) {
	w := faultWorld(t, 2, fault.Plan{})
	s := sched.New(2)
	b := s.AddBuffer(0, "a", 8)
	s.AddOp(sched.Op{Rank: 0, Src: b, Dst: b, Bytes: 8})
	s.AddOp(sched.Op{Rank: 0, Src: b, Dst: b, Bytes: 8})
	s.Ops[0].Deps = []sched.OpID{1}
	var mu sync.Mutex
	var got []error
	w.Run(func(p *Proc) error {
		_, err := runSchedule(p.Comm(), s)
		mu.Lock()
		got = append(got, err)
		mu.Unlock()
		return nil
	})
	for _, err := range got {
		if err == nil || IsHang(err) || !strings.Contains(err.Error(), "does not precede") {
			t.Errorf("unrunnable schedule: got %v, want the validity error", err)
		}
	}
}
