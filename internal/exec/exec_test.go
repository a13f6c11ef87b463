package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// pattern fills a deterministic byte pattern distinguishable per rank.
func pattern(rank int, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((rank*131 + i*7 + 13) % 251)
	}
	return out
}

func TestBroadcastMovesRightBytes(t *testing.T) {
	ig := hwtopo.NewIG()
	for _, tc := range []struct {
		binding string
		root    int
		size    int64
	}{
		{"contiguous", 0, 4096},
		{"crosssocket", 0, 1 << 20},
		{"random", 17, 300000}, // odd size exercises chunk remainders
		{"rr", 47, 1},
	} {
		b, err := binding.ByName(ig, tc.binding, 48, 5)
		if err != nil {
			t.Fatal(err)
		}
		m := distance.NewMatrix(ig, b.Cores())
		tree, err := core.BuildBroadcastTree(m, tc.root, core.TreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.CompileBroadcast(tree, tc.size, 0)
		if err != nil {
			t.Fatal(err)
		}
		bufs := Alloc(s)
		rootBuf, ok := s.FindBuffer(tc.root, "data")
		if !ok {
			t.Fatal("root buffer missing")
		}
		msg := pattern(tc.root, tc.size)
		copy(bufs.Bytes(rootBuf), msg)
		if err := Run(s, bufs); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 48; r++ {
			id, ok := s.FindBuffer(r, "data")
			if !ok {
				t.Fatalf("rank %d buffer missing", r)
			}
			if !bytes.Equal(bufs.Bytes(id), msg) {
				t.Fatalf("%s root=%d size=%d: rank %d received wrong data",
					tc.binding, tc.root, tc.size, r)
			}
		}
	}
}

func TestBroadcastPipelinedMatchesUnpipelined(t *testing.T) {
	z := hwtopo.NewZoot()
	b, err := binding.Random(z, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.NewMatrix(z, b.Cores())
	tree, err := core.BuildBroadcastTree(m, 6, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const size = 700001 // prime-ish size, forced small chunks
	run := func(chunk int64) [][]byte {
		s, err := core.CompileBroadcast(tree, size, chunk)
		if err != nil {
			t.Fatal(err)
		}
		bufs := Alloc(s)
		id, _ := s.FindBuffer(6, "data")
		copy(bufs.Bytes(id), pattern(6, size))
		if err := Run(s, bufs); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, 16)
		for r := 0; r < 16; r++ {
			rid, _ := s.FindBuffer(r, "data")
			out[r] = bufs.Bytes(rid)
		}
		return out
	}
	whole := run(0)
	chunked := run(4096)
	for r := 0; r < 16; r++ {
		if !bytes.Equal(whole[r], chunked[r]) {
			t.Fatalf("rank %d differs between pipelined and unpipelined", r)
		}
	}
}

func TestAllgatherGathersEverything(t *testing.T) {
	ig := hwtopo.NewIG()
	for _, n := range []int{1, 2, 5, 48} {
		for _, ordering := range []core.RingOrdering{core.RingCanonical, core.RingLexicographic} {
			b, err := binding.Random(ig, n, int64(n))
			if err != nil {
				t.Fatal(err)
			}
			m := distance.NewMatrix(ig, b.Cores())
			ring, err := core.BuildAllgatherRing(m, core.RingOptions{Ordering: ordering})
			if err != nil {
				t.Fatal(err)
			}
			const block = int64(777)
			s, err := core.CompileAllgather(ring, block)
			if err != nil {
				t.Fatal(err)
			}
			bufs := Alloc(s)
			want := make([]byte, 0, int64(n)*block)
			for r := 0; r < n; r++ {
				id, ok := s.FindBuffer(r, "send")
				if !ok {
					t.Fatalf("rank %d send buffer missing", r)
				}
				p := pattern(r, block)
				copy(bufs.Bytes(id), p)
				want = append(want, p...)
			}
			if err := Run(s, bufs); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				id, ok := s.FindBuffer(r, "recv")
				if !ok {
					t.Fatalf("rank %d recv buffer missing", r)
				}
				if !bytes.Equal(bufs.Bytes(id), want) {
					t.Fatalf("n=%d ordering=%v: rank %d gathered wrong data", n, ordering, r)
				}
			}
		}
	}
}

func TestRunSerialMatchesRun(t *testing.T) {
	ig := hwtopo.NewIG()
	b, err := binding.CrossSocket(ig, 48)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.NewMatrix(ig, b.Cores())
	ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.CompileAllgather(ring, 256)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(bufs *Buffers) {
		for r := 0; r < 48; r++ {
			id, _ := s.FindBuffer(r, "send")
			copy(bufs.Bytes(id), pattern(r, 256))
		}
	}
	b1, b2 := Alloc(s), Alloc(s)
	seed(b1)
	seed(b2)
	if err := Run(s, b1); err != nil {
		t.Fatal(err)
	}
	if err := RunSerial(s, b2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 48; r++ {
		id, _ := s.FindBuffer(r, "recv")
		if !bytes.Equal(b1.Bytes(id), b2.Bytes(id)) {
			t.Fatalf("rank %d differs between Run and RunSerial", r)
		}
	}
}

func TestRunRejectsInvalidSchedule(t *testing.T) {
	s := sched.New(1)
	b := s.AddBuffer(0, "a", 16)
	s.AddOp(sched.Op{Rank: 0, Src: b, Dst: b, Bytes: 64}) // overruns buffer
	bufs := Alloc(s)
	if err := Run(s, bufs); err == nil {
		t.Error("Run accepted invalid schedule")
	}
	if err := RunSerial(s, bufs); err == nil {
		t.Error("RunSerial accepted invalid schedule")
	}
}

func TestRunRejectsForeignBuffers(t *testing.T) {
	s1 := sched.New(1)
	b1 := s1.AddBuffer(0, "a", 16)
	s1.AddOp(sched.Op{Rank: 0, Src: b1, Dst: b1, Bytes: 16})
	s2 := sched.New(1)
	s2.AddBuffer(0, "a", 16)
	s2.AddBuffer(0, "b", 16)
	foreign := Alloc(s2)
	if err := Run(s1, foreign); err == nil {
		t.Error("Run accepted buffers from another schedule")
	}
	if err := RunSerial(s1, foreign); err == nil {
		t.Error("RunSerial accepted buffers from another schedule")
	}
}

func ExampleRun() {
	// A minimal two-rank pull: rank 1 copies rank 0's 8-byte message.
	s := sched.New(2)
	src := s.AddBuffer(0, "data", 8)
	dst := s.AddBuffer(1, "data", 8)
	s.AddOp(sched.Op{Rank: 1, Mode: sched.ModeKnem, Src: src, Dst: dst, Bytes: 8})
	bufs := Alloc(s)
	copy(bufs.Bytes(src), "distcoll")
	if err := Run(s, bufs); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(string(bufs.Bytes(dst)))
	// Output: distcoll
}

func TestRunContextPreCanceled(t *testing.T) {
	// A dead context aborts before any op runs; the error carries the
	// pending-op hang dump.
	ig := hwtopo.NewIG()
	b, err := binding.Contiguous(ig, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.NewMatrix(ig, b.Cores())
	tree, err := core.BuildBroadcastTree(m, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.CompileBroadcast(tree, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	bufs := Alloc(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = RunContext(ctx, s, bufs)
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "ops unfinished") {
		t.Fatalf("error lacks pending-op dump: %v", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	// op0 is a reduce whose combiner cancels the context; the downstream
	// op must abort instead of performing, deterministically — the cancel
	// happens strictly before op0's completion is signaled.
	s := sched.New(2)
	b0 := s.AddBuffer(0, "a", 8)
	b1 := s.AddBuffer(1, "a", 8)
	o0 := s.AddOp(sched.Op{Rank: 0, Kind: sched.OpReduce, Mode: sched.ModeLocal, Src: b0, Dst: b0, Bytes: 8})
	s.AddOp(sched.Op{Rank: 1, Mode: sched.ModeKnem, Src: b0, Dst: b1, Bytes: 8, Deps: []sched.OpID{o0}})
	bufs := Alloc(s)
	copy(bufs.Bytes(b0), "payload!")
	ctx, cancel := context.WithCancel(context.Background())
	bomb := func(dst, src []byte) { cancel() }
	err := RunReduceContext(ctx, s, bufs, bomb)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled error, got %v", err)
	}
	if strings.Contains(err.Error(), "all ops finished") {
		t.Fatalf("dump claims completion after cancel: %v", err)
	}
	if bytes.Equal(bufs.Bytes(b1), bufs.Bytes(b0)) {
		t.Fatal("downstream op performed after cancellation")
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	z := hwtopo.NewZoot()
	b, err := binding.Random(z, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.NewMatrix(z, b.Cores())
	ring, err := core.BuildAllgatherRing(m, core.RingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.CompileAllgather(ring, 123)
	if err != nil {
		t.Fatal(err)
	}
	bufs := Alloc(s)
	var want []byte
	for r := 0; r < 16; r++ {
		id, _ := s.FindBuffer(r, "send")
		p := pattern(r, 123)
		copy(bufs.Bytes(id), p)
		want = append(want, p...)
	}
	if err := RunContext(context.Background(), s, bufs); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		id, _ := s.FindBuffer(r, "recv")
		if !bytes.Equal(bufs.Bytes(id), want) {
			t.Fatalf("rank %d gathered wrong data under background context", r)
		}
	}
}

// TestRunContextCancelWakesParkedRanks: a chain r0 → r1 → r2 where op0's
// combiner cancels the context. op0 still completes; rank 1 must refuse to
// perform op1, and rank 2 — parked on op1, which will now never complete —
// must be woken by the context, not left waiting. The error still reports
// exactly the unfinished ops.
func TestRunContextCancelWakesParkedRanks(t *testing.T) {
	s := sched.New(3)
	b := []sched.BufID{s.AddBuffer(0, "a", 8), s.AddBuffer(1, "a", 8), s.AddBuffer(2, "a", 8)}
	o0 := s.AddOp(sched.Op{Rank: 0, Kind: sched.OpReduce, Src: b[0], Dst: b[0], Bytes: 8})
	o1 := s.AddOp(sched.Op{Rank: 1, Mode: sched.ModeKnem, Src: b[0], Dst: b[1], Bytes: 8, Deps: []sched.OpID{o0}})
	s.AddOp(sched.Op{Rank: 2, Mode: sched.ModeKnem, Src: b[1], Dst: b[2], Bytes: 8, Deps: []sched.OpID{o1}})
	bufs := Alloc(s)
	copy(bufs.Bytes(b[0]), "payload!")
	ctx, cancel := context.WithCancel(context.Background())
	err := RunReduceContext(ctx, s, bufs, func(dst, src []byte) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled error, got %v", err)
	}
	if !strings.Contains(err.Error(), "2/3 ops unfinished") ||
		!strings.Contains(err.Error(), "rank 1: op 1") || !strings.Contains(err.Error(), "rank 2: op 2") {
		t.Fatalf("dump does not name the two unfinished ops: %v", err)
	}
	if bytes.Equal(bufs.Bytes(b[2]), bufs.Bytes(b[0])) {
		t.Fatal("downstream op performed after cancellation")
	}
}

// fanSchedule is the completion array's worst case: one op of rank 0 that
// every other rank waits on, then one op of rank 0 that waits on all of
// them. Every rank's buffer must end up holding rank 0's payload, and
// rank 0's "sum" buffer the XOR of all of them.
func fanSchedule(n int, size int64) (s *sched.Schedule, data []sched.BufID, sum sched.BufID) {
	s = sched.New(n)
	data = make([]sched.BufID, n)
	for r := range data {
		data[r] = s.AddBuffer(r, "data", size)
	}
	seed := s.AddBuffer(0, "seed", size)
	sum = s.AddBuffer(0, "sum", size)
	first := s.AddOp(sched.Op{Rank: 0, Src: seed, Dst: data[0], Bytes: size})
	pulls := make([]sched.OpID, 0, n-1)
	for r := 1; r < n; r++ {
		pulls = append(pulls, s.AddOp(sched.Op{Rank: r, Mode: sched.ModeKnem, Src: data[0], Dst: data[r], Bytes: size, Deps: []sched.OpID{first}}))
	}
	prev := first
	for r := 1; r < n; r++ {
		prev = s.AddOp(sched.Op{Rank: 0, Kind: sched.OpReduce, Src: data[r], Dst: sum, Bytes: size,
			Deps: []sched.OpID{pulls[r-1], prev}})
	}
	return s, data, sum
}

// TestManyRanksBlockedOnOneOp runs the fan schedule repeatedly on ONE set
// of wake channels and ONE restarted Progress, the way a communicator reuses
// its members' channels and its plan instance across collectives, with every
// channel pre-loaded with a stale token: leftover tokens may only cost a
// re-check, never a lost or early wake-up, and a completion word left set by
// the previous run must not let an op skip its wait. Run with -race: the
// completion word is also the only thing ordering a pull after the write it
// depends on.
func TestManyRanksBlockedOnOneOp(t *testing.T) {
	const n, size = 32, 256
	s, data, sum := fanSchedule(n, size)
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx.Waiters(0)); got != n-1 {
		t.Fatalf("op 0 has %d waiters, want %d", got, n-1)
	}
	wake := make([]chan struct{}, n)
	for r := range wake {
		wake[r] = make(chan struct{}, 1)
	}
	xor := func(dst, src []byte) {
		for i := range dst {
			dst[i] ^= src[i]
		}
	}
	var p Progress // one Progress restarted per iteration, as the runtime keeps one per plan instance
	for iter := 0; iter < 200; iter++ {
		for r := range wake {
			select {
			case wake[r] <- struct{}{}: // stale token from "the previous collective"
			default:
			}
		}
		bufs := Alloc(s)
		seed, _ := s.FindBuffer(0, "seed")
		msg := pattern(iter, size)
		copy(bufs.Bytes(seed), msg)
		p.Start(idx, wake)
		h := &plainHooks{ctx: context.Background(), b: bufs, combine: xor}
		errs := make(chan error, n)
		for r := 0; r < n; r++ {
			go func(rank int) { errs <- p.RunRank(rank, h) }(r)
		}
		for r := 0; r < n; r++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(bufs.Bytes(data[r]), msg) {
				t.Fatalf("iter %d: rank %d holds wrong data", iter, r)
			}
		}
		want := make([]byte, size)
		for r := 1; r < n; r++ {
			xor(want, msg)
		}
		if !bytes.Equal(bufs.Bytes(sum), want) {
			t.Fatalf("iter %d: fan-in combined before its dependencies completed", iter)
		}
		for id := range s.Ops {
			if !p.Done(sched.OpID(id)) {
				t.Fatalf("iter %d: op %d not marked done", iter, id)
			}
		}
	}
}

// TestRunUsesOneGoroutinePerRank pins the driver's shape: a schedule with
// thousands of ops on two ranks must not spawn a goroutine per op. The
// combiner observes the goroutine count from inside the run.
func TestRunUsesOneGoroutinePerRank(t *testing.T) {
	s := sched.New(2)
	a, b := s.AddBuffer(0, "a", 8), s.AddBuffer(1, "b", 8)
	prev := s.AddOp(sched.Op{Rank: 0, Kind: sched.OpReduce, Src: a, Dst: a, Bytes: 8})
	for i := 1; i < 4000; i++ {
		buf := a
		if i%2 == 1 {
			buf = b
		}
		prev = s.AddOp(sched.Op{Rank: i % 2, Kind: sched.OpReduce, Src: buf, Dst: buf, Bytes: 8, Deps: []sched.OpID{prev}})
	}
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	err := RunReduce(s, Alloc(s), func(dst, src []byte) {
		if g := int64(runtime.NumGoroutine() - base); g > peak.Load() {
			peak.Store(g)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 8 {
		t.Fatalf("run of a 2-rank schedule had %d extra goroutines alive", peak.Load())
	}
}
