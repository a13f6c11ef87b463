package machine

import (
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

// pullSchedule builds one knem pull: rank `dst` copies `bytes` from rank
// `src`'s buffer.
func pullSchedule(n, src, dst int, bytes int64) *sched.Schedule {
	s := sched.New(n)
	bufs := make([]sched.BufID, n)
	for r := 0; r < n; r++ {
		bufs[r] = s.AddBuffer(r, "data", bytes)
	}
	s.AddOp(sched.Op{Rank: dst, Mode: sched.ModeKnem, Src: bufs[src], Dst: bufs[dst], Bytes: bytes})
	return s
}

func mustBinding(t *testing.T, topo *hwtopo.Topology, name string, n int) *binding.Binding {
	t.Helper()
	b, err := binding.ByName(topo, name, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func simulate(t *testing.T, b *binding.Binding, p Params, s *sched.Schedule) float64 {
	t.Helper()
	res, err := Simulate(b, p, s)
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

func TestLocalFasterThanRemoteOnIG(t *testing.T) {
	ig := hwtopo.NewIG()
	b := mustBinding(t, ig, "contiguous", 48)
	p := IGParams()
	const bytes = 4 << 20
	// A single uncontended pull is engine-bound whatever the distance (a
	// deliberate flow-model simplification); distance must not make it
	// FASTER, and the rate must sit at single-core memcpy speed.
	intra := simulate(t, b, p, pullSchedule(48, 0, 1, bytes))  // same socket
	board := simulate(t, b, p, pullSchedule(48, 0, 7, bytes))  // cross socket, same board
	cross := simulate(t, b, p, pullSchedule(48, 0, 25, bytes)) // cross board
	if intra > board || board > cross {
		t.Errorf("pull times not monotone in distance: %.3g, %.3g, %.3g", intra, board, cross)
	}
	rate := float64(bytes) / intra
	if rate > p.CoreCopyBW*1.01 || rate < p.CoreCopyBW/4 {
		t.Errorf("single-pull rate %.3g B/s implausible vs core %.3g", rate, p.CoreCopyBW)
	}

	// Under contention the distance penalty appears: six ranks of socket 1
	// pulling freshly-written socket-local buffers (forwarding reads hit
	// the shared L3) beat six ranks pulling across the board from socket 0
	// (cache-ineligible, uplink + remote MC shared).
	const chunk = 1 << 20 // fits the 5MB L3
	mk := func(remote bool) *sched.Schedule {
		s := sched.New(48)
		bufs := make([]sched.BufID, 48)
		for r := 0; r < 48; r++ {
			bufs[r] = s.AddBuffer(r, "data", chunk)
		}
		for i := 0; i < 6; i++ {
			puller := 6 + i // socket 1
			src := 6 + (i+1)%6
			if remote {
				src = 24 + i // board 1, socket 4
			}
			warm := s.AddOp(sched.Op{Rank: src, Mode: sched.ModeLocal, Src: bufs[src], Dst: bufs[src], Bytes: chunk})
			s.AddOp(sched.Op{Rank: puller, Mode: sched.ModeShm, Src: bufs[src], Dst: bufs[puller], Bytes: chunk,
				Deps: []sched.OpID{warm}})
		}
		return s
	}
	local6 := simulate(t, b, p, mk(false))
	remote6 := simulate(t, b, p, mk(true))
	if !(remote6 > local6*1.2) {
		t.Errorf("6 contended remote pulls %.4gs not ≥1.2× warmed local pulls %.4gs", remote6, local6)
	}
}

func TestFSBContentionOnZoot(t *testing.T) {
	// Four concurrent local copies on ONE Zoot socket share that socket's
	// FSB; spread across four sockets they only share the northbridge.
	z := hwtopo.NewZoot()
	b := mustBinding(t, z, "contiguous", 16)
	p := ZootParams()
	const bytes = 8 << 20
	mk := func(ranks []int) *sched.Schedule {
		s := sched.New(16)
		for r := 0; r < 16; r++ {
			s.AddBuffer(r, "data", bytes)
		}
		for _, r := range ranks {
			id, _ := s.FindBuffer(r, "data")
			s.AddOp(sched.Op{Rank: r, Mode: sched.ModeLocal, Src: id, Dst: id, Bytes: bytes})
		}
		return s
	}
	packed := simulate(t, b, p, mk([]int{0, 1, 2, 3}))  // all socket 0
	spread := simulate(t, b, p, mk([]int{0, 4, 8, 12})) // one per socket
	if !(spread < packed) {
		t.Errorf("spread copies %.4gs should beat FSB-contended packed copies %.4gs", spread, packed)
	}
}

func TestMCHotspotBoundsLinearBroadcastOnZoot(t *testing.T) {
	// 15 concurrent pulls from the root's 8MB buffer (too large to cache)
	// plus 15 write streams (2 transactions each) all cross the single
	// northbridge: aggregate delivered bandwidth ≈ MCBandwidth/3.
	z := hwtopo.NewZoot()
	b := mustBinding(t, z, "contiguous", 16)
	p := ZootParams()
	const bytes = 8 << 20
	m := distance.NewMatrix(z, b.Cores())
	tree, err := core.BuildBroadcastTree(m, 0, core.TreeOptions{Levels: core.FlatLevels})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.CompileBroadcast(tree, bytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	makespan := simulate(t, b, p, s)
	agg := 15 * float64(bytes) / makespan
	ideal := p.MCBandwidth / 3
	if agg > ideal*1.05 {
		t.Errorf("aggregate %.3g B/s exceeds MC bound %.3g", agg, ideal)
	}
	if agg < ideal*0.75 {
		t.Errorf("aggregate %.3g B/s far below MC bound %.3g — contention model too pessimistic", agg, ideal)
	}
}

func TestKnemLatencies(t *testing.T) {
	ig := hwtopo.NewIG()
	b := mustBinding(t, ig, "contiguous", 2)
	p := IGParams()
	s := sched.New(2)
	a := s.AddBuffer(0, "a", 64)
	s.AddOp(sched.Op{Rank: 0, Mode: sched.ModeKnem, Src: a, Dst: a, Bytes: 0})
	got := simulate(t, b, p, s)
	if got != p.KnemSetupLat {
		t.Errorf("cookie op time = %g, want %g", got, p.KnemSetupLat)
	}
	// A 1-byte knem copy costs at least the copy trap latency.
	s2 := pullSchedule(2, 0, 1, 1)
	if got := simulate(t, b, p, s2); got < p.KnemCopyLatency {
		t.Errorf("tiny knem copy %g below trap latency %g", got, p.KnemCopyLatency)
	}
}

func TestNotifyLatencyGrowsWithDistance(t *testing.T) {
	ig := hwtopo.NewIG()
	b := mustBinding(t, ig, "contiguous", 48)
	sess, err := NewSession(b, IGParams(), sched.New(48))
	if err != nil {
		t.Fatal(err)
	}
	same := sess.NotifyLatency(0, 1)   // distance 1
	boardN := sess.NotifyLatency(0, 6) // distance 5
	cross := sess.NotifyLatency(0, 24) // distance 6
	if !(same < boardN && boardN < cross) {
		t.Errorf("notify latencies not monotone: %g, %g, %g", same, boardN, cross)
	}
}

func TestCacheReuseSpeedsUpSharedCacheRead(t *testing.T) {
	z := hwtopo.NewZoot()
	b := mustBinding(t, z, "contiguous", 16)
	p := ZootParams()
	p.CacheModel = true
	const bytes = 256 << 10 // fits a 4MB L2
	mk := func(reader int) *sched.Schedule {
		s := sched.New(16)
		bufs := make([]sched.BufID, 16)
		for r := 0; r < 16; r++ {
			bufs[r] = s.AddBuffer(r, "data", bytes)
		}
		// Rank 0 writes its buffer (warms its die's L2), then the reader
		// pulls it.
		warm := s.AddOp(sched.Op{Rank: 0, Mode: sched.ModeLocal, Src: bufs[0], Dst: bufs[0], Bytes: bytes})
		s.AddOp(sched.Op{Rank: reader, Mode: sched.ModeShm, Src: bufs[0], Dst: bufs[reader], Bytes: bytes,
			Deps: []sched.OpID{warm}})
		return s
	}
	shared := simulate(t, b, p, mk(1)) // rank 1 shares rank 0's L2
	far := simulate(t, b, p, mk(4))    // rank 4 on another socket
	if !(shared < far) {
		t.Errorf("cache-shared read %.4gs should beat cross-socket read %.4gs", shared, far)
	}
	// With the cache model off, the die-sharing advantage disappears.
	p.CacheModel = false
	sharedOff := simulate(t, b, p, mk(1))
	farOff := simulate(t, b, p, mk(4))
	diff := farOff - sharedOff
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6+0.02*farOff {
		t.Errorf("off-cache times differ: %.4g vs %.4g", sharedOff, farOff)
	}
}

func TestWriteInvalidatesCachedSegment(t *testing.T) {
	z := hwtopo.NewZoot()
	b := mustBinding(t, z, "contiguous", 16)
	p := ZootParams()
	p.CacheModel = true
	const bytes = 256 << 10
	s := sched.New(16)
	bufs := make([]sched.BufID, 16)
	for r := 0; r < 16; r++ {
		bufs[r] = s.AddBuffer(r, "data", bytes)
	}
	// Rank 1 reads rank 0's buffer (now cached at dies of 0 and 1), then
	// rank 4 overwrites it; a second read by rank 1 must MISS.
	op0 := s.AddOp(sched.Op{Rank: 0, Mode: sched.ModeLocal, Src: bufs[0], Dst: bufs[0], Bytes: bytes})
	op1 := s.AddOp(sched.Op{Rank: 1, Mode: sched.ModeShm, Src: bufs[0], Dst: bufs[1], Bytes: bytes, Deps: []sched.OpID{op0}})
	op2 := s.AddOp(sched.Op{Rank: 4, Mode: sched.ModeShm, Src: bufs[4], Dst: bufs[0], Bytes: bytes, Deps: []sched.OpID{op1}})
	sess, err := NewSession(b, p, s)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the model manually in op order.
	for i := range s.Ops {
		op := &s.Ops[i]
		if op.ID == op2 {
			// Before the overwrite, rank 1 re-reading hits.
			probe := sched.Op{Rank: 1, Mode: sched.ModeShm, Src: bufs[0], Dst: bufs[1], Bytes: bytes}
			if _, hit := sess.cacheHit(&probe, &sess.model.ranks[1]); !hit {
				t.Fatal("expected cache hit before overwrite")
			}
		}
		sess.Observe(op)
	}
	probe := sched.Op{Rank: 1, Mode: sched.ModeShm, Src: bufs[0], Dst: bufs[1], Bytes: bytes}
	if _, hit := sess.cacheHit(&probe, &sess.model.ranks[1]); hit {
		t.Fatal("cache hit survived an overwrite by another socket")
	}
	_ = op1
}

func TestSessionValidation(t *testing.T) {
	ig := hwtopo.NewIG()
	b := mustBinding(t, ig, "contiguous", 4)
	if _, err := NewSession(b, IGParams(), sched.New(8)); err == nil {
		t.Error("rank-count mismatch accepted")
	}
	p := IGParams()
	p.BridgeBandwidth = 0
	if _, err := NewSession(b, p, sched.New(4)); err == nil {
		t.Error("multi-board without bridge accepted")
	}
	if _, err := ParamsFor("zoot"); err != nil {
		t.Error("zoot params missing")
	}
	if _, err := ParamsFor("ig"); err != nil {
		t.Error("ig params missing")
	}
	if _, err := ParamsFor("nope"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestCrossSocketBindingSlowsRankRing(t *testing.T) {
	// The mismatch phenomenon end-to-end: a rank-order ring of pulls is
	// much slower under the cross-socket binding than contiguous, while
	// the same traffic routed by the distance-aware ring is stable.
	ig := hwtopo.NewIG()
	p := IGParams()
	const bytes = 1 << 20
	mkRankRing := func(n int) *sched.Schedule {
		s := sched.New(n)
		bufs := make([]sched.BufID, n)
		for r := 0; r < n; r++ {
			bufs[r] = s.AddBuffer(r, "data", bytes)
		}
		for r := 0; r < n; r++ {
			s.AddOp(sched.Op{Rank: r, Mode: sched.ModeKnem, Src: bufs[(r+47)%48], Dst: bufs[r], Bytes: bytes})
		}
		return s
	}
	cont := simulate(t, mustBinding(t, ig, "contiguous", 48), p, mkRankRing(48))
	cross := simulate(t, mustBinding(t, ig, "crosssocket", 48), p, mkRankRing(48))
	if !(cross > cont*1.3) {
		t.Errorf("cross-socket ring %.4gs not ≥1.3× contiguous %.4gs — contention model too weak", cross, cont)
	}
}
