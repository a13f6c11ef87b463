package baseline

import (
	"bytes"
	"testing"

	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

func pattern(rank int, n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((rank*197 + i*11 + 5) % 249)
	}
	return out
}

func runBcast(t *testing.T, alg BcastAlgorithm, n, root int, size, seg int64, cfg TransportConfig) {
	t.Helper()
	s, err := CompileBcast(alg, n, root, size, seg, cfg)
	if err != nil {
		t.Fatalf("%v n=%d root=%d size=%d: %v", alg, n, root, size, err)
	}
	bufs := exec.Alloc(s)
	rootBuf, ok := s.FindBuffer(root, "data")
	if !ok {
		t.Fatal("root data buffer missing")
	}
	msg := pattern(root, size)
	copy(bufs.Bytes(rootBuf), msg)
	if err := exec.Run(s, bufs); err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	for r := 0; r < n; r++ {
		id, ok := s.FindBuffer(r, "data")
		if !ok {
			t.Fatalf("rank %d data buffer missing", r)
		}
		if !bytes.Equal(bufs.Bytes(id), msg) {
			t.Fatalf("%v n=%d root=%d size=%d seg=%d: rank %d received wrong data",
				alg, n, root, size, seg, r)
		}
	}
}

func TestBcastAlgorithmsMoveRightBytes(t *testing.T) {
	cfgs := map[string]TransportConfig{"smknem": SMKnemBTL(), "nemesis": NemesisSM()}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			for _, alg := range []BcastAlgorithm{BcastBinomial, BcastChain} {
				runBcast(t, alg, 16, 0, 512, 0, cfg)
				runBcast(t, alg, 16, 5, 100000, 4096, cfg)
				runBcast(t, alg, 48, 13, 65536, 32<<10, cfg)
				runBcast(t, alg, 7, 3, 9999, 0, cfg)
				runBcast(t, alg, 1, 0, 64, 0, cfg)
				runBcast(t, alg, 2, 1, 8192, 0, cfg)
			}
			runBcast(t, BcastScatterRecDoubling, 16, 0, 1<<20, 0, cfg)
			runBcast(t, BcastScatterRecDoubling, 16, 9, 123457, 0, cfg)
			runBcast(t, BcastScatterRing, 16, 0, 1<<20, 0, cfg)
			runBcast(t, BcastScatterRing, 48, 21, 300000, 0, cfg)
			runBcast(t, BcastScatterRing, 12, 7, 500, 0, cfg)
		})
	}
}

func TestVanDeGeijnTinyMessage(t *testing.T) {
	// size < n stresses the zero-length block handling in scatter and the
	// ring allgather.
	runBcast(t, BcastScatterRing, 16, 0, 5, 0, NemesisSM())
	runBcast(t, BcastScatterRecDoubling, 16, 3, 5, 0, NemesisSM())
}

func TestRecDoublingRejectsNonPow2(t *testing.T) {
	if _, err := CompileBcast(BcastScatterRecDoubling, 12, 0, 4096, 0, NemesisSM()); err == nil {
		t.Error("recursive doubling accepted 12 ranks")
	}
	if _, err := CompileAllgather(AllgatherRecDoubling, 48, 4096, SMKnemBTL()); err == nil {
		t.Error("recdbl allgather accepted 48 ranks")
	}
}

func runAllgather(t *testing.T, alg AllgatherAlgorithm, n int, block int64, cfg TransportConfig) {
	t.Helper()
	s, err := CompileAllgather(alg, n, block, cfg)
	if err != nil {
		t.Fatalf("%v n=%d block=%d: %v", alg, n, block, err)
	}
	bufs := exec.Alloc(s)
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
	if err := exec.Run(s, bufs); err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	for r := 0; r < n; r++ {
		id, ok := s.FindBuffer(r, "recv")
		if !ok {
			t.Fatalf("rank %d recv buffer missing", r)
		}
		if !bytes.Equal(bufs.Bytes(id), want) {
			t.Fatalf("%v n=%d block=%d: rank %d gathered wrong data", alg, n, block, r)
		}
	}
}

func TestAllgatherAlgorithmsGatherEverything(t *testing.T) {
	for name, cfg := range map[string]TransportConfig{"smknem": SMKnemBTL(), "nemesis": NemesisSM()} {
		t.Run(name, func(t *testing.T) {
			for _, alg := range []AllgatherAlgorithm{AllgatherRing, AllgatherBruck} {
				runAllgather(t, alg, 48, 512, cfg)
				runAllgather(t, alg, 48, 8192, cfg)
				runAllgather(t, alg, 5, 1000, cfg)
				runAllgather(t, alg, 1, 64, cfg)
				runAllgather(t, alg, 2, 4096, cfg)
				runAllgather(t, alg, 3, 100, cfg)
			}
			runAllgather(t, AllgatherRecDoubling, 16, 512, cfg)
			runAllgather(t, AllgatherRecDoubling, 16, 65536, cfg)
			runAllgather(t, AllgatherRecDoubling, 2, 10, cfg)
			runAllgather(t, AllgatherRecDoubling, 64, 128, cfg)
		})
	}
}

func TestBinomialTreeShape(t *testing.T) {
	tr, err := BinomialTree(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Classic binomial over 8 ranks: root's children are 4, 2, 1 (farthest
	// first); 4's children 6, 5; 2's child 3; 6's child 7.
	wantChildren := map[int][]int{0: {4, 2, 1}, 4: {6, 5}, 2: {3}, 6: {7}}
	for r, want := range wantChildren {
		got := tr.Children[r]
		if len(got) != len(want) {
			t.Fatalf("children of %d = %v, want %v", r, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("children of %d = %v, want %v", r, got, want)
			}
		}
	}
	if tr.Depth() != 3 {
		t.Errorf("depth = %d, want 3", tr.Depth())
	}
}

func TestBinomialTreeRotatedRoot(t *testing.T) {
	tr, err := BinomialTree(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root != 3 {
		t.Fatalf("root = %d", tr.Root)
	}
	// Virtual rank structure shifts by the root: vrank 4 is rank 7.
	if tr.Parent[7] != 3 {
		t.Errorf("parent of rank 7 = %d, want 3", tr.Parent[7])
	}
}

func TestFig1BinomialCriticalPathCrossesSockets(t *testing.T) {
	// The paper's Fig. 1: pairs (0,1), (2,4), (3,6), (5,7) are placed on
	// the four sockets of a quad-socket dual-core node. The binomial
	// broadcast tree's critical path P0 → P4 → P6 → P7 then crosses
	// sockets on every edge — the mismatch the paper opens with.
	topo, err := hwtopo.Build(hwtopo.Spec{
		Name:             "fig1",
		Boards:           1,
		SocketsPerBoard:  4,
		DiesPerSocket:    1,
		CoresPerDie:      2,
		SharedCacheLevel: 2,
		SharedCacheSize:  4 << 20,
		MemPerNUMA:       8 << 30,
		OSNumbering:      hwtopo.OSPhysical,
	})
	if err != nil {
		t.Fatal(err)
	}
	// rank → core: socket0 {P0,P1}, socket1 {P2,P4}, socket2 {P3,P6},
	// socket3 {P5,P7}.
	coreOf := []int{0, 1, 2, 4, 3, 6, 5, 7}
	m := distance.NewMatrix(topo, coreOf)
	tr, err := BinomialTree(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The critical path is the chain of last-children: 0 → 4 → 6 → 7.
	path := []int{0, tr.Children[0][0], tr.Children[4][0], tr.Children[6][0]}
	if path[1] != 4 || path[2] != 6 || path[3] != 7 {
		t.Fatalf("binomial critical path = %v, want [0 4 6 7]", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if d := m.At(path[i], path[i+1]); d < distance.CrossSocketSameMC {
			t.Errorf("edge %d→%d distance = %d, want cross-socket", path[i], path[i+1], d)
		}
	}
	// The distance-aware tree over the same placement never chains two
	// cross-socket hops: its depth at the socket level is 1.
	dtree, err := core.BuildBroadcastTree(m, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crossEdges := dtree.EdgesAtWeight(distance.CrossSocketSameMC)
	if crossEdges != 3 {
		t.Errorf("distance-aware tree cross-socket edges = %d, want 3 (one per non-root socket)", crossEdges)
	}
	for r := 0; r < 8; r++ {
		hops := 0
		cur := r
		for dtree.Parent[cur] != -1 {
			if m.At(cur, dtree.Parent[cur]) >= distance.CrossSocketSameMC {
				hops++
			}
			cur = dtree.Parent[cur]
		}
		if hops > 1 {
			t.Errorf("distance-aware path of rank %d crosses sockets %d times", r, hops)
		}
	}
}

func TestChainTreeShape(t *testing.T) {
	ch, err := ChainTree(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// vranks 0..4 = ranks 2,3,4,0,1 chained.
	wantParent := map[int]int{3: 2, 4: 3, 0: 4, 1: 0}
	for r, p := range wantParent {
		if ch.Parent[r] != p {
			t.Errorf("chain parent of %d = %d, want %d", r, ch.Parent[r], p)
		}
	}
	if ch.Depth() != 4 {
		t.Errorf("chain depth = %d, want 4", ch.Depth())
	}
}

func TestDecisionFunctions(t *testing.T) {
	// Tuned: binomial below 32 KB, segmented binomial above with a larger
	// segment from 512 KB.
	if alg, seg := TunedBcastDecision(48, 1024); alg != BcastBinomial || seg != 0 {
		t.Errorf("tuned 1KB = %v seg %d", alg, seg)
	}
	if alg, seg := TunedBcastDecision(48, 128<<10); alg != BcastBinomial || seg != 32<<10 {
		t.Errorf("tuned 128KB = %v seg %d", alg, seg)
	}
	if alg, seg := TunedBcastDecision(48, 4<<20); alg != BcastBinomial || seg != 128<<10 {
		t.Errorf("tuned 4MB = %v seg %d", alg, seg)
	}
	if alg, _ := TunedBcastDecision(2, 4<<20); alg != BcastChain {
		t.Errorf("tuned n=2 = %v", alg)
	}
	// MPICH: binomial below 12 KB, scatter+recdbl mid (pow2),
	// scatter+ring large.
	if alg, _ := MPICHBcastDecision(16, 4096); alg != BcastBinomial {
		t.Errorf("mpich 4KB = %v", alg)
	}
	if alg, _ := MPICHBcastDecision(16, 128<<10); alg != BcastScatterRecDoubling {
		t.Errorf("mpich 128KB = %v", alg)
	}
	if alg, _ := MPICHBcastDecision(16, 2<<20); alg != BcastScatterRing {
		t.Errorf("mpich 2MB = %v", alg)
	}
	if alg, _ := MPICHBcastDecision(12, 128<<10); alg != BcastScatterRing {
		t.Errorf("mpich non-pow2 128KB = %v", alg)
	}
	// Tuned allgather: bruck small, recdbl mid pow2, ring large.
	if alg := TunedAllgatherDecision(48, 512); alg != AllgatherBruck {
		t.Errorf("allgather 512B = %v", alg)
	}
	if alg := TunedAllgatherDecision(16, 8192); alg != AllgatherRecDoubling {
		t.Errorf("allgather pow2 8KB = %v", alg)
	}
	if alg := TunedAllgatherDecision(48, 8192); alg != AllgatherRing {
		t.Errorf("allgather 48×8KB = %v", alg)
	}
	if alg := TunedAllgatherDecision(48, 1<<20); alg != AllgatherRing {
		t.Errorf("allgather 1MB = %v", alg)
	}
}

func TestTransportModes(t *testing.T) {
	// Below the eager limit the SM/KNEM BTL double-copies (two shm ops per
	// fragment); at or above it, it single-copies (one 0-byte cookie op +
	// one knem copy).
	s := sched.New(2)
	a := s.AddBuffer(0, "a", 64<<10)
	b := s.AddBuffer(1, "b", 64<<10)
	tp := NewTransport(s, SMKnemBTL())
	if _, err := tp.Send(0, 1, a, 0, b, 0, 1024, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.Ops) != 2 || s.Ops[0].Mode != sched.ModeShm || s.Ops[1].Mode != sched.ModeShm {
		t.Fatalf("eager send ops = %+v", s.Ops)
	}
	if s.Ops[0].Rank != 0 || s.Ops[1].Rank != 1 {
		t.Fatalf("eager send executors = %d,%d", s.Ops[0].Rank, s.Ops[1].Rank)
	}
	before := len(s.Ops)
	if _, err := tp.Send(0, 1, a, 0, b, 0, 16<<10, nil); err != nil {
		t.Fatal(err)
	}
	knemOps := s.Ops[before:]
	if len(knemOps) != 2 {
		t.Fatalf("knem send emitted %d ops", len(knemOps))
	}
	if knemOps[0].Mode != sched.ModeKnem || knemOps[0].Bytes != 0 || knemOps[0].Rank != 0 {
		t.Errorf("cookie op = %+v", knemOps[0])
	}
	if knemOps[1].Mode != sched.ModeKnem || knemOps[1].Bytes != 16<<10 || knemOps[1].Rank != 1 {
		t.Errorf("pull op = %+v", knemOps[1])
	}
	// Large eager sends fragment.
	s2 := sched.New(2)
	a2 := s2.AddBuffer(0, "a", 64<<10)
	b2 := s2.AddBuffer(1, "b", 64<<10)
	tp2 := NewTransport(s2, NemesisSM())
	if _, err := tp2.Send(0, 1, a2, 0, b2, 0, 64<<10, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Ops); got != 4 {
		t.Errorf("fragmented 64KB shm send ops = %d, want 4 (2 fragments × 2 legs)", got)
	}
	if _, err := tp2.Send(0, 1, a2, 0, b2, 0, 0, nil); err == nil {
		t.Error("zero-byte send accepted")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileBcast(BcastBinomial, 0, 0, 1024, 0, SMKnemBTL()); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := CompileBcast(BcastBinomial, 8, 9, 1024, 0, SMKnemBTL()); err == nil {
		t.Error("bad root accepted")
	}
	if _, err := CompileBcast(BcastBinomial, 8, 0, 0, 0, SMKnemBTL()); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := CompileAllgather(AllgatherRing, 0, 1024, SMKnemBTL()); err == nil {
		t.Error("allgather n=0 accepted")
	}
	if _, err := CompileAllgather(AllgatherRing, 8, 0, SMKnemBTL()); err == nil {
		t.Error("allgather block=0 accepted")
	}
	if _, err := BinomialTree(0, 0); err == nil {
		t.Error("binomial n=0 accepted")
	}
}

func TestCompileTreeBcastOverDistanceTree(t *testing.T) {
	// CompileTreeBcast is generic: it must also accept a distance-aware
	// tree (used by the ablation comparing transports over one topology).
	topo := hwtopo.NewZoot()
	m := distance.NewMatrix(topo, identity(16))
	dtree, err := core.BuildBroadcastTree(m, 0, core.TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CompileTreeBcast(dtree, 8192, 0, SMKnemBTL())
	if err != nil {
		t.Fatal(err)
	}
	bufs := exec.Alloc(s)
	id, _ := s.FindBuffer(0, "data")
	msg := pattern(0, 8192)
	copy(bufs.Bytes(id), msg)
	if err := exec.Run(s, bufs); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		rid, _ := s.FindBuffer(r, "data")
		if !bytes.Equal(bufs.Bytes(rid), msg) {
			t.Fatalf("rank %d wrong data", r)
		}
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
