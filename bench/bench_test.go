package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/hwtopo"
)

func TestQuartileEstimators(t *testing.T) {
	ten := []float64{9, 3, 7, 1, 8, 2, 10, 4, 6, 5}
	if got := lowerQuartile(ten); got != 3 {
		t.Errorf("lowerQuartile of 1..10 = %v, want the 3rd smallest (3)", got)
	}
	if got := upperQuartile(ten); got != 8 {
		t.Errorf("upperQuartile of 1..10 = %v, want the 3rd largest (8)", got)
	}
	if got := lowerQuartile([]float64{5, 1, 4, 2, 3}); got != 2 {
		t.Errorf("lowerQuartile of 1..5 = %v, want the 2nd smallest (2)", got)
	}
	if got := lowerQuartile([]float64{7}); got != 7 {
		t.Errorf("lowerQuartile of one sample = %v, want 7", got)
	}
	if got := median(ten); got != 5 {
		t.Errorf("median of 1..10 = %v, want 5 (nearest rank)", got)
	}
	if got := percentile(ten, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90: ten samples lie beyond it", got)
	}
}

// Ten blocks of four rounds; block i has latencies around (i+1)·100 µs,
// except that interference doubled blocks 0 and 5. The estimate must read
// the quiet blocks.
func TestBlockEstimate(t *testing.T) {
	var blocks []block
	for i := 0; i < 10; i++ {
		base := 1000.0 + float64(i)
		if i == 0 || i == 5 {
			base *= 2
		}
		blocks = append(blocks, block{
			lat:   []float64{base, base + 10, base + 20, base + 400},
			cpuUS: 4 * 2 * base,
		})
	}
	e := estimate(blocks)
	// Block medians (nearest rank of 4: the 2nd): base+10. Quiet blocks
	// give 1011,1012,1013,1014,1016,...; the 3rd smallest is 1013.
	if e.p50us != 1013 {
		t.Errorf("p50 = %v, want 1013", e.p50us)
	}
	// Block p90 (nearest rank of 4: the 4th): base+400 → 3rd smallest 1403.
	if e.p90us != 1403 {
		t.Errorf("p90 = %v, want 1403", e.p90us)
	}
	// cpu per round = 2·base → 3rd smallest 2·1003.
	if e.cpuUSPerRound != 2006 {
		t.Errorf("cpu per round = %v, want 2006", e.cpuUSPerRound)
	}
	// rate = 4 / Σlat; the fastest three blocks are 1, 2, 3 → the 3rd
	// largest rate is block 3's.
	want := 4 / ((4*1003.0 + 430) / 1e6)
	if diff := e.roundsPerS - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rounds/s = %v, want %v", e.roundsPerS, want)
	}
	if e.blocks != 10 || e.rounds != 40 {
		t.Errorf("blocks, rounds = %d, %d, want 10, 40", e.blocks, e.rounds)
	}
}

func TestPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "x", Better: "lower", Bound: 0.10}
	tight := []float64{100, 101, 102, 100, 101, 99, 100, 101, 100, 102}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(tight))
		for i, v := range tight {
			out[i] = v * f
		}
		return out
	}
	if v, _ := verdict(tight, shifted(1.03), lower); v != "same" {
		t.Errorf("3%% worse within a 10%% bound: %s, want same", v)
	}
	if v, _ := verdict(tight, shifted(1.2), lower); v != "worse" {
		t.Errorf("20%% worse: %s, want worse", v)
	}
	if v, _ := verdict(tight, shifted(0.7), lower); v != "same" {
		t.Errorf("30%% better: %s, want same", v)
	}
	wide := []float64{80, 90, 100, 110, 120, 85, 95, 105, 115, 100}
	if v, _ := verdict(wide, wide, lower); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", v)
	}
	higher := metricSpec{Name: "r", Better: "higher", Bound: 0.10}
	if v, _ := verdict(tight, shifted(0.8), higher); v != "worse" {
		t.Errorf("a rate 20%% lower: %s, want worse", v)
	}
}

// The oracle against a brute-force reading of each collective's
// definition, on a reordered group so membership matters.
func TestOracleDefinitions(t *testing.T) {
	const seed, cell, B = 7, 3, 512
	group := []int{5, 2, 9, 0}
	n := len(group)
	input := func(c cellSpec, r int) []byte {
		b := make([]byte, c.inputLen(n, r))
		fillPayload(b, streamKey(seed, cell, group[r]))
		return b
	}
	for _, c := range []cellSpec{
		{Kind: kindBcast, Bytes: B, Root: 2}, {Kind: kindAllgather, Bytes: B},
		{Kind: kindGather, Bytes: B, Root: 1}, {Kind: kindScatter, Bytes: B, Root: 3},
		{Kind: kindAlltoall, Bytes: B}, {Kind: kindReduce, Bytes: B, Root: 1}, {Kind: kindAllreduce, Bytes: B},
	} {
		for me := 0; me < n; me++ {
			var want []byte
			switch c.Kind {
			case kindBcast:
				want = input(c, c.Root)
			case kindAllgather, kindGather:
				if c.Kind == kindGather && me != c.Root {
					break
				}
				for r := 0; r < n; r++ {
					want = append(want, input(c, r)...)
				}
			case kindScatter:
				want = input(c, c.Root)[me*B : (me+1)*B]
			case kindAlltoall:
				for r := 0; r < n; r++ {
					want = append(want, input(c, r)[me*B:(me+1)*B]...)
				}
			case kindReduce, kindAllreduce:
				if c.Kind == kindReduce && me != c.Root {
					break
				}
				want = make([]byte, B)
				for r := 0; r < n; r++ {
					in := input(c, r)
					for i := 0; i < B; i += 8 {
						s := binary.LittleEndian.Uint64(want[i:]) + binary.LittleEndian.Uint64(in[i:])
						binary.LittleEndian.PutUint64(want[i:], s)
					}
				}
			}
			got, _ := expected(c, seed, cell, group, me)
			if !bytes.Equal(got, want) {
				t.Errorf("%s rank %d: oracle disagrees with the definition", c.name(), me)
			}
		}
	}
}

func TestCheckOutputCatchesStaleAndCorrupt(t *testing.T) {
	const B, round = 1024, 9
	key := streamKey(1, 0, 0)
	want := make([]byte, B)
	fillPayload(want, key)
	fresh := func(r uint64) []byte {
		b := append([]byte(nil), want...)
		stamp(b, key, stampStride(B), r)
		return b
	}
	if err := checkOutput(fresh(round), want, stampStride(B), 1, round); err != nil {
		t.Errorf("a correct buffer was rejected: %v", err)
	}
	if err := checkOutput(fresh(round-1), want, stampStride(B), 1, round); err == nil {
		t.Error("last round's bytes were accepted")
	}
	bad := fresh(round)
	bad[300] ^= 1
	if err := checkOutput(bad, want, stampStride(B), 1, round); err == nil {
		t.Error("a flipped payload bit was accepted")
	}
	if err := checkOutput(fresh(round)[:B-8], want, stampStride(B), 1, round); err == nil {
		t.Error("a short buffer was accepted")
	}
}

// allKinds is one cell of every kind the benchmark drives.
func allKinds(n int) []cellSpec {
	far := ad(kindBcast, 4*kib)
	far.Root = n / 2
	return []cellSpec{
		{Kind: kindBarrier}, ad(kindBcast, 64), far, kn(kindBcast, 64*kib),
		ad(kindAllgather, 64), kn(kindAllgather, 4*kib), ad(kindReduce, kib), ad(kindAllreduce, 64), ad(kindAllreduce, 16*kib),
		kn(kindGather, kib), kn(kindScatter, kib), kn(kindAlltoall, 256),
		kn(kindBcastResilient, 4*kib), kn(kindAllgatherResilient, kib),
	}
}

// Every collective, on the world communicator and on split communicators,
// verified on every rank.
func TestLiveOracle(t *testing.T) {
	for _, n := range []int{4, 48} {
		bind, err := binding.CrossSocket(hwtopo.NewIG(), n)
		if err != nil {
			t.Fatal(err)
		}
		slots := []slotSpec{{cells: allKinds(n)}, {colors: 1, cells: churnCells(n)}, {colors: 2, cells: churnCells(n / 2)}}
		in, err := buildLive(bind, slots, 42, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.base = checkEvery - 2 // the second round is one every rank verifies
		ph := &phase{maxRounds: 2, blockRounds: 2}
		if err := in.run(ph); err != nil {
			t.Fatalf("%d ranks: %v", n, err)
		}
		attempted, failed := in.counts()
		if failed != 0 || attempted != int64(2*in.opsPerRound()) {
			t.Errorf("%d ranks: attempted %d failed %d, want %d and 0", n, attempted, failed, 2*in.opsPerRound())
		}
		if got := len(ph.rounds()); got != 2 {
			t.Errorf("%d ranks: %d samples of 2 rounds", n, got)
		}
		in.close()
	}
}

// An output that differs from the oracle's is counted as a failed op on
// every rank that checks it, and the round's time is not a sample.
func TestLiveOracleCountsMismatch(t *testing.T) {
	bind, err := binding.CrossSocket(hwtopo.NewIG(), 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildLive(bind, []slotSpec{{cells: []cellSpec{ad(kindAllgather, 64), ad(kindBcast, kib)}}}, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	want := in.slots[0].want[0][0] // the allgather's expected bytes, shared by all ranks
	want[len(want)-1] ^= 0xff
	ph := &phase{maxRounds: 1, blockRounds: 1}
	if err := in.run(ph); err != nil {
		t.Fatal(err)
	}
	// Rank 0 and the last rank verify every round.
	if _, failed := in.counts(); failed != 2 {
		t.Errorf("%d failures counted, want 2", failed)
	}
	if got := len(ph.rounds()); got != 0 {
		t.Errorf("the failed round left %d samples", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	var a, b, c splitPlan
	makeSplitPlan(11, 5, 1, 48, 3, &a)
	makeSplitPlan(11, 5, 1, 48, 3, &b)
	makeSplitPlan(12, 5, 1, 48, 3, &c)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, round and slot gave different colours or keys")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("another seed gave the same plan")
	}
	count := make(map[int]int)
	seen := make(map[int]bool)
	for r := range a.key {
		count[a.color[r]]++
		seen[a.key[r]] = true
	}
	if len(seen) != 48 || count[0] != 16 || count[1] != 16 || count[2] != 16 {
		t.Errorf("plan is not a permutation with balanced colours: %v", count)
	}
	group, me := a.group(7)
	if len(group) != 16 || group[me] != 7 {
		t.Errorf("group of rank 7: %v at %d", group, me)
	}
	for i := 1; i < len(group); i++ {
		if a.key[group[i-1]] >= a.key[group[i]] {
			t.Errorf("group is not ordered by key: %v", group)
		}
	}

	p1, p2 := make([]byte, 4096), make([]byte, 4096)
	fillPayload(p1, streamKey(3, 2, 17))
	fillPayload(p2, streamKey(3, 2, 17))
	if !bytes.Equal(p1, p2) {
		t.Error("same seed gave different payloads")
	}
	fillPayload(p2, streamKey(4, 2, 17))
	if bytes.Equal(p1, p2) {
		t.Error("another seed gave the same payload")
	}

	for _, w := range workloads {
		if w.points == nil {
			continue
		}
		s1, err := buildSim(w.points, 9)
		if err != nil {
			t.Fatal(err)
		}
		s2, _ := buildSim(w.points, 9)
		if !reflect.DeepEqual(s1.steps, s2.steps) {
			t.Error("same seed gave a different sweep order")
		}
	}
}

// loadBenchmarkJSON reads the contract next to this package.
func loadBenchmarkJSON(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The tables in spec.go and BENCHMARK.json must say the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", spec.PerLayer, perLayerMetrics)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q, spec %q", i, w.Name, workloads[i].name)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var seconds int
	if err := json.Unmarshal(top["run_seconds"], &seconds); err != nil || seconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", seconds, defaultSeconds)
	}
}

// short returns a copy of the workload cut down to two-round blocks.
func short(w workloadSpec) *workloadSpec {
	w.blockRounds, w.warmRounds = 2, 1
	return &w
}

// A smoke run of every workload: a couple of rounds, every end-to-end
// metric exactly once, nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res, err := short(w).measure(3, 0.001)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d failed %d", w.name, res.attempted, res.failed)
		}
		checkMetricNames(t, w.name, res, endToEndMetrics)
	}
}

// A traced run reports every per-layer metric exactly once. It costs a
// few seconds per workload, so -short checks one workload only.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "sim-sweep" {
			continue
		}
		dir := t.TempDir()
		res, err := short(w).measureTraced(3, 0.001, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d ops failed", w.name, res.failed)
		}
		checkMetricNames(t, w.name, res, perLayerMetrics)
		files, _ := os.ReadDir(dir)
		if len(files) != 1 {
			t.Errorf("%s: %d span files written, want 1", w.name, len(files))
		}
	}
}

func checkMetricNames(t *testing.T, workload string, res *result, table []metricSpec) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf, table); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int64                     `json:"attempted"`
		Failed    *int64                     `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: last output line is not the result object: %v", workload, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Errorf("%s: result object lacks correct, attempted or failed", workload)
	}
	if len(line.Metrics) != len(table) {
		t.Errorf("%s: %d metrics reported, the contract lists %d", workload, len(line.Metrics), len(table))
	}
	for _, m := range table {
		raw, ok := line.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		var got metric
		if err := json.Unmarshal(raw, &got); err != nil || got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}
