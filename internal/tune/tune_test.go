package tune

import (
	"reflect"
	"strings"
	"testing"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/hwtopo"
	"distcoll/internal/sched"
)

func matrixFor(t *testing.T, machineName, bindName string, n int) distance.Matrix {
	t.Helper()
	topo, err := hwtopo.ByName(machineName)
	if err != nil {
		t.Fatal(err)
	}
	b, err := binding.ByName(topo, bindName, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return distance.NewMatrix(topo, b.Cores())
}

func TestDecisionString(t *testing.T) {
	cases := []struct {
		d    Decision
		want string
	}{
		{Decision{Component: ComponentTuned}, "tuned"},
		{Decision{Component: ComponentMPICH}, "mpich2"},
		{Decision{Component: ComponentKNEM}, "knemcoll/hier"},
		{Decision{Component: ComponentKNEM, Linear: true}, "knemcoll/linear"},
		{Decision{Component: ComponentKNEM, Chunk: 65536}, "knemcoll/hier/chunk=65536"},
		{Decision{Component: ComponentKNEM, Tree: true}, "knemcoll/tree"},
		{Decision{Component: ComponentKNEM, Tree: true, Linear: true}, "knemcoll/tree/linear"},
		{Decision{Component: ComponentKNEM, Tree: true, Chunk: 65536}, "knemcoll/tree/chunk=65536"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.d, got, c.want)
		}
		if got := c.d.CacheKey(); got != c.want {
			t.Errorf("CacheKey(%+v) = %q, want %q", c.d, got, c.want)
		}
		if !c.d.Valid() {
			t.Errorf("Valid(%+v) = false", c.d)
		}
	}
	if (Decision{Component: "bogus"}).Valid() {
		t.Error("bogus component reported valid")
	}
	if (Decision{Component: ComponentKNEM, Chunk: -1}).Valid() {
		t.Error("negative chunk reported valid")
	}
	if (Decision{Component: ComponentTuned, Tree: true}).Valid() {
		t.Error("a tree allreduce under tuned reported valid: only knemcoll has one")
	}
}

// TestCacheKeyAllocatesNothing: the plan-cache variant and the traced name
// of every decision a warm call can carry — a fixed component, or the
// selector's choice, chunked or not — cost no allocation: an unchunked name
// is a constant string, a chunked one is formatted on its first use only.
// (Every name used to be formatted per call: three allocations on every
// warm knemcoll collective; a chunked one stayed at three per use, twice
// per call — the plan-cache variant and the plan_cache event.)
func TestCacheKeyAllocatesNothing(t *testing.T) {
	var sink string
	for _, d := range []Decision{
		{Component: ComponentKNEM},
		{Component: ComponentKNEM, Linear: true},
		{Component: ComponentKNEM, Tree: true},
		{Component: ComponentKNEM, Tree: true, Linear: true},
		{Component: ComponentTuned},
		{Component: ComponentMPICH},
		{Component: ComponentKNEM, Chunk: 64 << 10},
		{Component: ComponentKNEM, Tree: true, Chunk: 64 << 10},
		{Component: ComponentKNEM, Linear: true, Chunk: 12345},
	} {
		if a := testing.AllocsPerRun(100, func() { sink = d.CacheKey() }); a != 0 {
			t.Errorf("CacheKey(%+v) = %q allocates %v times per call, want 0", d, sink, a)
		}
		if a := testing.AllocsPerRun(100, func() { sink = d.String() }); a != 0 {
			t.Errorf("String(%+v) = %q allocates %v times per call, want 0", d, sink, a)
		}
	}
}

func TestFingerprintZoot(t *testing.T) {
	m := matrixFor(t, "zoot", "contiguous", 16)
	fp := FingerprintOf(m)
	if fp.Procs != 16 {
		t.Fatalf("procs = %d", fp.Procs)
	}
	if fp.MaxDist != distance.CrossSocketSameMC {
		t.Errorf("zoot max dist = %d, want %d", fp.MaxDist, distance.CrossSocketSameMC)
	}
	if !fp.SingleMC {
		t.Error("zoot (single northbridge) not detected as SingleMC")
	}
	var total int64
	for _, c := range fp.Hist {
		total += c
	}
	if want := int64(16 * 15 / 2); total != want {
		t.Errorf("histogram total = %d, want %d", total, want)
	}
	var adjTotal int64
	for _, c := range fp.AdjHist {
		adjTotal += c
	}
	if adjTotal != 15 {
		t.Errorf("adjacent histogram total = %d, want 15", adjTotal)
	}
}

func TestFingerprintIGNotSingleMC(t *testing.T) {
	fp := FingerprintOf(matrixFor(t, "ig", "contiguous", 48))
	if fp.SingleMC {
		t.Error("IG (one controller per NUMA node) detected as SingleMC")
	}
	if fp.MaxDist != distance.CrossBoard {
		t.Errorf("IG max dist = %d, want %d", fp.MaxDist, distance.CrossBoard)
	}
}

// The pairwise histogram of a full-machine communicator is identical
// under contiguous and cross-socket placement (same pair multiset); only
// the adjacent-rank histogram separates them. The selector depends on
// that separation to give the rank-based baselines binding-specific
// decisions.
func TestFingerprintSeparatesBindings(t *testing.T) {
	cont := FingerprintOf(matrixFor(t, "ig", "contiguous", 48))
	cross := FingerprintOf(matrixFor(t, "ig", "crosssocket", 48))
	if !histEq(cont.Hist, cross.Hist) {
		t.Log("pair histograms differ (fine, but unexpected for full-machine groups)")
	}
	if cont.Equal(cross) {
		t.Fatal("contiguous and cross-socket fingerprints are Equal; adjacent-rank histogram failed to separate them")
	}
	if !cont.SameClass(cross) {
		t.Error("same machine's bindings should share a class")
	}
}

// TestFingerprintSameOnEveryRepresentation: a communicator fingerprints its
// one view; shipped tables, tools and tests often fingerprint a dense
// matrix of the same placement. The two must agree exactly — histogram,
// adjacency, class — on single machines and clusters alike, or a table
// calibrated over one would miss on the other.
func TestFingerprintSameOnEveryRepresentation(t *testing.T) {
	for _, tc := range []struct {
		machine, bind string
		n             int
	}{
		{"zoot", "contiguous", 16}, {"zoot", "crosssocket", 16}, {"zoot", "contiguous", 7},
		{"ig", "contiguous", 48}, {"ig", "crosssocket", 48}, {"ig", "crosssocket", 13},
		{"igcluster", "contiguous", 48}, {"igcluster", "crosssocket", 30},
		{"igrack", "contiguous", 96}, {"igrack", "crosssocket", 50},
	} {
		topo, err := hwtopo.ByName(tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		b, err := binding.ByName(topo, tc.bind, tc.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := distance.NewClustered(topo, b.Cores())
		if err != nil {
			t.Fatal(err)
		}
		sparse, dense := FingerprintOf(cv), FingerprintOf(distance.NewMatrix(topo, b.Cores()))
		if !sparse.Equal(dense) || sparse.SingleMC != dense.SingleMC {
			t.Errorf("%s/%s/%d: view fingerprints %+v, matrix %+v", tc.machine, tc.bind, tc.n, sparse, dense)
		}
	}
}

// TestOldTableJSONStillLoads: tables written when Decision carried a
// two_phase flag parse to the same rules — the key is ignored, and what it
// used to select is now what the view implies. The field pin is four since
// the tree allreduce: `tree` is a dimension the calibrator sweeps and the
// tables record, like linear and chunk, not a knob a user sets — a fifth
// field needs the same justification.
func TestOldTableJSONStillLoads(t *testing.T) {
	old := `{"name":"old","machine":"igcluster","procs":4,"sizes":[1024],"rule_sets":[{"collective":"bcast",
		"binding":"contiguous","fingerprint":{"procs":4,"max_dist":8,"single_mc":false,"hist":[0],"adj_hist":[0]},
		"rules":[{"min_bytes":0,"decision":{"component":"knemcoll","chunk":65536,"two_phase":true}}]}]}`
	tab, err := ParseTable([]byte(old))
	if err != nil {
		t.Fatalf("table with a two_phase key rejected: %v", err)
	}
	if got, want := tab.RuleSets[0].Rules[0].Decision, (Decision{Component: ComponentKNEM, Chunk: 65536}); got != want {
		t.Errorf("decision = %+v, want %+v", got, want)
	}
	if n := reflect.TypeOf(Decision{}).NumField(); n != 4 {
		t.Errorf("Decision has %d fields, want 4 (component, linear, chunk, tree)", n)
	}
}

func TestFallbackCrossovers(t *testing.T) {
	ig := FingerprintOf(matrixFor(t, "ig", "contiguous", 48))
	zoot := FingerprintOf(matrixFor(t, "zoot", "contiguous", 16))

	// Bcast: tuned strictly below 16 KB, knem at and above.
	if d := Fallback(CollBcast, ig, FallbackBcastCrossover-1); d.Component != ComponentTuned {
		t.Errorf("bcast below crossover: %s", d)
	}
	if d := Fallback(CollBcast, ig, FallbackBcastCrossover); d.Component != ComponentKNEM || d.Linear {
		t.Errorf("bcast at crossover on IG: %s, want knemcoll/hier", d)
	}
	// Allgather: tuned strictly below 2 KB.
	if d := Fallback(CollAllgather, ig, FallbackAllgatherCrossover-1); d.Component != ComponentTuned {
		t.Errorf("allgather below crossover: %s", d)
	}
	if d := Fallback(CollAllgather, ig, FallbackAllgatherCrossover); d.Component != ComponentKNEM {
		t.Errorf("allgather at crossover: %s", d)
	}
	// Fig. 8: on single-controller Zoot the linear topology takes over at
	// 32 KB; on IG (multiple controllers) the hierarchy stays.
	if d := Fallback(CollBcast, zoot, FallbackLinearCrossover); d.Component != ComponentKNEM || !d.Linear {
		t.Errorf("bcast ≥32K on Zoot: %s, want knemcoll/linear", d)
	}
	if d := Fallback(CollBcast, zoot, FallbackLinearCrossover-1); d.Linear {
		t.Errorf("bcast <32K on Zoot went linear: %s", d)
	}
	if d := Fallback(CollBcast, ig, 1<<20); d.Linear {
		t.Errorf("bcast on IG went linear: %s", d)
	}
	// Reduce mirrors bcast.
	if d := Fallback(CollReduce, ig, 8<<10); d.Component != ComponentTuned {
		t.Errorf("reduce 8K: %s", d)
	}
	// Allreduce: the tree below the calibrated crossover, the ring from it.
	for bytes, want := range map[int64]string{8: "knemcoll/tree", 64 << 10: "knemcoll/tree",
		FallbackAllreduceCrossover - 1: "knemcoll/tree", FallbackAllreduceCrossover: "knemcoll/hier", 8 << 20: "knemcoll/hier"} {
		if d := Fallback(CollAllreduce, ig, bytes); d.String() != want {
			t.Errorf("allreduce %d B: %s, want %s", bytes, d, want)
		}
	}
	// Trivial communicators never go kernel-assisted.
	for _, coll := range Collectives() {
		if d := Fallback(coll, Fingerprint{Procs: 2}, 1<<20); d.Component != ComponentTuned {
			t.Errorf("2-rank %s: %s", coll, d)
		}
	}
}

func TestRuleCovers(t *testing.T) {
	r := Rule{MinBytes: 1024, MaxBytes: 4096}
	for bytes, want := range map[int64]bool{1023: false, 1024: true, 4095: true, 4096: false} {
		if r.Covers(bytes) != want {
			t.Errorf("Covers(%d) = %v, want %v", bytes, !want, want)
		}
	}
	open := Rule{MinBytes: 1024}
	if !open.Covers(1 << 40) {
		t.Error("unbounded rule does not cover large size")
	}
}

func TestTableValidate(t *testing.T) {
	fp := Fingerprint{Procs: 4, Hist: []int64{0}, AdjHist: []int64{0}}
	good := &Table{Name: "t", RuleSets: []RuleSet{{
		Coll: CollBcast, Fingerprint: fp,
		Rules: []Rule{
			{MinBytes: 0, MaxBytes: 1024, Decision: Decision{Component: ComponentTuned}},
			{MinBytes: 1024, Decision: Decision{Component: ComponentKNEM}},
		},
	}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Table)
	}{
		{"no name", func(t *Table) { t.Name = "" }},
		{"unknown collective", func(t *Table) { t.RuleSets[0].Coll = "gather" }},
		{"no rules", func(t *Table) { t.RuleSets[0].Rules = nil }},
		{"gap", func(t *Table) { t.RuleSets[0].Rules[1].MinBytes = 2048 }},
		{"bounded last", func(t *Table) { t.RuleSets[0].Rules[1].MaxBytes = 4096 }},
		{"bad decision", func(t *Table) { t.RuleSets[0].Rules[0].Decision.Component = "x" }},
		{"tree on bcast", func(t *Table) { t.RuleSets[0].Rules[1].Decision.Tree = true }},
		{"zero procs", func(t *Table) { t.RuleSets[0].Fingerprint.Procs = 0 }},
	}
	for _, c := range bad {
		tt := &Table{Name: good.Name, RuleSets: []RuleSet{{
			Coll: good.RuleSets[0].Coll, Fingerprint: fp,
			Rules: append([]Rule(nil), good.RuleSets[0].Rules...),
		}}}
		c.mut(tt)
		if err := tt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken table", c.name)
		}
	}
}

func TestMarshalParseRoundtrip(t *testing.T) {
	tab, err := CalibrateMachine("zoot", []int64{1024, 65536})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab, back) {
		t.Error("table did not survive a marshal/parse roundtrip")
	}
	data2, err := MarshalTable(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("canonical JSON is not byte-stable across roundtrips")
	}
	if _, err := ParseTable([]byte("{not json")); err == nil {
		t.Error("ParseTable accepted garbage")
	}
	if _, err := ParseTable([]byte("{}")); err == nil {
		t.Error("ParseTable accepted a table failing validation")
	}
}

func TestDefaultTablesShip(t *testing.T) {
	tables := DefaultTables()
	if len(tables) != 4 {
		t.Fatalf("shipped %d default tables, want 4", len(tables))
	}
	byName := map[string]*Table{}
	for _, tab := range tables {
		byName[tab.Name] = tab
	}
	for _, name := range []string{"zoot16", "ig48", "igcluster48", "igrack96"} {
		if byName[name] == nil {
			t.Errorf("default table %s missing", name)
		}
	}
}

// The shipped tables must reproduce the paper's qualitative crossovers.
func TestShippedTableCrossovers(t *testing.T) {
	sel := DefaultSelector()

	// IG bcast: tuned at small sizes (KNEM's kernel-crossing latency
	// dominates below the paper's ~16 KB), knem in the distance-aware
	// regime (32 KB – 1 MB) under both bindings.
	for _, bind := range []string{"contiguous", "crosssocket"} {
		m := matrixFor(t, "ig", bind, 48)
		for _, size := range []int64{512, 1024, 2048} {
			if d, src := sel.SelectExplain(CollBcast, m, size); d.Component != ComponentTuned {
				t.Errorf("ig/%s bcast %dB: %s (from %s), want tuned", bind, size, d, src)
			}
		}
		for _, size := range []int64{32 << 10, 256 << 10, 1 << 20} {
			if d, src := sel.SelectExplain(CollBcast, m, size); d.Component != ComponentKNEM {
				t.Errorf("ig/%s bcast %dB: %s (from %s), want knemcoll", bind, size, d, src)
			}
		}
		// Allgather: tuned below the ~2 KB crossover.
		for _, size := range []int64{512} {
			if d, src := sel.SelectExplain(CollAllgather, m, size); d.Component != ComponentTuned {
				t.Errorf("ig/%s allgather %dB: %s (from %s), want tuned", bind, size, d, src)
			}
		}
	}
	// Allgather above the crossover under cross-socket binding (the
	// paper's robustness case) must be distance-aware.
	mx := matrixFor(t, "ig", "crosssocket", 48)
	for _, size := range []int64{4 << 10, 64 << 10, 1 << 20} {
		if d, src := sel.SelectExplain(CollAllgather, mx, size); d.Component != ComponentKNEM {
			t.Errorf("ig/crosssocket allgather %dB: %s (from %s), want knemcoll", size, d, src)
		}
	}
	// Zoot bcast ≥ 32 KB: the linear topology must beat the hierarchy
	// (Fig. 8 — the single controller saturates regardless of tree shape).
	mz := matrixFor(t, "zoot", "contiguous", 16)
	for _, size := range []int64{32 << 10, 1 << 20, 8 << 20} {
		d, src := sel.SelectExplain(CollBcast, mz, size)
		if d.Component != ComponentKNEM || !d.Linear {
			t.Errorf("zoot bcast %dB: %s (from %s), want knemcoll/linear", size, d, src)
		}
		if !strings.HasPrefix(src, "table:zoot16") {
			t.Errorf("zoot bcast %dB resolved from %s, want the shipped zoot16 table", size, src)
		}
	}
}

func TestSelectorPrecedence(t *testing.T) {
	m := matrixFor(t, "zoot", "contiguous", 16)
	fp := FingerprintOf(m)

	exact := &Table{Name: "exact", RuleSets: []RuleSet{{
		Coll: CollBcast, Binding: "contiguous", Fingerprint: fp,
		Rules: []Rule{{Decision: Decision{Component: ComponentMPICH}}},
	}}}
	classFP := fp
	classFP.Procs = 8 // same class, different size: no exact match
	classFP.Hist = append([]int64(nil), fp.Hist...)
	classOnly := &Table{Name: "class", RuleSets: []RuleSet{{
		Coll: CollBcast, Binding: "contiguous", Fingerprint: classFP,
		Rules: []Rule{{Decision: Decision{Component: ComponentTuned}}},
	}}}

	// Exact fingerprint beats class match, regardless of table order.
	sel := NewSelector(classOnly, exact)
	d, src := sel.SelectExplain(CollBcast, m, 1<<20)
	if d.Component != ComponentMPICH || src != "table:exact/contiguous" {
		t.Errorf("got %s from %s, want mpich2 from table:exact/contiguous", d, src)
	}

	// Without the exact table, the class match applies.
	sel = NewSelector(classOnly)
	d, src = sel.SelectExplain(CollBcast, m, 1<<20)
	if d.Component != ComponentTuned || src != "class:class/contiguous" {
		t.Errorf("got %s from %s, want tuned from class:class/contiguous", d, src)
	}

	// No table at all: fallback rules.
	var nilSel *Selector
	d, src = nilSel.SelectExplain(CollBcast, m, 1<<20)
	if src != "fallback" {
		t.Errorf("nil selector source = %s", src)
	}
	if d.Component != ComponentKNEM || !d.Linear {
		t.Errorf("nil selector zoot 1M bcast = %s, want knemcoll/linear fallback", d)
	}

	// A collective the tables don't cover falls through too.
	sel = NewSelector(exact)
	if _, src = sel.SelectExplain(CollAllreduce, m, 1<<20); src != "fallback" {
		t.Errorf("uncovered collective source = %s", src)
	}
}

func TestCompileForAllDecisions(t *testing.T) {
	m := matrixFor(t, "zoot", "contiguous", 8)
	for _, coll := range Collectives() {
		for _, d := range []Decision{
			{Component: ComponentTuned},
			{Component: ComponentMPICH},
			{Component: ComponentKNEM},
			{Component: ComponentKNEM, Linear: true},
			{Component: ComponentKNEM, Chunk: 4096},
			{Component: ComponentKNEM, Chunk: 4100}, // not a multiple of the element
			{Component: ComponentKNEM, Tree: true},
			{Component: ComponentKNEM, Tree: true, Linear: true},
			{Component: ComponentKNEM, Tree: true, Chunk: 4100},
		} {
			s, err := CompileFor(coll, d, m, 0, 16384, 8)
			if err != nil {
				t.Errorf("CompileFor(%s, %s): %v", coll, d, err)
				continue
			}
			for _, op := range s.Ops {
				if op.Kind == sched.OpReduce && (op.SrcOff%8 != 0 || op.Bytes%8 != 0) {
					t.Errorf("CompileFor(%s, %s): reduce op %d [%d,+%d) splits an 8-byte element", coll, d, op.ID, op.SrcOff, op.Bytes)
					break
				}
			}
			if err := s.Validate(); err != nil {
				t.Errorf("CompileFor(%s, %s) schedule invalid: %v", coll, d, err)
			}
		}
	}
	// The compile-only collectives: every component, on one machine and
	// across four, below and above the hierarchical-alltoall limit, executed
	// on payloads whose every byte names its (origin, destination, offset).
	pat := func(from, to, i int) byte { return byte(from*131 + to*31 + i*7 + 1) }
	for _, v := range []distance.Matrix{m, matrixFor(t, "igcluster", "crosssocket", 12)} {
		n := v.Size()
		for _, coll := range []Collective{CollGather, CollScatter, CollAlltoall} {
			for _, d := range []Decision{
				{Component: ComponentTuned},
				{Component: ComponentMPICH},
				{Component: ComponentKNEM},
				{Component: ComponentKNEM, Linear: true},
			} {
				for _, block := range []int{96, 2 * AlltoallHierarchicalLimit} {
					const root = 3
					s, err := CompileFor(coll, d, v, root, int64(block), 0)
					if err != nil {
						t.Errorf("CompileFor(%s, %s, n=%d, %d B): %v", coll, d, n, block, err)
						continue
					}
					if err := s.Validate(); err != nil {
						t.Errorf("CompileFor(%s, %s, n=%d, %d B) schedule invalid: %v", coll, d, n, block, err)
						continue
					}
					// A rooted collective's n-block buffer lives at the root
					// only and is indexed by the peer; alltoall's on every rank.
					bufs := exec.Alloc(s)
					whole, part := "send", "recv" // scatter, alltoall: n blocks out, gather: n blocks in
					if coll == CollGather {
						whole, part = "recv", "send"
					}
					buf := func(r int, name string) []byte {
						id, ok := s.FindBuffer(r, name)
						if !ok {
							t.Fatalf("%s: rank %d has no %q buffer", coll, r, name)
						}
						return bufs.Bytes(id)
					}
					for r := 0; r < n; r++ {
						switch coll {
						case CollGather:
							for i := 0; i < block; i++ {
								buf(r, part)[i] = pat(r, root, i)
							}
						case CollScatter:
							if r == root {
								for i := range buf(r, whole) {
									buf(r, whole)[i] = pat(root, i/block, i%block)
								}
							}
						case CollAlltoall:
							for i := range buf(r, whole) {
								buf(r, whole)[i] = pat(r, i/block, i%block)
							}
						}
					}
					if err := exec.RunReduce(s, bufs, func(dst, src []byte) {}); err != nil {
						t.Errorf("CompileFor(%s, %s, n=%d, %d B) did not run: %v", coll, d, n, block, err)
						continue
					}
					for r := 0; r < n; r++ {
						// Rank r's output and the origin of its byte i; r is
						// always the destination.
						var got []byte
						var from func(i int) int
						switch coll {
						case CollGather:
							if r != root {
								continue
							}
							got, from = buf(r, whole), func(i int) int { return i / block }
						case CollScatter:
							got, from = buf(r, part), func(int) int { return root }
						case CollAlltoall:
							got, from = buf(r, "recv"), func(i int) int { return i / block }
						}
						for i := range got {
							if want := pat(from(i), r, i%block); got[i] != want {
								t.Errorf("CompileFor(%s, %s, n=%d, %d B): rank %d byte %d = %d, want %d", coll, d, n, block, r, i, got[i], want)
								break
							}
						}
					}
				}
			}
		}
	}
	if _, err := CompileFor(CollBcast, Decision{Component: "x"}, m, 0, 1024, 0); err == nil {
		t.Error("CompileFor accepted an unknown component")
	}
	if _, err := CompileFor("scan", Decision{Component: ComponentTuned}, m, 0, 1024, 0); err == nil {
		t.Error("CompileFor accepted an unknown collective")
	}
}

// TestSelectWarmPathAllocations: SelectFP — what the runtime calls on every
// Adaptive collective, with the fingerprint it caches on the communicator —
// allocates nothing, whichever tier answers, on a Selector and through an
// Overlay's exact tier; Select over a view allocates the fingerprint (one
// backing array for both histograms) and nothing else. Provenance is built
// by the Explain entry points only. (Select used to format and discard a
// provenance string on every call: 5 allocations on a table hit, and the
// runtime paid them plus the O(n²) fingerprint per warm call.)
func TestSelectWarmPathAllocations(t *testing.T) {
	view := func(machineName, bindName string, n int) *distance.Clustered {
		topo, err := hwtopo.ByName(machineName)
		if err != nil {
			t.Fatal(err)
		}
		b, err := binding.ByName(topo, bindName, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := distance.NewClustered(topo, b.Cores())
		if err != nil {
			t.Fatal(err)
		}
		return cv
	}
	sel := DefaultSelector()
	var sink Decision
	for _, tc := range []struct {
		name string
		sel  *Selector
		v    *distance.Clustered
		prov string
	}{
		{"exact", sel, view("ig", "crosssocket", 48), "table:ig48/crosssocket"},
		{"class", sel, view("ig", "crosssocket", 13), "class:ig48/contiguous"},
		{"fallback", nil, view("ig", "crosssocket", 48), "fallback"},
	} {
		fp := FingerprintOf(tc.v)
		for _, coll := range Collectives() {
			want, prov := tc.sel.ExplainFP(coll, fp, 1024)
			if prov != tc.prov {
				t.Errorf("%s %s: provenance %q, want %q", tc.name, coll, prov, tc.prov)
			}
			if a := testing.AllocsPerRun(100, func() { sink = tc.sel.SelectFP(coll, fp, 1024) }); a != 0 || sink != want {
				t.Errorf("%s %s: SelectFP = %s with %v allocations, want %s with 0", tc.name, coll, sink, a, want)
			}
			if a := testing.AllocsPerRun(100, func() { sink = tc.sel.Select(coll, tc.v, 1024) }); a > 1 || sink != want {
				t.Errorf("%s %s: Select = %s with %v allocations, want %s with 1 (the fingerprint)", tc.name, coll, sink, a, want)
			}
		}
	}
	ov, fp := NewOverlay(sel), FingerprintOf(view("ig", "contiguous", 48))
	if a := testing.AllocsPerRun(100, func() { sink = ov.SelectFP(CollAllreduce, fp, 1024) }); a != 0 {
		t.Errorf("Overlay.SelectFP on an exact table hit allocates %v times, want 0", a)
	}
}

// TestOverlayLearnedMissAllocations: an exact-tier miss consults the learned
// tier on every warm call of an autotuned world, so it must not format the
// fingerprint key while nothing has been learned for the collective —
// whatever was learned for another one.
func TestOverlayLearnedMissAllocations(t *testing.T) {
	ov := NewOverlay(DefaultSelector())
	fp := FingerprintOf(matrixFor(t, "ig", "crosssocket", 13)) // no exact table: class tier
	if err := ov.SetLearned(CollBcast, fp, Rule{Decision: Decision{Component: ComponentTuned}}); err != nil {
		t.Fatal(err)
	}
	for _, coll := range []Collective{CollAllgather, CollReduce, CollAllreduce} {
		want, prov := ov.ExplainFP(coll, fp, 1024)
		if prov != "class:ig48/contiguous" {
			t.Fatalf("%s: provenance %q, want the class tier", coll, prov)
		}
		learned := true
		if a := testing.AllocsPerRun(100, func() { _, learned = ov.Learned(coll, fp, 1024) }); a != 0 || learned {
			t.Errorf("%s: Overlay.Learned = %v with %v allocations, want false with 0", coll, learned, a)
		}
		var got Decision
		if a := testing.AllocsPerRun(100, func() { got = ov.SelectFP(coll, fp, 1024) }); a != 0 || got != want {
			t.Errorf("%s: Overlay.SelectFP = %s with %v allocations, want %s with 0", coll, got, a, want)
		}
	}
	if d, ok := ov.Learned(CollBcast, fp, 1024); !ok || d.Component != ComponentTuned {
		t.Errorf("the learned bcast rule is not found: %v, %v", d, ok)
	}
}

// TestShippedAllreduceStaysOffTheCliff is the op-count guard of the tree
// allreduce, and needs no clock: on every shipped (table, binding), at every
// calibration size below 64 KiB, the selected allreduce is never the ring
// (n(3n−2) ops whatever the size — the 6.6 ms Adaptive Allreduce 1 KiB that
// used to own a steady-small round), and wherever the distance-aware
// component is selected the schedule has at most 3n ops per chunk and no
// buffer but the callers' send and recv. On the cross-socket IG placement —
// the benchmark's world — that is every size in the range; each table
// selects the tree somewhere in it. (tuned still wins some of the range by
// the model on rank-friendly placements — ig48 contiguous from 8 KiB, zoot16
// below 2 KiB — and on 16-rank Zoot the ring's crossover is 64 KiB itself.)
func TestShippedAllreduceStaysOffTheCliff(t *testing.T) {
	sel := DefaultSelector()
	for _, tab := range DefaultTables() {
		topo, err := hwtopo.ByName(tab.Machine)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tab.RuleSets {
			rs := &tab.RuleSets[i]
			if rs.Coll != CollAllreduce {
				continue
			}
			b, err := binding.ByName(topo, rs.Binding, tab.Procs, 1)
			if err != nil {
				t.Fatal(err)
			}
			v, err := distance.NewClustered(topo, b.Cores())
			if err != nil {
				t.Fatal(err)
			}
			fp, n, trees := FingerprintOf(v), v.Size(), 0
			for _, size := range tab.Sizes {
				if size >= 64<<10 {
					continue
				}
				d, prov := sel.ExplainFP(CollAllreduce, fp, size)
				if want := "table:" + tab.Name + "/" + rs.Binding; prov != want {
					t.Fatalf("%s/%s %d B decided by %s, want %s", tab.Name, rs.Binding, size, prov, want)
				}
				if d.Component != ComponentKNEM {
					if tab.Name == "ig48" && rs.Binding == "crosssocket" {
						t.Errorf("ig48/crosssocket %d B: %s selected, want the tree", size, d)
					}
					continue
				}
				if !d.Tree {
					t.Errorf("%s/%s %d B: the ring selected below its crossover", tab.Name, rs.Binding, size)
					continue
				}
				trees++
				s, err := CompileFor(CollAllreduce, d, v, 0, size, reduceAlign)
				if err != nil {
					t.Fatal(err)
				}
				chunks := 0
				for _, op := range s.Ops {
					chunks = max(chunks, op.Chunk+1)
				}
				if len(s.Ops) > 3*n*chunks {
					t.Errorf("%s/%s %d B (%s): %d ops, want ≤ 3·%d·%d", tab.Name, rs.Binding, size, d, len(s.Ops), n, chunks)
				}
				for _, spec := range s.Buffers {
					if spec.Name != "send" && spec.Name != "recv" {
						t.Errorf("%s/%s %d B (%s): auxiliary buffer %q on rank %d", tab.Name, rs.Binding, size, d, spec.Name, spec.Rank)
						break
					}
				}
			}
			if trees == 0 {
				t.Errorf("%s/%s: the tree allreduce is selected nowhere below 64 KiB", tab.Name, rs.Binding)
			}
		}
	}
}

// TestColdCompileAllocBudget pins what a fresh communicator's first call of
// each collective allocates between its distance view and a runnable plan:
// tree or ring construction, the compile and the execution index together
// stay under one constant at 16 ranks as at 48 — for 39 ops as for 6,816 —
// so anything allocated once per op, per rank or per cluster fails it.
func TestColdCompileAllocBudget(t *testing.T) {
	const budget = 40
	topo := hwtopo.NewIG()
	for _, n := range []int{16, 48} {
		b, err := binding.CrossSocket(topo, n)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := distance.NewClustered(topo, b.Cores())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			coll  Collective
			d     Decision
			bytes int64
		}{
			{CollBcast, Decision{Component: ComponentKNEM}, 256 << 10}, // pipelined: 16 chunks
			{CollAllgather, Decision{Component: ComponentKNEM}, 4096},
			{CollReduce, Decision{Component: ComponentKNEM}, 256 << 10},
			{CollAllreduce, Decision{Component: ComponentKNEM}, 4096},
			{CollAllreduce, Decision{Component: ComponentKNEM, Tree: true}, 256 << 10},
			{CollGather, Decision{Component: ComponentKNEM}, 4096},
			{CollScatter, Decision{Component: ComponentKNEM}, 4096},
			{CollAlltoall, Decision{Component: ComponentKNEM}, 256},
			{CollAlltoall, Decision{Component: ComponentKNEM}, 4096},
		} {
			ops := 0
			a := testing.AllocsPerRun(5, func() {
				s, err := CompileFor(tc.coll, tc.d, cv, n/3, tc.bytes, ReduceAlign)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Index(); err != nil {
					t.Fatal(err)
				}
				ops = len(s.Ops)
			})
			t.Logf("n=%d %s %v %d B: %d ops, %.0f allocations", n, tc.coll, tc.d, tc.bytes, ops, a)
			if a > budget {
				t.Errorf("n=%d %s %v %d B (%d ops): %.0f allocations cold, budget %d", n, tc.coll, tc.d, tc.bytes, ops, a, budget)
			}
		}
	}
}
