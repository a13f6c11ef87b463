package main

import (
	"encoding/json"
	"fmt"
	"os"

	"distcoll/internal/integrity"
	"distcoll/internal/mpi"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

// Everything that shapes the measured program is a constant in this
// file: cell lists, sizes, rounds per block, warm-up. The only inputs of
// a run are the seed (payloads, split colours and keys, sweep order) and
// how long to measure.

const (
	// gomaxprocs is pinned so the 48 rank goroutines see the same two Ps
	// on every host; GOGC stays at its default.
	gomaxprocs = 2
	// setupRepeats is how many times a workload is set up back to back;
	// setup_s is the lower quartile, and the last instance is kept.
	setupRepeats = 9
	// tracedRoundsCap bounds the span log of a traced run.
	tracedRoundsCap = 200
	// ringCapacity is the guarded-mix tracer's ring sink.
	ringCapacity = 64 << 10
)

// workloadSpec is one benchmark workload.
type workloadSpec struct {
	name string
	why  string
	// Exactly one of slots (a live World) and points (the simulator) is
	// set.
	slots  []slotSpec
	points []simPoint
	// guarded arms integrity and the tracer, as guarded-mix does.
	guarded bool
	// blockRounds is the estimator's block: about half a second of
	// rounds on the reference box.
	blockRounds int
	warmRounds  int
}

func ad(kind cellKind, bytes int) cellSpec {
	return cellSpec{Kind: kind, Bytes: bytes, Comp: mpi.Adaptive}
}
func kn(kind cellKind, bytes int) cellSpec {
	return cellSpec{Kind: kind, Bytes: bytes, Comp: mpi.KNEMColl}
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// churnCells are the cold collectives run on every fresh communicator of
// size n. All are 4 KiB: the smallest size at which the selector picks the
// distance-aware component for broadcast, allgather and reduce, so every
// call constructs a tree or the ring, and executing it stays cheaper than
// building for it. Six broadcast roots are six tree constructions and six
// compiles. There is no allreduce: on these communicators the selector
// runs it through the rank-based baseline, which builds nothing, and at
// 512 B and above it costs 10 ms on 48 ranks warm or cold (README.md,
// "Known cliffs"), which would bury the construction this workload exists
// to show.
func churnCells(n int) []cellSpec {
	cells := make([]cellSpec, 0, 8)
	for i := 0; i < 6; i++ {
		c := ad(kindBcast, 4*kib)
		c.Root = i * n / 6
		cells = append(cells, c)
	}
	return append(cells, ad(kindReduce, 4*kib), ad(kindAllgather, 4*kib))
}

var workloads = []workloadSpec{
	{
		name: "steady-small",
		why:  "small messages on a warm world: time is select, plan-cache hit, plan setup, dependency waits and the finish vote, not bytes",
		slots: []slotSpec{{cells: []cellSpec{
			{Kind: kindBarrier},
			ad(kindBcast, 64), ad(kindBcast, kib), ad(kindBcast, 4*kib), ad(kindBcast, 16*kib),
			ad(kindAllgather, 64), ad(kindAllgather, kib), ad(kindAllgather, 4*kib),
			ad(kindReduce, kib),
			ad(kindAllreduce, 64), ad(kindAllreduce, kib),
			kn(kindGather, kib), kn(kindScatter, kib), kn(kindAlltoall, 256),
		}}},
		blockRounds: 25, warmRounds: 10,
	},
	{
		name: "steady-large",
		why:  "large messages on a warm world: copy-bound chunked tree pipeline and ring pulls, the paper's bandwidth regime; per-op overhead is amortised",
		slots: []slotSpec{{cells: []cellSpec{
			kn(kindBcast, mib), ad(kindBcast, 2*mib), kn(kindAllgather, 64*kib), ad(kindAllreduce, 512*kib),
		}}},
		blockRounds: 15, warmRounds: 6,
	},
	{
		name: "guarded-mix",
		why:  "the same executor with every hook live: per-chunk CRC, end-to-end digests, trace events, recovery ledgers; cost pushed from the bare path shows here",
		slots: []slotSpec{{cells: []cellSpec{
			ad(kindBcast, 64*kib), ad(kindAllgather, 16*kib), kn(kindBcast, 256*kib), ad(kindAllreduce, 64*kib),
			kn(kindBcastResilient, 64*kib), kn(kindAllgatherResilient, 16*kib),
		}}},
		guarded:     true,
		blockRounds: 15, warmRounds: 6,
	},
	{
		name: "comm-churn",
		why:  "fresh communicators every round: distance matrix, tree and ring construction, schedule compile and plan-cache misses; the steady workloads bypass all of it",
		slots: []slotSpec{
			{colors: 1, cells: churnCells(48)},
			{colors: 3, cells: churnCells(16)},
		},
		blockRounds: 50, warmRounds: 6,
	},
	{
		name: "sim-sweep",
		why:  "no world: every tune.Candidates decision compiled and simulated; des and machine sit under calibration and autotune re-pricing, not under live collectives",
		points: []simPoint{
			{machine: "zoot", ranks: 16, coll: tune.CollAllgather, bytes: 16 * kib},
			{machine: "ig", ranks: 48, coll: tune.CollBcast, bytes: 64 * kib},
		},
		blockRounds: 25, warmRounds: 4,
	},
}

// describe lists the constants of the workload: what runs in a round,
// how many bytes that delivers and how much buffer it holds.
func (w *workloadSpec) describe() []string {
	var lines []string
	var bufBytes int64
	const n = 48
	for _, s := range w.slots {
		comm := "world communicator"
		if s.colors > 0 {
			comm = fmt.Sprintf("Split into %d x %d ranks, seeded keys, then Free", s.colors, s.size(n))
		}
		line := comm + ":"
		for _, c := range s.cells {
			line += " " + c.String()
			if c.Root != 0 {
				line += fmt.Sprintf("@%d", c.Root)
			}
			line += ";"
			for r := 0; r < n; r++ {
				in, out := c.inputLen(n, r), c.outputLen(n, r)
				if s.colors > 0 {
					in, out = c.anyRankLens(s.size(n))
				}
				bufBytes += int64(in + out)
			}
		}
		lines = append(lines, line)
	}
	for _, p := range w.points {
		line := p.name() + ":"
		for _, d := range candidatesOf(p) {
			line += " " + d.String() + ";"
		}
		lines = append(lines, line+" each compiled and simulated")
	}
	lines = append(lines, fmt.Sprintf("payload delivered per round %d B, caller buffers %d B, block %d rounds, warm-up %d rounds, %d set-ups",
		w.deliveredBytes(), bufBytes, w.blockRounds, w.warmRounds, setupRepeats))
	return lines
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are the World options of a live workload. Health, autotune and
// the partition detector stay off everywhere: they replan on measured
// timings and would make a run depend on its own noise.
func (w *workloadSpec) options() ([]mpi.Option, *trace.RingSink) {
	if !w.guarded {
		return nil, nil
	}
	ring := trace.NewRing(ringCapacity)
	return []mpi.Option{mpi.WithIntegrity(integrity.Config{}), mpi.WithTracer(trace.New(ring))}, ring
}

// metricSpec is one metric as BENCHMARK.json lists it; per-layer metrics
// have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are the gated metrics: what a run with -trace 0 reports
// in its result line. Bound is the relative worsening that counts as a
// regression. Only metrics that repeat within a third of their bound on a
// shared 2-core host are gated; the time metrics do not (README.md, "Why
// no time metric is gated") and sit at the head of perLayerMetrics.
var endToEndMetrics = []metricSpec{
	{Name: "allocs_per_round", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_round", Unit: "B", Better: "lower", Bound: 0.03},
	{Name: "live_heap_MB", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerMetrics are what a run with -trace 1 reports: the time metrics
// of the whole round, then one group per layer, in the order README.md
// explains them.
var perLayerMetrics = []metricSpec{
	{Name: "round_p50_us", Unit: "us", Better: "lower"},
	{Name: "round_p90_us", Unit: "us", Better: "lower"},
	{Name: "rounds_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_us_per_round", Unit: "us", Better: "lower"},

	{Name: "mpi.cells_sum_p50_us", Unit: "us", Better: "lower"},
	{Name: "mpi.cell_max_p50_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.residual_us", Unit: "us", Better: "lower"},
	{Name: "mpi.moved_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.bw_over_memcpy", Unit: "ratio", Better: "higher"},
	{Name: "mpi.split_us", Unit: "us", Better: "lower"},
	{Name: "mpi.first_op_us", Unit: "us", Better: "lower"},
	{Name: "mpi.free_us", Unit: "us", Better: "lower"},

	{Name: "tune.select_us", Unit: "us", Better: "lower"},
	{Name: "tune.select_allocs", Unit: "count", Better: "lower"},
	{Name: "tune.compile_cold_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_allocs", Unit: "count", Better: "lower"},
	{Name: "plancache.miss_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.validate_us", Unit: "us", Better: "lower"},
	{Name: "sched.ops_per_round", Unit: "count", Better: "lower"},
	{Name: "sched.copied_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "knem.declare_destroy_us", Unit: "us", Better: "lower"},
	{Name: "knem.copy_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "knem.copies_per_round", Unit: "count", Better: "lower"},
	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.run_allocs", Unit: "count", Better: "lower"},

	{Name: "distance.matrix_us", Unit: "us", Better: "lower"},
	{Name: "distance.matrix_allocs", Unit: "count", Better: "lower"},
	{Name: "distance.clustered_us", Unit: "us", Better: "lower"},
	{Name: "core.tree_build_us", Unit: "us", Better: "lower"},
	{Name: "core.tree_fast_us", Unit: "us", Better: "lower"},
	{Name: "core.tree_hier_us", Unit: "us", Better: "lower"},
	{Name: "core.ring_build_us", Unit: "us", Better: "lower"},
	{Name: "core.compile_us", Unit: "us", Better: "lower"},
	{Name: "core.build_allocs", Unit: "count", Better: "lower"},
	{Name: "machine.session_us", Unit: "us", Better: "lower"},
	{Name: "des.simulate_us", Unit: "us", Better: "lower"},
	{Name: "des.simops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "des.allocs_per_simop", Unit: "count", Better: "lower"},

	{Name: "integrity.sum_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "integrity.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.events_per_round", Unit: "count", Better: "lower"},
	{Name: "recovery.ledger_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "health.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "autotune.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "partition.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.submit_overhead_us", Unit: "us", Better: "lower"},

	{Name: "bench.traced_round_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.round_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.span_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.memcpy2_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "bench.spin_ms", Unit: "ms", Better: "lower"},
}

// unitOf returns a metric's unit ("" for a name in neither table).
func unitOf(name string) string {
	for _, table := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, m := range table {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// specMain prints BENCHMARK.json as the tables in this file define it;
// a test checks that the checked-in file says the same.
func specMain() int {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench spec:", err)
		return 1
	}
	return 0
}
