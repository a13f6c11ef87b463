package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"distcoll/internal/plancache"
)

// counters snapshots the exact counts a world keeps.
type counters struct {
	plans  plancache.Stats
	copies int64
	events int64
}

func (in *liveInst) counters() counters {
	c := counters{plans: in.w.PlanCache().Stats()}
	_, _, c.copies = in.w.Device().Stats()
	if in.ring != nil {
		c.events = int64(len(in.ring.Events())) + in.ring.Dropped()
	}
	return c
}

// measureTraced is the traced run of one workload: half the time budget
// on untraced rounds, half on rounds with a span per call, then the
// stand-alone layer probes and the world probes. It fills exactly the
// per-layer metrics.
func (w *workloadSpec) measureTraced(seed uint64, seconds float64, outDir string) (*result, error) {
	res := newResult(w, seed)
	spin0, copy0 := spinMS(), memcpy2MBps()

	in, err := w.setUp(seed)
	if err != nil {
		return nil, err
	}
	defer in.close()
	if err := in.run(&phase{maxRounds: w.warmRounds, blockRounds: w.warmRounds}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	half := time.Duration(seconds / 2 * float64(time.Second))
	live, _ := in.(*liveInst)
	var c0, c1 counters
	if live != nil {
		c0 = live.counters()
	}
	plain := &phase{duration: half, blockRounds: w.blockRounds}
	if err := in.run(plain); err != nil {
		return nil, fmt.Errorf("untraced rounds: %w", err)
	}
	spans := newSpanLog()
	traced := &phase{duration: half, blockRounds: w.blockRounds, maxRounds: tracedRoundsCap, spans: spans}
	if err := in.run(traced); err != nil {
		return nil, fmt.Errorf("traced rounds: %w", err)
	}
	if live != nil {
		c1 = live.counters()
	}
	rounds := float64(plain.issued + traced.issued)
	res.attempted, res.failed = in.counts()
	ep, et := estimate(plain.blocks), estimate(traced.blocks)
	res.rounds, res.blocks = ep.rounds+et.rounds, ep.blocks+et.blocks
	if ep.rounds == 0 || et.rounds == 0 {
		return nil, fmt.Errorf("no round completed")
	}

	// The time metrics, measured with tracing off. They are reported here
	// and not gated: see README.md, "Why no time metric is gated".
	res.set("round_p50_us", ep.p50us)
	res.set("round_p90_us", ep.p90us)
	res.set("rounds_per_s", ep.roundsPerS)
	res.set("cpu_us_per_round", ep.cpuUSPerRound)

	// The spans: one child per call, the round's self time is harness.
	byName, order, self := spans.childDurations()
	stepPrefix := "mpi." // the simulator's steps carry their own layer
	if live == nil {
		stepPrefix = ""
	}
	var sum, worst float64
	for _, name := range order {
		p50 := median(byName[name])
		sum += p50
		worst = math.Max(worst, p50)
		res.notef("%s%s_p50_us %.1f", stepPrefix, name, p50)
	}
	roundP50 := median(traced.rounds())
	res.set("mpi.cells_sum_p50_us", sum)
	res.set("mpi.cell_max_p50_us", worst)
	res.set("bench.traced_round_p50_us", roundP50)
	res.set("bench.round_self_p50_us", median(self))
	res.set("bench.span_overhead_frac", et.p50us/ep.p50us-1)

	if err := w.probeLayers(seed, res); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := probeWorld(seed, res); err != nil {
		return nil, fmt.Errorf("world probes: %w", err)
	}

	// Exact counts of the workload's own world over both phases.
	hits, misses := float64(c1.plans.Hits-c0.plans.Hits), float64(c1.plans.Misses-c0.plans.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	res.set("plancache.hit_ratio", ratio)
	res.set("knem.copies_per_round", float64(c1.copies-c0.copies)/rounds)
	res.set("trace.events_per_round", float64(c1.events-c0.events)/rounds)

	// Computed rows.
	get := func(name string) float64 { return res.values[name] }
	res.set("mpi.residual_us", roundP50-get("tune.select_us")-get("plancache.hit_us")-get("sched.validate_us")-
		get("knem.declare_destroy_us")-get("exec.run_us")-w.rendezvousPerRound()*get("mpi.barrier_us"))
	spin1, copy1 := spinMS(), memcpy2MBps()
	res.set("bench.spin_ms", math.Min(spin0, spin1))
	res.set("bench.memcpy2_MBps", math.Max(copy0, copy1))
	movedMBps := get("sched.copied_bytes_per_round") / roundP50
	res.set("mpi.moved_MBps", movedMBps)
	res.set("mpi.bw_over_memcpy", movedMBps/get("bench.memcpy2_MBps"))
	res.notef("host reference before/after: spin %.2f/%.2f ms, memcpy2 %.0f/%.0f MB/s", spin0, spin1, copy0, copy1)
	if live != nil {
		for _, c := range live.cellBandwidths(byName) {
			res.notef("%s", c)
		}
	}

	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := spans.write(path); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		res.notef("spans written to %s (%d spans)", path, len(spans.spans))
	}
	return res, nil
}

// rendezvousPerRound counts the coordinate rendezvous a round makes:
// every collective opens with one and closes with the finish vote, a
// barrier and a Split are one each.
func (w *workloadSpec) rendezvousPerRound() float64 {
	n := 0
	for _, s := range w.slots {
		if s.colors > 0 {
			n++
		}
		for _, c := range s.cells {
			if c.Kind == kindBarrier {
				n++
			} else {
				n += 2
			}
		}
	}
	return float64(n)
}

// deliveredBytes is the payload one round delivers, a constant of the
// workload: MB/s is rounds_per_s times this.
func (w *workloadSpec) deliveredBytes() int64 {
	var total int64
	for _, s := range w.slots {
		copies := 1
		if s.colors > 0 {
			copies = s.colors
		}
		for _, c := range s.cells {
			total += int64(copies) * c.deliveredBytes(s.size(48))
		}
	}
	for _, p := range w.points {
		c := cellSpec{Kind: kindBcast, Bytes: int(p.bytes)}
		if p.coll == "allgather" {
			c.Kind = kindAllgather
		}
		total += int64(len(candidatesOf(p))) * c.deliveredBytes(p.ranks)
	}
	return total
}

// cellBandwidths renders the paper's aggregate bandwidth of every cell
// that moves at least 1 MiB per round.
func (in *liveInst) cellBandwidths(byName map[string][]float64) []string {
	var out []string
	step := 0
	for _, s := range in.slots {
		if s.spec.colors > 0 {
			step++
		}
		for _, c := range s.spec.cells {
			name := in.steps[step]
			step++
			if d := c.deliveredBytes(s.spec.size(in.n)); d >= mib {
				out = append(out, fmt.Sprintf("mpi.%s_MBps %.0f", name, float64(d)/median(byName[name])))
			}
		}
		if s.spec.colors > 0 {
			step++
		}
	}
	return out
}
