package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// instance is a built workload: a live world or the simulator sweep.
type instance interface {
	// run executes rounds until the phase says stop, sampling into it.
	run(ph *phase) error
	close()
	// opsPerRound is the number of calls into the system one round makes.
	opsPerRound() int
	counts() (attempted, failed int64)
}

func (in *liveInst) counts() (int64, int64) { return in.attempted, in.failed.Load() }
func (in *simInst) counts() (int64, int64)  { return in.attempted, in.failed }

// build constructs one instance of the workload for a seed.
func (w *workloadSpec) build(seed uint64) (instance, error) {
	if w.points != nil {
		return buildSim(w.points, seed)
	}
	bind, err := igCrossSocket()
	if err != nil {
		return nil, err
	}
	opts, ring := w.options()
	return buildLive(bind, w.slots, seed, opts, ring)
}

// setUp is the workload's whole set-up: topology, binding, world, buffers
// and the first cold pass over every cell, which pays every cold compile.
func (w *workloadSpec) setUp(seed uint64) (instance, error) {
	in, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	cold := &phase{maxRounds: 1, blockRounds: 1}
	if err := in.run(cold); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	seed      uint64
	attempted int64
	failed    int64
	rounds    int
	blocks    int
	values    map[string]float64
	notes     []string // extra printed lines (per-call numbers, references)
}

func newResult(w *workloadSpec, seed uint64) *result {
	return &result{workload: w.name, seed: seed, values: make(map[string]float64), notes: w.describe()}
}

// set records a metric of either table in spec.go.
func (r *result) set(name string, v float64) {
	if unitOf(name) == "" {
		panic("bench: metric " + name + " is in neither table of spec.go")
	}
	r.values[name] = v
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report of every value measured and, as
// the last line, the JSON object the driver reads: exactly the metrics of
// table.
func (r *result) print(out io.Writer, table []metricSpec) error {
	fmt.Fprintf(out, "\n== %s  seed=%d  rounds=%d blocks=%d  ops_attempted=%d ops_failed=%d\n",
		r.workload, r.seed, r.rounds, r.blocks, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(out, "   %s\n", n)
	}
	for _, t := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, m := range t {
			if v, ok := r.values[m.Name]; ok {
				fmt.Fprintf(out, "%-32s %16.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]metric, len(table))}
	for _, m := range table {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// setUpRepeated sets the workload up setupRepeats times back to back,
// tearing all but the last down, and returns the kept instance and the
// lower quartile of the set-up times.
func (w *workloadSpec) setUpRepeated(seed uint64, repeats int) (instance, float64, []float64, error) {
	var kept instance
	var times []float64
	for i := 0; i < repeats; i++ {
		runtime.GC() // the previous instance's buffers; not part of set-up
		t0 := time.Now()
		in, err := w.setUp(seed)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i < repeats-1 {
			in.close()
		} else {
			kept = in
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return kept, lowerQuartile(times), times, nil
}

// measure runs the untraced benchmark of one workload: set-up, warm-up,
// and timed rounds for the given duration, and fills the end-to-end
// metrics.
func (w *workloadSpec) measure(seed uint64, seconds float64) (*result, error) {
	res := newResult(w, seed)
	in, setup, setups, err := w.setUpRepeated(seed, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer in.close()
	res.notef("set-up times (s): %.4f", setups)

	if err := in.run(&phase{maxRounds: w.warmRounds, blockRounds: w.warmRounds}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	timed := &phase{duration: time.Duration(seconds * float64(time.Second)), blockRounds: w.blockRounds}
	if err := in.run(timed); err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)

	e := estimate(timed.blocks)
	if e.rounds == 0 {
		return nil, fmt.Errorf("no round completed")
	}
	rounds := float64(timed.issued)
	res.rounds, res.blocks = e.rounds, e.blocks
	res.attempted, res.failed = in.counts()
	res.set("round_p50_us", e.p50us)
	res.set("round_p90_us", e.p90us)
	res.set("rounds_per_s", e.roundsPerS)
	res.set("cpu_us_per_round", e.cpuUSPerRound)
	res.set("allocs_per_round", float64(m1.Mallocs-m0.Mallocs)/rounds)
	res.set("alloc_bytes_per_round", float64(m1.TotalAlloc-m0.TotalAlloc)/rounds)
	res.set("live_heap_MB", float64(m2.HeapAlloc)/1e6)
	res.set("setup_s", setup)
	res.notef("gc cycles in the timed phase: %d (%.1f/s)", m1.NumGC-m0.NumGC,
		float64(m1.NumGC-m0.NumGC)/time.Since(timed.started).Seconds())
	return res, nil
}
