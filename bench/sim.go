package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// simPoint is one (machine, collective, size) point of the sim-sweep
// workload: every tune.Candidates decision is compiled and simulated on
// it, which is what tune.Calibrate, disttune and every autotune
// re-pricing do underneath.
type simPoint struct {
	machine string // "zoot" or "ig"
	ranks   int
	coll    tune.Collective
	bytes   int64
}

func (p simPoint) name() string {
	return fmt.Sprintf("%s%d.%s_%s", p.machine, p.ranks, p.coll, imb.FormatSize(p.bytes))
}

// candidatesOf is the decision space swept on a point (single-machine
// placements: no two-phase shapes).
func candidatesOf(p simPoint) []tune.Decision { return tune.Candidates(p.coll, false) }

// simJob is one candidate decision on one point.
type simJob struct {
	point  simPoint
	bind   *binding.Binding
	view   distance.Matrix
	params machine.Params
	dec    tune.Decision
	root   int
	align  int64
	name   string
}

func (j *simJob) compile() (*sched.Schedule, error) {
	return tune.CompileFor(j.point.coll, j.dec, j.view, j.root, j.point.bytes, j.align)
}

// simInst is the built sim-sweep workload. There is no World: the caller
// is one goroutine.
type simInst struct {
	jobs  []simJob
	steps []string
	first []float64 // round-1 makespans: the DES is deterministic

	base      uint64
	attempted int64
	failed    int64
}

// buildSim resolves machines, bindings and candidates. The seed picks the
// broadcast root and the order the jobs run in; the set of jobs is fixed.
func buildSim(points []simPoint, seed uint64) (*simInst, error) {
	in := &simInst{}
	for pi, pt := range points {
		topo, err := hwtopo.ByName(pt.machine)
		if err != nil {
			return nil, err
		}
		params, err := machine.ParamsFor(pt.machine)
		if err != nil {
			return nil, err
		}
		bind, err := binding.CrossSocket(topo, pt.ranks)
		if err != nil {
			return nil, err
		}
		view := distance.NewMatrix(topo, bind.Cores())
		root := 0
		var align int64
		switch pt.coll {
		case tune.CollBcast, tune.CollReduce:
			root = int(mix64(seed*golden^uint64(pi+1)) % uint64(pt.ranks))
		case tune.CollAllreduce:
			align = tune.ReduceAlign
		}
		for _, dec := range candidatesOf(pt) {
			in.jobs = append(in.jobs, simJob{point: pt, bind: bind, view: view, params: params,
				dec: dec, root: root, align: align, name: pt.name() + "." + dec.String()})
		}
	}
	state := mix64(seed*golden ^ 0x51)
	for i := len(in.jobs) - 1; i > 0; i-- {
		state += golden
		j := int(mix64(state) % uint64(i+1))
		in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i]
	}
	for _, j := range in.jobs {
		in.steps = append(in.steps, "tune.compile."+j.name, "machine.simulate."+j.name)
	}
	in.first = make([]float64, len(in.jobs))
	return in, nil
}

func (in *simInst) close() {}

func (in *simInst) opsPerRound() int { return len(in.jobs) }

// run sweeps every job once per round. The output check compares each
// makespan with the first round's, after the round's clock has stopped.
func (in *simInst) run(ph *phase) error {
	ends := make([]time.Time, len(in.steps))
	got := make([]float64, len(in.jobs))
	for ph.next() {
		in.base++
		ph.beginRound()
		t0 := time.Now()
		for i := range in.jobs {
			j := &in.jobs[i]
			s, err := j.compile()
			if err != nil {
				in.failed++
				return fmt.Errorf("round %d compile %s: %w", in.base, j.name, err)
			}
			if ph.spans != nil {
				ends[2*i] = time.Now()
			}
			res, err := machine.Simulate(j.bind, j.params, s)
			if err != nil {
				in.failed++
				return fmt.Errorf("round %d simulate %s: %w", in.base, j.name, err)
			}
			if ph.spans != nil {
				ends[2*i+1] = time.Now()
			}
			got[i] = res.Makespan
		}
		ph.sample(in.base, t0, time.Now(), ends, in.steps)
		in.attempted += int64(len(in.jobs))
		bad := false
		for i, m := range got {
			switch {
			case in.base == 1:
				in.first[i] = m
			case math.Abs(m-in.first[i]) > 1e-9*in.first[i] || m <= 0:
				bad = true
				in.failed++
				fmt.Fprintf(os.Stderr, "bench: FAILED: round %d %s: makespan %g, first round %g\n",
					in.base, in.jobs[i].name, m, in.first[i])
			}
		}
		if bad {
			ph.dropLast()
		}
	}
	ph.closeBlock()
	return nil
}
