package tune

import (
	"fmt"
	"runtime"
	"sync"

	"distcoll/internal/binding"
	"distcoll/internal/des"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
)

// CalibrateConfig describes one offline calibration run: which machine to
// sweep, with which bindings, sizes and collectives.
type CalibrateConfig struct {
	// Name names the resulting table ("zoot16").
	Name string
	// Machine is the hwtopo machine name ("zoot", "ig", "igcluster"); it
	// resolves the topology and calibrated parameters unless Topo/Params
	// are supplied explicitly.
	Machine string
	// Topo overrides the topology (optional with Machine set).
	Topo *hwtopo.Topology
	// Params overrides the performance constants (optional with Machine
	// set).
	Params *machine.Params
	// Procs is the communicator size; 0 means every core.
	Procs int
	// Bindings are binding names (binding.ByName); default
	// {"contiguous", "crosssocket"}, the two placements of §V-A.
	Bindings []string
	// Sizes is the message-size sweep; default imb.StandardSizes().
	Sizes []int64
	// Collectives limits the sweep; default all four.
	Collectives []Collective
}

// calibration hysteresis: a candidate only displaces a preferred one if it
// simulates faster by more than this relative margin. The flow-level
// simulator is deterministic up to floating-point summation order, so the
// margin both absorbs ulp-level noise (keeping `disttune generate` output
// byte-stable) and breaks near-ties toward the cheaper baseline component.
const calibrateMargin = 1e-3

// candidates returns the decision candidates for a collective, in
// preference order (earlier wins a near-tie). The knem tree collectives
// carry the Fig. 8 hierarchical/linear split and a fixed-chunk pipeline
// variant; allgather has a single distance-aware shape, the ring; allreduce
// has the ring for the bandwidth regime and, below it, reduce + broadcast
// over the tree with the same fixed-chunk variant. How the tree or ring is
// constructed from the view is not a candidate dimension: core's rule fixes
// it per view, on one machine as on many.
//
// MPICH2 (nemesis double copy) is deliberately not a candidate: it runs
// the same rank-based algorithms as tuned over a strictly slower
// transport, so it can never win a sweep point — and its fragment-level
// schedules are by far the most expensive to simulate (tens of seconds at
// 8 MB × 48 ranks), which would dominate `disttune generate` and the CI
// drift check. Tables may still *name* mpich2 (CompileFor supports it);
// the calibrator just never needs to.
func candidates(coll Collective) []Decision {
	switch coll {
	case CollBcast, CollReduce:
		return []Decision{
			{Component: ComponentTuned},
			{Component: ComponentKNEM},
			{Component: ComponentKNEM, Chunk: 64 << 10},
			{Component: ComponentKNEM, Linear: true},
		}
	case CollAllreduce:
		return []Decision{
			{Component: ComponentTuned},
			{Component: ComponentKNEM},
			{Component: ComponentKNEM, Tree: true},
			{Component: ComponentKNEM, Tree: true, Chunk: 64 << 10},
		}
	default:
		return []Decision{
			{Component: ComponentTuned},
			{Component: ComponentKNEM},
		}
	}
}

// Candidates returns a copy of the decision candidates the calibrator
// sweeps for a collective — the decision space the online autotuner
// re-prices against its fitted model.
// The ignored bool once chose a multi-node list; bench/sim.go still passes
// it, so it goes with the next benchmark PR.
func Candidates(coll Collective, _ bool) []Decision {
	return append([]Decision(nil), candidates(coll)...)
}

// reduceAlign is the element size calibration assumes for allreduce ring
// splits (float64, the common case; alignment only shifts block
// boundaries by a few bytes).
const reduceAlign = 8

// ReduceAlign is reduceAlign for callers outside the package (the online
// autotuner prices allreduce candidates with the same element size the
// offline calibrator assumed).
const ReduceAlign = reduceAlign

// Calibrate sweeps the simulator across (binding, collective, size),
// simulating every candidate decision at each point, and returns the
// winners coalesced into a decision table. Winner selection is sticky:
// within the hysteresis margin the previous size's decision is kept, then
// candidate preference order breaks the tie — so tables are deterministic
// and rules don't fragment on near-ties.
func Calibrate(cfg CalibrateConfig) (*Table, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("tune: calibrate config needs a name")
	}
	topo := cfg.Topo
	if topo == nil {
		var err error
		if topo, err = hwtopo.ByName(cfg.Machine); err != nil {
			return nil, err
		}
	}
	params := cfg.Params
	if params == nil {
		p, err := machine.ParamsFor(cfg.Machine)
		if err != nil {
			return nil, err
		}
		params = &p
	}
	procs := cfg.Procs
	if procs == 0 {
		procs = topo.NumCores()
	}
	bindings := cfg.Bindings
	if len(bindings) == 0 {
		bindings = []string{"contiguous", "crosssocket"}
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = imb.StandardSizes()
	}
	colls := cfg.Collectives
	if len(colls) == 0 {
		colls = Collectives()
	}

	t := &Table{
		Name:    cfg.Name,
		Machine: cfg.Machine,
		Procs:   procs,
		Sizes:   append([]int64(nil), sizes...),
	}
	for _, bname := range bindings {
		b, err := binding.ByName(topo, bname, procs, 1)
		if err != nil {
			return nil, fmt.Errorf("tune: calibrate %s: %w", cfg.Name, err)
		}
		// The view a world on this binding would hand CompileFor, so the
		// table describes exactly the constructions the runtime runs.
		v, err := distance.NewClustered(topo, b.Cores())
		if err != nil {
			return nil, fmt.Errorf("tune: calibrate %s: %w", cfg.Name, err)
		}
		fp := FingerprintOf(v)
		for _, coll := range colls {
			rules, err := calibrateOne(coll, b, v, *params, sizes)
			if err != nil {
				return nil, fmt.Errorf("tune: calibrate %s/%s/%s: %w", cfg.Name, bname, coll, err)
			}
			t.RuleSets = append(t.RuleSets, RuleSet{
				Coll:        coll,
				Binding:     bname,
				Fingerprint: fp,
				Rules:       rules,
			})
		}
	}
	sortRuleSets(t.RuleSets)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// calibrateOne sweeps one (collective, binding) and coalesces per-size
// winners into rules. Rule boundaries sit at the first swept size where
// the new decision won, so a lookup at any swept size reproduces the
// winner exactly.
func calibrateOne(coll Collective, b *binding.Binding, v distance.View, params machine.Params, sizes []int64) ([]Rule, error) {
	cands := candidates(coll)
	grid, err := simulateGrid(coll, cands, b, v, params, sizes)
	if err != nil {
		return nil, err
	}
	var rules []Rule
	prev := -1 // candidate index that won the previous size
	for si, size := range sizes {
		times := grid[si]
		best := times[0]
		for _, t := range times[1:] {
			if t < best {
				best = t
			}
		}
		limit := best * (1 + calibrateMargin)
		win := prev
		if win < 0 || times[win] > limit {
			for i := range cands {
				if times[i] <= limit {
					win = i
					break
				}
			}
		}
		if len(rules) == 0 {
			rules = append(rules, Rule{MinBytes: 0, Decision: cands[win]})
		} else if win != prev {
			rules[len(rules)-1].MaxBytes = size
			rules = append(rules, Rule{MinBytes: size, Decision: cands[win]})
		}
		prev = win
	}
	return rules, nil
}

// simulateGrid fills times[sizeIdx][candIdx] with simulated makespans.
// Each (size, candidate) simulation is self-contained, so they run on a
// GOMAXPROCS-bounded worker pool; results land by index, keeping the
// sweep's output independent of scheduling order.
func simulateGrid(coll Collective, cands []Decision, b *binding.Binding, v distance.View, params machine.Params, sizes []int64) ([][]float64, error) {
	model, err := machine.NewModel(b, params) // immutable: shared by the workers
	if err != nil {
		return nil, err
	}
	grid := make([][]float64, len(sizes))
	for i := range grid {
		grid[i] = make([]float64, len(cands))
	}
	type job struct{ si, ci int }
	jobs := make(chan job)
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if total := len(sizes) * len(cands); workers > total {
		workers = total
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				size, d := sizes[j.si], cands[j.ci]
				s, err := CompileFor(coll, d, v, 0, size, reduceAlign)
				if err == nil {
					var res *des.Result
					if res, err = model.Simulate(s); err == nil {
						grid[j.si][j.ci] = res.Makespan
						continue
					}
				}
				select {
				case errs <- fmt.Errorf("size %d, %s: %w", size, d, err):
				default:
				}
			}
		}()
	}
	for si := range sizes {
		for ci := range cands {
			jobs <- job{si, ci}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return grid, nil
}

// CalibrateMachine runs the default calibration for a known machine name
// ("zoot", "ig", "igcluster"), producing the table this repository ships.
// sizes nil means the full standard sweep.
func CalibrateMachine(name string, sizes []int64) (*Table, error) {
	cfg, err := machineConfig(name)
	if err != nil {
		return nil, err
	}
	cfg.Sizes = sizes
	return Calibrate(cfg)
}

// machineConfig returns the shipped-table calibration configuration for a
// known machine.
func machineConfig(name string) (CalibrateConfig, error) {
	switch name {
	case "zoot":
		return CalibrateConfig{Name: "zoot16", Machine: "zoot", Procs: 16}, nil
	case "ig":
		return CalibrateConfig{Name: "ig48", Machine: "ig", Procs: 48}, nil
	case "igcluster":
		// One contiguous 48-rank communicator spanning the 4-node cluster;
		// crosssocket is meaningless across machines.
		return CalibrateConfig{Name: "igcluster48", Machine: "igcluster", Procs: 48,
			Bindings: []string{"contiguous"}}, nil
	case "igrack":
		// The full 96-rank rack platform: 2 racks × 2 switches × 2 nodes,
		// the smallest communicator exercising every network tier
		// including the cross-rack spine.
		return CalibrateConfig{Name: "igrack96", Machine: "igrack", Procs: 96,
			Bindings: []string{"contiguous"}}, nil
	default:
		return CalibrateConfig{}, fmt.Errorf("tune: no default calibration for machine %q", name)
	}
}

// DefaultMachines lists the machines with shipped default tables.
func DefaultMachines() []string { return []string{"zoot", "ig", "igcluster", "igrack"} }
