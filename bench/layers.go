package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/exec"
	"distcoll/internal/integrity"
	"distcoll/internal/knem"
	"distcoll/internal/machine"
	"distcoll/internal/mpi"
	"distcoll/internal/plancache"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// Layer probes. Only exported calls can be timed from outside the
// runtime, so a traced run decomposes each of the workload's calls by
// driving the layers underneath it stand-alone, on that call's exact
// inputs: same placement, distance view, decision, schedule and byte
// count. Every probe repeats its call and reports the median.

const (
	probeReps   = 200                    // repetitions of a cheap probe
	probeBudget = 150 * time.Millisecond // a costly probe stops early, after at least probeMinReps
	probeMinRep = 3
)

// probe times fn repeatedly and returns its median duration in µs and
// heap allocations per call.
func probe(fn func()) (us, allocs float64) {
	fn() // warm caches and lazy state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	durs := make([]float64, 0, probeReps)
	start := time.Now()
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		fn()
		durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
		if i+1 >= probeMinRep && time.Since(start) > probeBudget {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	return median(durs), float64(m1.Mallocs-m0.Mallocs) / float64(len(durs))
}

// layerInput is one call of the workload as the layers under it see it.
type layerInput struct {
	name  string
	bind  *binding.Binding // placement of the communicator's members
	view  distance.Matrix
	coll  tune.Collective // "" where the selector does not decide the call
	fixed *tune.Decision  // the sim sweep names its decision; live calls ask the selector
	cell  cellSpec        // live calls only
	root  int
	bytes int64
	align int64
}

// subBinding places the members of a group (world ranks) of a binding.
func subBinding(b *binding.Binding, group []int) (*binding.Binding, error) {
	cores := make([]int, len(group))
	for i, wr := range group {
		cores[i] = b.CoreOf(wr)
	}
	return binding.New(b.Topology(), b.Name+"-sub", cores)
}

// layerInputs lists the workload's calls. Split slots use round 1's
// seeded plan and the communicator world rank 0 lands in.
func (w *workloadSpec) layerInputs(seed uint64) ([]layerInput, error) {
	var ins []layerInput
	if w.points != nil {
		sim, err := buildSim(w.points, seed)
		if err != nil {
			return nil, err
		}
		for i := range sim.jobs {
			j := &sim.jobs[i]
			dec := j.dec
			ins = append(ins, layerInput{name: j.name, bind: j.bind, view: j.view, coll: j.point.coll,
				fixed: &dec, root: j.root, bytes: j.point.bytes, align: j.align})
		}
		return ins, nil
	}
	world, err := igCrossSocket()
	if err != nil {
		return nil, err
	}
	for si, slot := range w.slots {
		bind := world
		if slot.colors > 0 {
			var plan splitPlan
			makeSplitPlan(seed, 1, si, world.NumRanks(), slot.colors, &plan)
			group, _ := plan.group(0)
			if bind, err = subBinding(world, group); err != nil {
				return nil, err
			}
		}
		view := distance.NewMatrix(bind.Topology(), bind.Cores())
		for _, c := range slot.cells {
			if c.Kind == kindBarrier {
				continue
			}
			in := layerInput{name: slot.prefix() + c.name(), bind: bind, view: view, cell: c,
				root: c.Root, bytes: int64(c.Bytes)}
			if c.Comp == mpi.Adaptive {
				switch c.Kind {
				case kindBcast, kindBcastResilient:
					in.coll = tune.CollBcast
				case kindAllgather, kindAllgatherResilient:
					in.coll = tune.CollAllgather
				case kindReduce:
					in.coll = tune.CollReduce
				case kindAllreduce:
					in.coll, in.align = tune.CollAllreduce, mpi.OpSumInt64.ElemSize
				}
			}
			ins = append(ins, in)
		}
	}
	return ins, nil
}

// decision is what the runtime would run for the input.
func (in *layerInput) decision(sel *tune.Selector) tune.Decision {
	if in.fixed != nil {
		return *in.fixed
	}
	return sel.Select(in.coll, in.view, in.bytes)
}

// compile builds the input's schedule cold, topology construction
// included, the way the runtime's components do.
func (in *layerInput) compile(sel *tune.Selector) (*sched.Schedule, error) {
	if in.coll != "" {
		return tune.CompileFor(in.coll, in.decision(sel), in.view, in.root, in.bytes, in.align)
	}
	switch in.cell.Kind {
	case kindBcast, kindBcastResilient, kindGather, kindScatter:
		tree, err := core.BuildBroadcastTree(in.view, in.root, core.TreeOptions{})
		if err != nil {
			return nil, err
		}
		switch in.cell.Kind {
		case kindGather:
			return core.CompileGather(tree, in.bytes)
		case kindScatter:
			return core.CompileScatter(tree, in.bytes)
		}
		return core.CompileBroadcast(tree, in.bytes, 0)
	case kindAllgather, kindAllgatherResilient:
		ring, err := core.BuildAllgatherRing(in.view, core.RingOptions{})
		if err != nil {
			return nil, err
		}
		return core.CompileAllgather(ring, in.bytes)
	case kindAlltoall:
		if in.bytes < mpi.AlltoallHierarchicalLimit {
			return core.CompileAlltoallHierarchical(in.view, in.bytes)
		}
		return core.CompileAlltoallDirect(in.view.Size(), in.bytes)
	}
	return nil, fmt.Errorf("bench: no stand-alone compile for %s", in.name)
}

// distinctViews returns one input per distinct placement.
func distinctViews(ins []layerInput) []layerInput {
	var out []layerInput
	seen := map[*binding.Binding]bool{}
	for _, in := range ins {
		if !seen[in.bind] {
			seen[in.bind] = true
			out = append(out, in)
		}
	}
	return out
}

// layerSums accumulates probe results under metric names: per-call costs
// are summed over the round's calls, so each metric reads as that layer's
// cost of one round.
type layerSums map[string]float64

// time probes fn and adds its median duration to usMetric and, when
// allocsMetric is not empty, its allocations per call to that. It returns
// fn's last error.
func (sums layerSums) time(usMetric, allocsMetric string, fn func() error) error {
	var err error
	us, allocs := probe(func() { err = fn() })
	sums[usMetric] += us
	if allocsMetric != "" {
		sums[allocsMetric] += allocs
	}
	return err
}

// probeLayers measures every stand-alone layer metric on the workload's
// inputs.
func (w *workloadSpec) probeLayers(seed uint64, res *result) error {
	ins, err := w.layerInputs(seed)
	if err != nil {
		return err
	}
	sel := tune.DefaultSelector()
	cache := plancache.New(0, nil)
	dev := knem.NewDevice()
	sums := layerSums{}
	var ops, simAllocs float64
	for i := range ins {
		in := &ins[i]
		s, err := in.compile(sel)
		if err != nil {
			return fmt.Errorf("compile %s: %w", in.name, err)
		}
		ops += float64(len(s.Ops))
		sums["sched.ops_per_round"] += float64(len(s.Ops))
		sums["sched.copied_bytes_per_round"] += float64(s.TotalCopiedBytes())

		if in.coll != "" {
			_ = sums.time("tune.select_us", "tune.select_allocs", func() error {
				sel.Select(in.coll, in.view, in.bytes)
				return nil
			})
			key := plancache.Key{Topo: plancache.TopoHash(in.view), Coll: string(in.coll), Root: in.root,
				Size: in.bytes, Align: in.align, Variant: in.decision(sel).CacheKey()}
			get := func() error {
				_, _, err := cache.Get(key, func() (*sched.Schedule, error) { return s, nil })
				return err
			}
			if err := sums.time("plancache.hit_us", "plancache.hit_allocs", get); err != nil {
				return err
			}
			// A miss on a key never seen: the cache's own work, without
			// the compile it would trigger.
			if err := sums.time("plancache.miss_us", "", func() error { key.Topo++; return get() }); err != nil {
				return err
			}
		}
		err = sums.time("tune.compile_cold_us", "", func() error { _, err := in.compile(sel); return err })
		if err == nil {
			err = sums.time("sched.validate_us", "", s.Validate)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}

		// The cookies a plan declares and its reaper destroys.
		bufs := exec.Alloc(s)
		cookies := make([]knem.Cookie, len(s.Buffers))
		_ = sums.time("knem.declare_destroy_us", "", func() error {
			for b := range s.Buffers {
				cookies[b] = dev.Declare(s.Buffers[b].Rank, bufs.Bytes(sched.BufID(b)))
			}
			for _, c := range cookies {
				dev.ForceDestroy(c)
			}
			return nil
		})

		// The bare executor: no rendezvous, no cookies, no vote.
		err = sums.time("exec.run_us", "exec.run_allocs", func() error {
			if s.HasReduce() {
				return exec.RunReduce(s, bufs, mpi.OpSumInt64.Combine)
			}
			return exec.Run(s, bufs)
		})
		if err != nil {
			return fmt.Errorf("exec %s: %w", in.name, err)
		}

		params, err := machine.ParamsFor(in.bind.Topology().Name)
		if err != nil {
			return err
		}
		err = sums.time("machine.session_us", "", func() error { _, err := machine.NewSession(in.bind, params, s); return err })
		if err == nil {
			// machine.Simulate builds its session itself; the DES proper
			// is what remains once session_us is taken off, below.
			sim := layerSums{}
			err = sim.time("us", "allocs", func() error { _, err := machine.Simulate(in.bind, params, s); return err })
			sums["des.simulate_us"] += sim["us"]
			simAllocs += sim["allocs"]
		}
		if err != nil {
			return fmt.Errorf("simulate %s: %w", in.name, err)
		}
	}
	sums["des.simulate_us"] = math.Max(0, sums["des.simulate_us"]-sums["machine.session_us"])
	sums["des.simops_per_s"] = ops / (sums["des.simulate_us"] / 1e6)
	sums["des.allocs_per_simop"] = simAllocs / ops

	// Construction, once per distinct placement: what a new communicator
	// pays before its first collective.
	for _, in := range distinctViews(ins) {
		topo, cores := in.bind.Topology(), in.bind.Cores()
		cv, err := distance.NewClustered(topo, cores)
		if err != nil {
			return err
		}
		var tree *core.Tree
		var ring *core.Ring
		for _, p := range []struct {
			us, allocs string
			fn         func() error
		}{
			{"distance.matrix_us", "distance.matrix_allocs", func() error { distance.NewMatrix(topo, cores); return nil }},
			{"distance.clustered_us", "", func() error { _, err := distance.NewClustered(topo, cores); return err }},
			{"core.tree_build_us", "core.build_allocs", func() (err error) {
				tree, err = core.BuildBroadcastTree(in.view, 0, core.TreeOptions{})
				return err
			}},
			{"core.tree_fast_us", "", func() error { _, err := core.BuildBroadcastTreeFast(in.view, 0, core.TreeOptions{}); return err }},
			{"core.tree_hier_us", "", func() error { _, err := core.BuildBroadcastTreeHier(cv, 0, core.TreeOptions{}); return err }},
			{"core.ring_build_us", "core.build_allocs", func() (err error) {
				ring, err = core.BuildAllgatherRing(in.view, core.RingOptions{})
				return err
			}},
			// Compile* alone, on built topologies, at reference sizes.
			{"core.compile_us", "", func() error {
				if _, err := core.CompileBroadcast(tree, 64*kib, 0); err != nil {
					return err
				}
				_, err := core.CompileAllgather(ring, 4*kib)
				return err
			}},
		} {
			if err := sums.time(p.us, p.allocs, p.fn); err != nil {
				return fmt.Errorf("%s on %s: %w", p.us, in.bind.Name, err)
			}
		}
	}

	// Fixed-input references of the two byte-touching layers.
	const refBytes = 1 << 20
	src, dst := make([]byte, refBytes), make([]byte, refBytes)
	fillPayload(src, 1)
	cookie := dev.Declare(0, src)
	ref := layerSums{}
	err = ref.time("copy", "", func() error { return dev.CopyFrom(1, cookie, 0, dst) })
	dev.ForceDestroy(cookie)
	if err != nil {
		return err
	}
	_ = ref.time("sum", "", func() error { integrity.Sum(0, 1, 0, src); return nil })
	sums["knem.copy_MBps"] = refBytes / ref["copy"]
	sums["integrity.sum_MBps"] = refBytes / ref["sum"]

	for name, v := range sums {
		res.set(name, v)
	}
	return nil
}
