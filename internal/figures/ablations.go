package figures

import (
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
	"distcoll/internal/sched"
	"distcoll/internal/tune"
)

// This file holds the series no tune.Decision names, and so the only
// drivers that call a core compiler directly instead of going through
// TimeOf: Fig. 8's explicit level sets, the ring tie-break, and the two
// alltoall strategies swept past the block size where the runtime switches
// between them. (The chunk ablation is here with them, but a chunk
// override is something a decision can say.)

// compiled times, at every size, a schedule built outside
// tune.CompileFor.
func compiled(m *machine.Model, build func(size int64) (*sched.Schedule, error)) imb.Runner {
	return func(size int64) (float64, error) {
		s, err := build(size)
		if err != nil {
			return 0, err
		}
		return makespan(m, s)
	}
}

// LevelsBcastTime simulates one distance-aware KNEM broadcast over the
// Algorithm-1 tree built with an explicit level set — Fig. 8's "4 sets"
// (core.CollapseBelow(2)) and "linear" (core.FlatLevels) topologies.
func LevelsBcastTime(m *machine.Model, root int, size int64, levels core.Levels) (float64, error) {
	tree, err := core.BuildBroadcastTree(view(m), root, core.TreeOptions{Levels: levels})
	if err != nil {
		return 0, err
	}
	s, err := core.CompileBroadcast(tree, size, 0)
	if err != nil {
		return 0, err
	}
	return makespan(m, s)
}

// AblationChunk sweeps the pipeline chunk size for an 8 MB distance-aware
// broadcast on IG (design-choice bench for the §IV-B pipelining policy).
// Points use Size = chunk bytes; bandwidth is the resulting aggregate MB/s
// for the fixed 8 MB message.
func AblationChunk(chunks []int64) (*Figure, error) {
	if chunks == nil {
		chunks = []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 8 << 20}
	}
	const n, root = 48, 0
	const msg = int64(8 << 20)
	cont, cross, err := igModels(n)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "chunk", Title: "Pipeline chunk-size ablation: 8MB KNEM broadcast on IG", Procs: n}
	chunked := func(m *machine.Model) curve {
		return curve{"KNEMColl_" + m.Binding().Name, func(chunk int64) (float64, error) {
			return TimeOf(m, tune.CollBcast, tune.Decision{Component: tune.ComponentKNEM, Chunk: chunk}, root, msg, 0)
		}}
	}
	err = fig.sweep(chunks, func(p int, _ int64, sec float64) float64 { return imb.BcastBandwidth(p, msg, sec) },
		chunked(cont), chunked(cross))
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// AblationRingOrdering compares the two Algorithm-2 tie-breaks (canonical
// gap-first vs the literal lexicographic text) for the distance-aware
// allgather on IG under a random binding: cluster structure is identical,
// so the curves should coincide — the bench documents that the tie-break
// is performance-neutral.
func AblationRingOrdering(sizes []int64) (*Figure, error) {
	if sizes == nil {
		sizes = imb.StandardSizes()
	}
	const n = 48
	b, err := binding.Random(hwtopo.NewIG(), n, 7)
	if err != nil {
		return nil, err
	}
	model, err := machine.NewModel(b, machine.IGParams())
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "ordering", Title: "Ring tie-break ablation: KNEM allgather on IG, random binding", Procs: n}
	var curves []curve
	for _, ord := range []struct {
		label string
		o     core.RingOrdering
	}{{"canonical", core.RingCanonical}, {"lexicographic", core.RingLexicographic}} {
		ring, err := core.BuildAllgatherRing(view(model), core.RingOptions{Ordering: ord.o})
		if err != nil {
			return nil, err
		}
		curves = append(curves, curve{ord.label, compiled(model, func(block int64) (*sched.Schedule, error) {
			return core.CompileAllgather(ring, block)
		})})
	}
	if err := fig.sweep(sizes, imb.AllgatherBandwidth, curves...); err != nil {
		return nil, err
	}
	return fig, nil
}

// ExtAlltoall compares alltoall strategies on the 4-node cluster: the
// rank-based pairwise exchange, the direct single-copy pull, and the
// distance-aware hierarchical aggregation (ranks grouped by machine, ONE
// network transfer per ordered node pair instead of 144 small ones).
// Aggregation wins at small blocks where the per-message network cost
// dominates; direct/pairwise catch up at large blocks where volume rules —
// the measurement behind tune.AlltoallHierarchicalLimit, which is why the
// two distance-aware strategies are each swept over the whole range here
// rather than through the decision that switches between them.
// Bandwidth = P·(P−1)·block/t.
func ExtAlltoall(sizes []int64) (*Figure, error) {
	if sizes == nil {
		// Per-rank block sizes; alltoall buffers are P× larger, so sweep a
		// smaller range than the other figures.
		for s := int64(64); s <= 256<<10; s <<= 1 {
			sizes = append(sizes, s)
		}
	}
	cross, err := binding.CrossSocket(hwtopo.NewIGCluster(), 48) // scatters ranks across all 4 nodes
	if err != nil {
		return nil, err
	}
	model, err := machine.NewModel(cross, machine.ClusterParams(machine.IGParams()))
	if err != nil {
		return nil, err
	}
	const n = 48
	fig := &Figure{ID: "alltoall", Title: "Alltoall on a 4-node cluster, 48 processes, scattered binding: strategies", Procs: n}
	err = fig.sweep(sizes,
		func(p int, block int64, sec float64) float64 {
			return float64(p) * float64(p-1) * float64(block) / sec / imb.MB
		},
		curve{"pairwise(tuned)", decided(model, tune.CollAlltoall, tuned, 0, 0)},
		curve{"direct", compiled(model, func(b int64) (*sched.Schedule, error) {
			return core.CompileAlltoallDirect(n, b)
		})},
		curve{"hierarchical", compiled(model, func(b int64) (*sched.Schedule, error) {
			return core.CompileAlltoallHierarchical(view(model), b)
		})})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
