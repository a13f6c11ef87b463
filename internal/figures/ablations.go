package figures

import (
	"distcoll/internal/binding"
	"distcoll/internal/core"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/machine"
)

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
	for _, m := range []*machine.Model{cont, cross} {
		tree, err := core.BuildBroadcastTree(view(m), root, core.TreeOptions{})
		if err != nil {
			return nil, err
		}
		s, err := imb.Sweep("KNEMColl_"+m.Binding().Name, chunks,
			func(chunk int64) (float64, error) {
				sched, err := core.CompileBroadcast(tree, msg, chunk)
				if err != nil {
					return 0, err
				}
				return makespan(m, sched)
			},
			func(_ int64, sec float64) float64 { return imb.BcastBandwidth(n, msg, sec) })
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
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
	ig := hwtopo.NewIG()
	b, err := binding.Random(ig, n, 7)
	if err != nil {
		return nil, err
	}
	model, err := machine.NewModel(b, machine.IGParams())
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: "ordering", Title: "Ring tie-break ablation: KNEM allgather on IG, random binding", Procs: n}
	for _, ord := range []struct {
		label string
		o     core.RingOrdering
	}{{"canonical", core.RingCanonical}, {"lexicographic", core.RingLexicographic}} {
		ord := ord
		m := distance.NewMatrix(ig, b.Cores())
		ring, err := core.BuildAllgatherRing(m, core.RingOptions{Ordering: ord.o})
		if err != nil {
			return nil, err
		}
		s, err := imb.Sweep(ord.label, sizes,
			func(block int64) (float64, error) {
				sched, err := core.CompileAllgather(ring, block)
				if err != nil {
					return 0, err
				}
				return makespan(model, sched)
			},
			func(block int64, sec float64) float64 { return imb.AllgatherBandwidth(n, block, sec) })
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
