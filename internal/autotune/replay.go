package autotune

import (
	"fmt"
	"slices"
	"sort"

	"distcoll/internal/binding"
	"distcoll/internal/distance"
	"distcoll/internal/hwtopo"
	"distcoll/internal/imb"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

// ReplayConfig parameterizes an offline trace fit.
type ReplayConfig struct {
	// Name labels the resulting document and table; default
	// "<machine><np>-replay".
	Name string
	// Sizes is the message-size sweep the learned table is decided over;
	// default imb.StandardSizes().
	Sizes []int64
	// MinSamples gates the fit: fewer accepted copy samples than this is
	// an error (a trace too thin to fit produces garbage parameters, not
	// a table). Default 1.
	MinSamples int
}

// FitResult is everything a trace fit produces.
type FitResult struct {
	trace.MetaInfo // the traced world: Machine, Binding, Procs
	Samples        int64
	Model          *Model
	// Colls are the collectives that appeared in the trace, sorted.
	Colls []tune.Collective
	// Learned is the persistence document (model + decided table).
	Learned *Learned
}

// FitTrace replays a JSONL trace into a fitted model and a learned
// decision table: it rebuilds the trace's topology from the meta record,
// feeds every distance-tagged copy into the streaming estimator, fits
// the per-class model, and then decides each (collective, sweep size)
// cell by pricing the calibrator's candidate space against the fit.
// Measured decision medians (plan_cache/op_end correlations, present in
// traces from adaptive runs) take priority over model prices, exactly as
// in the online tuner's exploitation phase.
func FitTrace(events []trace.Event, cfg ReplayConfig) (*FitResult, error) {
	meta, err := trace.ParseMeta(events)
	if err != nil {
		return nil, fmt.Errorf("autotune: %w", err)
	}
	topo, err := hwtopo.ByName(meta.Machine)
	if err != nil {
		return nil, err
	}
	bind, err := binding.ByName(topo, meta.Binding, meta.Procs, 0)
	if err != nil {
		return nil, err
	}
	view, err := distance.NewClustered(topo, bind.Cores()) // what a world on this binding compiles over
	if err != nil {
		return nil, err
	}

	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("%s%d-replay", meta.Machine, meta.Procs)
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = imb.StandardSizes()
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 1
	}

	// The online tuner's fold, unbounded: a replay wants every sample, not
	// a recency window, and no bound above the trace's length is ever hit.
	f := newFold(len(events)+1, len(events)+1)
	collSeen := make(map[tune.Collective]bool)
	for _, e := range events {
		f.emit(e)
		if c := tune.Collective(e.Op); e.Kind == trace.KindCopy && !collSeen[c] && slices.Contains(tune.Collectives(), c) {
			collSeen[c] = true
		}
	}
	if f.collector.Samples() < int64(cfg.MinSamples) {
		return nil, fmt.Errorf("autotune: trace yields %d copy samples, need at least %d",
			f.collector.Samples(), cfg.MinSamples)
	}

	model := f.collector.Fit()
	pricer := NewPricer(model, view)
	fp := tune.FingerprintOf(view)
	overlay := tune.NewOverlay(nil)

	colls := make([]tune.Collective, 0, len(collSeen))
	for c := range collSeen {
		colls = append(colls, c)
	}
	sort.Slice(colls, func(i, j int) bool { return colls[i] < colls[j] })

	// Decide every (collective, sweep size): measured median wins where
	// the trace recorded one, model price otherwise.
	for _, coll := range colls {
		for _, size := range cfg.Sizes {
			list := priceCandidates(pricer, coll, size, f.cells[qcell{coll: coll, bucket: Bucket(size)}].medians())
			if len(list) == 0 {
				continue
			}
			best := list[0]
			for _, c := range list[1:] {
				if c.price < best.price { // strict <: candidate preference order on ties
					best = c
				}
			}
			rule := tune.Rule{MinBytes: size, MaxBytes: nextSize(cfg.Sizes, size), Decision: best.d}
			if err := overlay.SetLearned(coll, fp, rule); err != nil {
				return nil, err
			}
		}
	}

	res := &FitResult{
		MetaInfo: meta,
		Samples:  f.collector.Samples(),
		Model:    model,
		Colls:    colls,
	}
	res.Learned = &Learned{
		Name:    cfg.Name,
		Machine: meta.Machine,
		Binding: meta.Binding,
		Procs:   meta.Procs,
		Samples: f.collector.Samples(),
		Classes: ClassParams(model),
		Table:   overlay.LearnedTable(cfg.Name),
	}
	return res, nil
}

// nextSize returns the next larger sweep size (0 = unbounded after the
// largest), giving contiguous learned rule ranges over the sweep.
func nextSize(sizes []int64, size int64) int64 {
	next := int64(0)
	for _, s := range sizes {
		if s > size && (next == 0 || s < next) {
			next = s
		}
	}
	return next
}
