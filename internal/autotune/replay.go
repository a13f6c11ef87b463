package autotune

import (
	"fmt"
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
	// Window bounds the estimator cells; default 0 (unbounded — offline
	// replay wants every sample, not a recency window).
	Window int
}

// FitResult is everything a trace fit produces.
type FitResult struct {
	Machine string
	Binding string
	Procs   int
	Samples int64
	Model   *Model
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
	metas := trace.Filter(events, trace.KindMeta)
	if len(metas) == 0 {
		return nil, fmt.Errorf("autotune: trace has no meta record; cannot rebuild the topology")
	}
	var machine, bindName string
	var np int
	if _, err := fmt.Sscanf(metas[0].Det, "machine=%s bind=%s np=%d", &machine, &bindName, &np); err != nil {
		return nil, fmt.Errorf("autotune: unparseable meta record %q: %w", metas[0].Det, err)
	}
	topo, err := hwtopo.ByName(machine)
	if err != nil {
		return nil, err
	}
	bind, err := binding.ByName(topo, bindName, np, 0)
	if err != nil {
		return nil, err
	}
	view, err := distance.NewClustered(topo, bind.Cores()) // what a world on this binding compiles over
	if err != nil {
		return nil, err
	}

	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("%s%d-replay", machine, np)
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = imb.StandardSizes()
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 1
	}
	window := cfg.Window
	if window <= 0 {
		window = len(events) + 1
	}

	// Feed the estimator and the plan→decision correlation, mirroring the
	// online tuner's Emit handling.
	collector := NewCollector(window)
	pending := make(map[int64]pendingPlan)
	type mcell struct {
		bytes int64
		secs  map[string][]float64
	}
	measured := make(map[qcell]*mcell)
	collSeen := make(map[tune.Collective]bool)
	for _, e := range events {
		switch e.Kind {
		case trace.KindCopy:
			if e.Dist >= 0 && e.Bytes > 0 && e.Dur > 0 {
				collector.Observe(e.Dist, e.Bytes, float64(e.Dur)/1e9)
			}
			if c := tune.Collective(e.Op); validColl(c) {
				collSeen[c] = true
			}
		case trace.KindPlanCache:
			if c := tune.Collective(e.Op); validColl(c) && e.Plan != 0 {
				pending[e.Plan] = pendingPlan{coll: c, bytes: e.Bytes, variant: e.Det}
			}
		case trace.KindOpEnd:
			if pp, ok := pending[e.Plan]; ok && e.Err == "" && e.Dur > 0 {
				k := qcell{coll: pp.coll, bucket: Bucket(pp.bytes)}
				mc := measured[k]
				if mc == nil {
					mc = &mcell{secs: make(map[string][]float64)}
					measured[k] = mc
				}
				mc.bytes = pp.bytes
				mc.secs[pp.variant] = append(mc.secs[pp.variant], float64(e.Dur)/1e9)
			}
		}
	}
	if collector.Samples() < int64(cfg.MinSamples) {
		return nil, fmt.Errorf("autotune: trace yields %d copy samples, need at least %d",
			collector.Samples(), cfg.MinSamples)
	}

	model := collector.Fit()
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
		var align int64
		if coll == tune.CollAllreduce {
			align = tune.ReduceAlign
		}
		for _, size := range cfg.Sizes {
			mc := measured[qcell{coll: coll, bucket: Bucket(size)}]
			var best tune.Decision
			bestPrice, found := 0.0, false
			for _, cand := range tune.Candidates(coll, false) {
				var price float64
				if mc != nil && len(mc.secs[cand.String()]) > 0 {
					price = median(mc.secs[cand.String()])
				} else {
					p, err := pricer.Price(coll, cand, 0, size, align)
					if err != nil {
						continue
					}
					price = p
				}
				// Strict < keeps candidate preference order on ties.
				if !found || price < bestPrice {
					best, bestPrice, found = cand, price, true
				}
			}
			if !found {
				continue
			}
			rule := tune.Rule{MinBytes: size, MaxBytes: nextSize(cfg.Sizes, size), Decision: best}
			if err := overlay.SetLearned(coll, fp, rule); err != nil {
				return nil, err
			}
		}
	}

	res := &FitResult{
		Machine: machine,
		Binding: bindName,
		Procs:   np,
		Samples: collector.Samples(),
		Model:   model,
		Colls:   colls,
	}
	res.Learned = &Learned{
		Name:    cfg.Name,
		Machine: machine,
		Binding: bindName,
		Procs:   np,
		Samples: collector.Samples(),
		Classes: ClassParams(model),
		Table:   overlay.LearnedTable(cfg.Name),
	}
	return res, nil
}

func validColl(c tune.Collective) bool {
	for _, k := range tune.Collectives() {
		if c == k {
			return true
		}
	}
	return false
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
