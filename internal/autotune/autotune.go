package autotune

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"distcoll/internal/distance"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

// Config tunes the Tuner.
type Config struct {
	// MinSamples gates the first recalibration: no revision is published
	// until the collector has accepted at least this many copy samples.
	// Default 64.
	MinSamples int
	// Hysteresis is the relative improvement a measured challenger must
	// show over the measured incumbent before a settled decision flips —
	// the stickiness that keeps converged cells from oscillating on
	// noise. Default 0.05 (5%).
	Hysteresis float64
	// Window bounds each estimator cell and measured-decision window to
	// the most recent Window samples. Default 64.
	Window int
	// Explore caps model-guided exploration: an unmeasured candidate is
	// only tried when its model price is within Explore× the best
	// measured price of its cell (≤ 0 means explore every candidate).
	// Default 2.
	Explore float64
}

func (c Config) withDefaults() Config {
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.05
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.Explore == 0 {
		c.Explore = 2
	}
	return c
}

// Revision is one published decision change for a (collective, size
// bucket) cell.
type Revision struct {
	Coll     tune.Collective
	MinBytes int64 // bucket lower bound, inclusive
	MaxBytes int64 // bucket upper bound, exclusive (0 = unbounded)
	Old      tune.Decision
	New      tune.Decision
	// OldProvenance is the tier the displaced decision came from
	// ("table:…", "learned", "class:…", "fallback").
	OldProvenance string
	// Explore marks a revision published to *measure* the new decision,
	// not because measurement already proved it best.
	Explore bool
}

func (r Revision) String() string {
	return fmt.Sprintf("%s[%d,%d): %s → %s (%s%s)",
		r.Coll, r.MinBytes, r.MaxBytes, r.Old, r.New, r.OldProvenance,
		map[bool]string{true: ", explore"}[r.Explore])
}

// pendingPlan correlates a plan id with the decision that produced it,
// from the plan_cache event to the op_end events carrying measured
// durations.
type pendingPlan struct {
	coll    tune.Collective
	bytes   int64
	variant string
}

// maxPending bounds the online plan-correlation map in FIFO order. It is
// the sole retirement mechanism: entries must NOT be dropped at plan_reap,
// because the runtime reaps a plan when the last member leaves the
// executor — before any member's op_end is emitted — so every live
// trace orders plan_reap ahead of the op_end events that close the
// correlation.
const maxPending = 4096

// qcell identifies one decision cell: a collective at a size bucket.
type qcell struct {
	coll   tune.Collective
	bucket int
}

// qstate is the per-cell measured-decision store. Each variant's
// measured durations live in a Window (the shared estimator ring).
type qstate struct {
	lastBytes int64 // most recent exact size seen in this bucket
	measured  map[string]*Window
}

// medians snapshots the cell's measured median per variant (nil-safe: a
// cell that never ran has none).
func (cs *qstate) medians() map[string]float64 {
	if cs == nil {
		return nil
	}
	med := make(map[string]float64, len(cs.measured))
	for variant, w := range cs.measured {
		med[variant] = w.Median()
	}
	return med
}

// priced is one candidate decision of a cell: at its measured median when
// the cell has one, at the fitted model's price otherwise.
type priced struct {
	d        tune.Decision
	price    float64
	measured bool
}

// priceCandidates prices the calibrator's candidates for coll at bytes, in
// preference order, dropping what the model cannot price. Measurement has
// priority over the model online and in a replay alike.
func priceCandidates(pricer *Pricer, coll tune.Collective, bytes int64, med map[string]float64) []priced {
	var list []priced
	for _, cand := range tune.Candidates(coll, false) {
		if m, ok := med[cand.String()]; ok {
			list = append(list, priced{d: cand, price: m, measured: true})
		} else if p, err := pricer.Price(coll, cand, 0, bytes, alignOf(coll)); err == nil {
			list = append(list, priced{d: cand, price: p})
		}
	}
	return list
}

// alignOf is the element alignment coll's schedules are compiled at.
func alignOf(coll tune.Collective) int64 {
	if coll == tune.CollAllreduce {
		return tune.ReduceAlign
	}
	return 0
}

// fold is the one reading of the event stream, online (Tuner.Emit) and
// offline (FitTrace): copy events feed the estimator, plan_cache events
// open a plan→decision correlation that op_end events close with measured
// durations. It is not self-synchronizing.
type fold struct {
	pendingCap   int        // bound of the correlation map
	collector    *Collector // its window bounds the measured windows too
	pending      map[int64]pendingPlan
	pendingOrder []int64
	cells        map[qcell]*qstate
}

// newFold bounds the fold for a live stream; a replay passes bounds no
// smaller than its trace and keeps everything.
func newFold(window, pendingCap int) fold {
	return fold{
		pendingCap: pendingCap,
		collector:  NewCollector(window),
		pending:    make(map[int64]pendingPlan),
		cells:      make(map[qcell]*qstate),
	}
}

func (f *fold) emit(e trace.Event) {
	switch e.Kind {
	case trace.KindCopy:
		f.collector.Observe(e.Dist, e.Bytes, float64(e.Dur)/1e9)
	case trace.KindPlanCache:
		if e.Plan == 0 {
			return
		}
		if _, ok := f.pending[e.Plan]; !ok {
			f.pendingOrder = append(f.pendingOrder, e.Plan)
			if len(f.pendingOrder) > f.pendingCap {
				delete(f.pending, f.pendingOrder[0])
				f.pendingOrder = f.pendingOrder[1:]
			}
		}
		f.pending[e.Plan] = pendingPlan{coll: tune.Collective(e.Op), bytes: e.Bytes, variant: e.Det}
	case trace.KindOpEnd:
		pp, ok := f.pending[e.Plan]
		if !ok || e.Err != "" || e.Dur <= 0 {
			return
		}
		k := qcell{coll: pp.coll, bucket: Bucket(pp.bytes)}
		cs := f.cells[k]
		if cs == nil {
			cs = &qstate{measured: make(map[string]*Window)}
			f.cells[k] = cs
		}
		cs.lastBytes = pp.bytes
		w := cs.measured[pp.variant]
		if w == nil {
			w = &Window{}
			cs.measured[pp.variant] = w
		}
		w.Observe(0, float64(e.Dur)/1e9, f.collector.window)
	}
}

// Tuner is the online autotuning subsystem: a trace.Sink that feeds copy
// timings into the streaming estimator, correlates plan_cache decisions
// with op_end durations, and on recalibration re-prices the calibrator's
// candidate space against the fitted model — publishing revisions into
// its tune.Overlay.
//
// Selection per cell is two-phase. While candidates remain unmeasured,
// the tuner explores: it publishes the model-cheapest unmeasured
// candidate (bounded by Config.Explore), so every plausible candidate
// acquires a measured window within at most one round per candidate.
// Once every candidate is measured, it exploits: the measured argmin
// wins, and the incumbent only flips when a challenger beats it by more
// than Config.Hysteresis. The model therefore steers *where* to look;
// measurement has the final word — a misfitted model costs exploration
// rounds, never a converged-to-wrong-answer.
type Tuner struct {
	cfg     Config
	overlay *tune.Overlay
	view    distance.View
	fp      tune.Fingerprint

	mu           sync.Mutex
	fold         // guarded by mu
	recalibating bool
	model        *Model
	flips        int64
	revisions    int64
	recals       int64
	onRevise     []func([]Revision)

	metrics *trace.Metrics
	prefix  string
}

// NewTuner builds a tuner over one communicator topology. base is the
// static selector the overlay wraps (nil for fallback-only); decisions
// flow out through Overlay().
func NewTuner(base *tune.Selector, v distance.View, cfg Config) *Tuner {
	cfg = cfg.withDefaults()
	return &Tuner{
		cfg:     cfg,
		overlay: tune.NewOverlay(base),
		view:    v,
		fp:      tune.FingerprintOf(v),
		fold:    newFold(cfg.Window, maxPending),
	}
}

// Overlay returns the decision overlay the tuner publishes into — the
// Decider the embedding runtime should select through.
func (t *Tuner) Overlay() *tune.Overlay { return t.overlay }

// Fingerprint returns the topology fingerprint the tuner learns under.
func (t *Tuner) Fingerprint() tune.Fingerprint { return t.fp }

// OnRevise registers a callback invoked (outside the tuner's lock) with
// each batch of published revisions. Registration is not synchronized
// with Emit: register before the tuner starts receiving events.
func (t *Tuner) OnRevise(fn func([]Revision)) {
	if fn != nil {
		t.onRevise = append(t.onRevise, fn)
	}
}

// MirrorMetrics mirrors the tuner's state into a metrics registry under
// prefix at each recalibration: gauges "<prefix>fit.d<class>.alpha" /
// ".beta" / ".samples" for the fitted parameters, gauge
// "<prefix>samples", counters "<prefix>recalibrations", "<prefix>revisions"
// and "<prefix>flips". Call before the tuner starts receiving events.
func (t *Tuner) MirrorMetrics(m *trace.Metrics, prefix string) {
	t.metrics = m
	t.prefix = prefix
}

// Samples returns the lifetime accepted copy-sample count.
func (t *Tuner) Samples() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.collector.Samples()
}

// Flips returns the lifetime count of revisions that displaced a
// previously learned decision (true re-decisions, not first learnings).
func (t *Tuner) Flips() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flips
}

// Revisions returns the lifetime count of published revisions.
func (t *Tuner) Revisions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.revisions
}

// Model returns the most recently fitted model (nil before the first
// recalibration).
func (t *Tuner) Model() *Model {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.model
}

// Emit implements trace.Sink: the three kinds the fold reads take the
// tuner's lock, everything else (declare, destroy, op_begin, retry,
// plan_reap — most of a collective's events) returns without it.
// Recalibration is never triggered from here: its cadence is the
// embedder's (Recalibrate).
func (t *Tuner) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindCopy, trace.KindPlanCache, trace.KindOpEnd:
		t.mu.Lock()
		t.fold.emit(e)
		t.mu.Unlock()
	}
}

// cellSnap is the lock-free working copy of one cell a recalibration
// prices against.
type cellSnap struct {
	key   qcell
	bytes int64
	med   map[string]float64 // variant → measured median seconds
}

// Recalibrate fits the model to the collector's current points and
// re-decides every cell that has seen traffic, publishing revisions into
// the overlay and returning them. It returns nil (without fitting) while
// the minimum-sample gate holds or when a recalibration is already in
// flight. The expensive part — Theil–Sen fits and candidate-schedule
// simulations — runs outside the tuner's lock, so concurrent Emit calls
// are never blocked behind pricing.
func (t *Tuner) Recalibrate() []Revision {
	t.mu.Lock()
	if t.recalibating || t.collector.Samples() < int64(t.cfg.MinSamples) {
		t.mu.Unlock()
		return nil
	}
	t.recalibating = true
	points := t.collector.Points()
	snaps := make([]cellSnap, 0, len(t.cells))
	for k, cs := range t.cells {
		snaps = append(snaps, cellSnap{key: k, bytes: cs.lastBytes, med: cs.medians()})
	}
	t.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].key.coll != snaps[j].key.coll {
			return snaps[i].key.coll < snaps[j].key.coll
		}
		return snaps[i].key.bucket < snaps[j].key.bucket
	})

	model := FitClasses(points)
	pricer := NewPricer(model, t.view)
	var revs []Revision
	for _, s := range snaps {
		if rev, ok := t.decideCell(pricer, s); ok {
			revs = append(revs, rev)
		}
	}

	t.mu.Lock()
	t.model = model
	t.recals++
	for _, r := range revs {
		t.revisions++
		if r.OldProvenance == "learned" {
			t.flips++
		}
	}
	t.mirrorLocked(model)
	callbacks := t.onRevise
	t.recalibating = false
	t.mu.Unlock()

	if len(revs) > 0 {
		for _, fn := range callbacks {
			fn(revs)
		}
	}
	return revs
}

// decideCell runs the two-phase selection for one cell and publishes at
// most one revision.
func (t *Tuner) decideCell(pricer *Pricer, s cellSnap) (Revision, bool) {
	coll := s.key.coll
	bytes := s.bytes
	if bytes <= 0 {
		return Revision{}, false
	}
	list := priceCandidates(pricer, coll, bytes, s.med)
	if len(list) == 0 {
		return Revision{}, false
	}
	var best *priced // measured argmin
	for i := range list {
		if list[i].measured && (best == nil || list[i].price < best.price) {
			best = &list[i]
		}
	}
	incumbent, prov := t.overlay.ExplainFP(coll, t.fp, bytes)
	// Exploration: the model-cheapest unmeasured candidate within the
	// explore budget (candidate preference order breaks price ties).
	// Suppressed when an exact table serves this cell: the exact tier
	// outranks learned, so a probe published there never executes and
	// never gets measured — exploration cannot close its loop, and
	// model-fit jitter would just ping-pong the shadowed rule between
	// unmeasured candidates. Exploitation (measured evidence) still
	// records into the shadowed learned tier below.
	var probe *priced
	if !strings.HasPrefix(prov, "table:") {
		for i := range list {
			c := &list[i]
			if c.measured {
				continue
			}
			if best != nil && t.cfg.Explore > 0 && c.price > t.cfg.Explore*best.price {
				continue
			}
			if probe == nil || c.price < probe.price {
				probe = c
			}
		}
	}
	chosen, explore := best, false
	if probe != nil {
		chosen, explore = probe, true
	}
	if chosen == nil || chosen.d == incumbent {
		return Revision{}, false
	}
	// Already published: when a higher tier shadows the learned rule
	// (an exact table outranks learned by design), the incumbent never
	// becomes the learned decision — without this guard the same
	// revision would republish on every recalibration, re-invalidating
	// plan-cache entries for a selection that cannot change.
	for _, r := range t.overlay.LearnedRules(coll, t.fp) {
		if r.Decision == chosen.d && r.MinBytes <= bytes && (r.MaxBytes == 0 || bytes < r.MaxBytes) {
			return Revision{}, false
		}
	}
	if !explore {
		// Exploitation: hysteresis against the incumbent's measured cost
		// (model cost when it never ran; +inf when not even priceable —
		// then anything measured beats it).
		incPrice := math.Inf(1)
		if med, ok := s.med[incumbent.String()]; ok {
			incPrice = med
		} else if p, err := pricer.Price(coll, incumbent, 0, bytes, alignOf(coll)); err == nil {
			incPrice = p
		}
		if chosen.price >= incPrice*(1-t.cfg.Hysteresis) {
			return Revision{}, false
		}
	}
	rule := tune.Rule{MinBytes: BucketMin(s.key.bucket), MaxBytes: BucketMax(s.key.bucket), Decision: chosen.d}
	if err := t.overlay.SetLearned(coll, t.fp, rule); err != nil {
		return Revision{}, false
	}
	return Revision{
		Coll:          coll,
		MinBytes:      rule.MinBytes,
		MaxBytes:      rule.MaxBytes,
		Old:           incumbent,
		New:           chosen.d,
		OldProvenance: prov,
		Explore:       explore,
	}, true
}

// mirrorLocked pushes fitted parameters and counters into the metrics
// registry. Callers hold t.mu.
func (t *Tuner) mirrorLocked(model *Model) {
	if t.metrics == nil {
		return
	}
	for class, f := range model.Classes {
		t.metrics.Gauge(fmt.Sprintf("%sfit.d%d.alpha", t.prefix, class)).Set(f.Alpha)
		t.metrics.Gauge(fmt.Sprintf("%sfit.d%d.beta", t.prefix, class)).Set(f.SecPerByte)
		t.metrics.Gauge(fmt.Sprintf("%sfit.d%d.samples", t.prefix, class)).Set(float64(f.Samples))
	}
	t.metrics.Gauge(t.prefix + "samples").Set(float64(t.collector.Samples()))
	recals := t.metrics.Counter(t.prefix + "recalibrations")
	recals.Add(t.recals - recals.Load())
	revs := t.metrics.Counter(t.prefix + "revisions")
	revs.Add(t.revisions - revs.Load())
	flips := t.metrics.Counter(t.prefix + "flips")
	flips.Add(t.flips - flips.Load())
}
