package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"distcoll/internal/distance"
)

// Metrics is a lightweight counter/histogram registry. Counters and
// histograms are created on first use and live for the registry's
// lifetime; lookups after warm-up are one RLock + map read, and counter
// increments are a single atomic add.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// dist caches DistClass's counters by base, class d at index d+1
	// (unknown at 0), so the two lookups per copy event format no name.
	dist map[string]*[distance.Max + 2]*Counter
	// lat caches opLatency's histograms by op name, so an op_end event
	// formats no name either.
	lat map[string]*Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		dist:     make(map[string]*[distance.Max + 2]*Counter),
		lat:      make(map[string]*Histogram),
	}
}

// Counter is a monotone int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter whose Add/Load are no-ops.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c, ok := m.counters[name]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counterLocked(name)
}

// counterLocked is Counter's create-on-first-use half; callers hold mu.
func (m *Metrics) counterLocked(name string) *Counter {
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge is a settable float64 — the registry's export surface for values
// that are levels rather than counts (the autotuner's fitted α/β
// parameters per distance class). Set/Load are a single atomic
// load/store of the float's bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil gauge whose Set/Load are no-ops.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g, ok := m.gauges[name]
	m.mu.RUnlock()
	if ok {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok = m.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	m.gauges[name] = g
	return g
}

// Gauges returns a snapshot of every gauge value by name.
func (m *Metrics) Gauges() map[string]float64 {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]float64, len(m.gauges))
	for name, g := range m.gauges {
		out[name] = g.Load()
	}
	return out
}

// RemovePrefix drops every counter, gauge and histogram whose name
// starts with prefix — the tenant-teardown hook: per-tenant metrics
// (tenant ids only grow) would otherwise accumulate without bound in a
// long-running daemon with tenant churn. Holders of a removed *Counter
// keep a working but orphaned counter; a later Counter(name) call for
// the same name starts fresh at zero.
func (m *Metrics) RemovePrefix(prefix string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.counters {
		if strings.HasPrefix(name, prefix) {
			delete(m.counters, name)
		}
	}
	for name := range m.gauges {
		if strings.HasPrefix(name, prefix) {
			delete(m.gauges, name)
		}
	}
	for name := range m.hists {
		if strings.HasPrefix(name, prefix) {
			delete(m.hists, name)
		}
	}
	clear(m.dist) // only a cache of counters: DistClass resolves again
	clear(m.lat)  // likewise, of histograms
}

// DistClass returns the per-distance-class counter "<base>.dist.<d>"
// ("<base>.dist.unknown" for d < 0) — the communication-locality
// accounting the paper's evaluation is built on.
func (m *Metrics) DistClass(base string, d int) *Counter {
	if m == nil {
		return nil
	}
	if d > distance.Max { // off the scale: not cached
		return m.Counter(fmt.Sprintf("%s.dist.%d", base, d))
	}
	i := max(d, -1) + 1
	m.mu.RLock()
	var c *Counter
	if row := m.dist[base]; row != nil {
		c = row[i]
	}
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	name := base + ".dist.unknown"
	if d >= 0 {
		name = fmt.Sprintf("%s.dist.%d", base, d)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	row := m.dist[base]
	if row == nil {
		row = new([distance.Max + 2]*Counter)
		m.dist[base] = row
	}
	row[i] = m.counterLocked(name)
	return row[i]
}

// Histogram observes float64 samples into exponential buckets. Bucket i
// holds samples in (base·growth^(i-1), base·growth^i]; the layout suits
// latencies spanning microseconds to seconds.
type Histogram struct {
	mu      sync.Mutex
	base    float64
	growth  float64
	buckets []int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

const (
	histBase    = 1e-6 // 1µs
	histGrowth  = 2.0
	histBuckets = 32 // top bucket ≈ 2000s
)

func newHistogram() *Histogram {
	return &Histogram{
		base:    histBase,
		growth:  histGrowth,
		buckets: make([]int64, histBuckets),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil histogram whose Observe is a no-op.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h, ok := m.hists[name]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.histogramLocked(name)
}

func (m *Metrics) histogramLocked(name string) *Histogram {
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram()
		m.hists[name] = h
	}
	return h
}

// opLatency returns the per-operation latency histogram "latency.<op>":
// the registry's own entry under that name, resolved without formatting it
// after first use.
func (m *Metrics) opLatency(op string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.lat[op]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h = m.histogramLocked("latency." + op)
	m.lat[op] = h
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := 0
	for bound := h.base; i < len(h.buckets)-1 && v > bound; bound *= h.growth {
		i++
	}
	h.buckets[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Summary returns count, mean, min and max (zeroes when empty).
func (h *Histogram) Summary() (count int64, mean, min, max float64) {
	if h == nil {
		return 0, 0, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, 0, 0, 0
	}
	return h.count, h.sum / float64(h.count), h.min, h.max
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket layout,
// or 0 when empty. Within the bucket holding the target rank the
// estimate interpolates linearly between the bucket's edges (samples
// assumed uniform inside a bucket), and the result is clamped to the
// observed [min, max] — so a single-sample histogram reports the sample
// itself, not its bucket's upper bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	lo, hi := 0.0, h.base
	for _, n := range h.buckets {
		if n > 0 && seen+n >= target {
			frac := float64(target-seen) / float64(n)
			v := lo + (hi-lo)*frac
			return math.Min(math.Max(v, h.min), h.max)
		}
		seen += n
		lo, hi = hi, hi*h.growth
	}
	return h.max
}

// Counters returns a stable snapshot of every counter, sorted by name.
func (m *Metrics) Counters() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		out[name] = c.Load()
	}
	return out
}

// String renders the registry: counters sorted by name, then histogram
// summaries.
func (m *Metrics) String() string {
	if m == nil {
		return "(metrics disabled)"
	}
	var b strings.Builder
	counters := m.Counters()
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-24s %d\n", n, counters[n])
	}
	gauges := m.Gauges()
	gnames := make([]string, 0, len(gauges))
	for n := range gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&b, "%-24s %g\n", n, gauges[n])
	}
	m.mu.RLock()
	hnames := make([]string, 0, len(m.hists))
	for n := range m.hists {
		hnames = append(hnames, n)
	}
	m.mu.RUnlock()
	sort.Strings(hnames)
	for _, n := range hnames {
		h := m.Histogram(n)
		count, mean, min, max := h.Summary()
		if count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-24s n=%d mean=%.2fµs min=%.2fµs max=%.2fµs p99≤%.2fµs\n",
			n, count, mean*1e6, min*1e6, max*1e6, h.Quantile(0.99)*1e6)
	}
	return b.String()
}
