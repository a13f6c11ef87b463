package autotune

import "sort"

// Bucket maps a byte count to its power-of-two size bucket: bucket b
// covers [2^b, 2^(b+1)). Bytes ≤ 0 map to bucket 0.
func Bucket(bytes int64) int {
	b := 0
	for v := bytes; v > 1; v >>= 1 {
		b++
	}
	return b
}

// BucketMin returns the smallest byte count in bucket b.
func BucketMin(b int) int64 {
	if b <= 0 {
		return 0
	}
	return 1 << uint(b)
}

// BucketMax returns the exclusive upper bound of bucket b (0 = unbounded
// when the shift would overflow).
func BucketMax(b int) int64 {
	if b < 0 {
		b = 0
	}
	if b >= 62 {
		return 0
	}
	return 1 << uint(b+1)
}

// cellKey identifies one streaming-estimator cell: copies of one
// distance class in one size bucket.
type cellKey struct {
	class  int
	bucket int
}

// Window is a bounded ring of recent timing samples — the reusable
// streaming-estimator primitive. The Collector keys one Window per
// (distance class, size bucket); the gray-failure scorer in
// internal/health keys the same type per (src, dst) endpoint pair. It is
// not self-synchronizing — callers serialize access under their own lock.
type Window struct {
	secs  []float64 // ring storage
	next  int       // next write position
	bytes int64     // sum of sizes of the samples currently in the ring
	sizes []int64   // ring of sizes matching secs
	total int       // lifetime sample count
	med   float64   // Median() of the current ring while medOK
	medOK bool
}

// Observe appends one sample of bytes moved in sec seconds, evicting the
// oldest sample once the ring holds window entries (minimum 1).
func (w *Window) Observe(bytes int64, sec float64, window int) {
	if window < 1 {
		window = 1
	}
	if len(w.secs) < window {
		w.secs = append(w.secs, sec)
		w.sizes = append(w.sizes, bytes)
		w.bytes += bytes
	} else {
		w.bytes += bytes - w.sizes[w.next]
		w.secs[w.next] = sec
		w.sizes[w.next] = bytes
		w.next = (w.next + 1) % window
	}
	w.total++
	w.medOK = false
}

// Median returns the median duration of the samples currently in the
// ring (0 when empty). The copy-and-sort is paid once per change of the
// ring, not once per call: a health scan asks every window twice.
func (w *Window) Median() float64 {
	if !w.medOK {
		w.med, w.medOK = Median(w.secs), true
	}
	return w.med
}

// Len returns the number of samples currently in the ring.
func (w *Window) Len() int { return len(w.secs) }

// Total returns the lifetime sample count, including evicted samples.
func (w *Window) Total() int { return w.total }

// Reset discards all samples but keeps the lifetime count.
func (w *Window) Reset() {
	w.secs = w.secs[:0]
	w.sizes = w.sizes[:0]
	w.bytes = 0
	w.next = 0
	w.medOK = false
}

// Point aggregates the ring into one fit point: median duration at the
// mean size.
func (w *Window) Point() Point {
	n := len(w.secs)
	if n == 0 {
		return Point{}
	}
	return Point{
		Bytes:   w.bytes / int64(n),
		Seconds: w.Median(),
		Weight:  n,
	}
}

// Collector aggregates per-copy timing samples into per-(distance class,
// size bucket) cells. It is not self-synchronizing — the Tuner serializes
// access under its own lock; standalone users (trace replay) are
// single-goroutine.
type Collector struct {
	window int
	cells  map[cellKey]*Window
	total  int64
}

// NewCollector creates a collector whose cells keep the most recent
// window samples (minimum 1).
func NewCollector(window int) *Collector {
	if window < 1 {
		window = 1
	}
	return &Collector{window: window, cells: make(map[cellKey]*Window)}
}

// Observe records one copy: bytes moved across an edge of the given
// distance class in sec seconds. Non-positive sizes or durations and
// out-of-range classes are dropped — they carry no model information.
func (c *Collector) Observe(class int, bytes int64, sec float64) {
	if class < 0 || bytes <= 0 || sec <= 0 {
		return
	}
	k := cellKey{class: class, bucket: Bucket(bytes)}
	ce := c.cells[k]
	if ce == nil {
		ce = &Window{}
		c.cells[k] = ce
	}
	ce.Observe(bytes, sec, c.window)
	c.total++
}

// Samples returns the lifetime number of accepted samples.
func (c *Collector) Samples() int64 { return c.total }

// ClassSamples returns the lifetime accepted samples per distance class.
func (c *Collector) ClassSamples() map[int]int64 {
	out := make(map[int]int64)
	for k, ce := range c.cells {
		out[k.class] += int64(ce.Total())
	}
	return out
}

// Points renders the current cells as fit points per distance class,
// sorted by size within each class.
func (c *Collector) Points() map[int][]Point {
	out := make(map[int][]Point)
	for k, ce := range c.cells {
		if ce.Len() == 0 {
			continue
		}
		out[k.class] = append(out[k.class], ce.Point())
	}
	for class := range out {
		pts := out[class]
		sort.Slice(pts, func(i, j int) bool { return pts[i].Bytes < pts[j].Bytes })
		out[class] = pts
	}
	return out
}

// Fit fits the model to the collector's current points.
func (c *Collector) Fit() *Model { return FitClasses(c.Points()) }
