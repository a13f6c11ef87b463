package autotune

import (
	"math"
	"testing"
	"time"

	"distcoll/internal/trace"
)

func TestBucketEdges(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{512, 9}, {1023, 9}, {1024, 10}, {1 << 20, 20}, {(1 << 20) + 1, 20},
	}
	for _, c := range cases {
		if got := Bucket(c.bytes); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
	// Bucket ranges must round-trip: every size lies in its own bucket's
	// [min, max) range.
	for _, b := range []int64{1, 2, 500, 512, 8 << 20} {
		k := Bucket(b)
		if b < BucketMin(k) || (BucketMax(k) != 0 && b >= BucketMax(k)) {
			t.Errorf("size %d outside its bucket %d range [%d, %d)", b, k, BucketMin(k), BucketMax(k))
		}
	}
	if BucketMax(62) != 0 {
		t.Errorf("BucketMax(62) = %d, want 0 (unbounded)", BucketMax(62))
	}
}

func TestTheilSenRecoversLine(t *testing.T) {
	// y = 2e-6 + 3e-9·x, exact.
	var pts []Point
	for _, x := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		pts = append(pts, Point{Bytes: x, Seconds: 2e-6 + 3e-9*float64(x), Weight: 1})
	}
	f := theilSen(pts)
	if math.Abs(f.Alpha-2e-6) > 1e-12 || math.Abs(f.SecPerByte-3e-9) > 1e-15 {
		t.Fatalf("fit (α=%g, β=%g), want (2e-6, 3e-9)", f.Alpha, f.SecPerByte)
	}
}

func TestTheilSenOutlierRobust(t *testing.T) {
	// Five clean points plus one wild outlier (a copy that hit a fault
	// retry): the median-of-slopes fit must stay on the clean line, where
	// least squares would be dragged far off.
	var pts []Point
	for _, x := range []int64{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14} {
		pts = append(pts, Point{Bytes: x, Seconds: 1e-6 + 2e-9*float64(x), Weight: 1})
	}
	pts = append(pts, Point{Bytes: 1 << 15, Seconds: 1.0, Weight: 1}) // 1s outlier
	f := theilSen(pts)
	if math.Abs(f.SecPerByte-2e-9) > 1e-12 {
		t.Fatalf("outlier dragged slope to %g, want ≈2e-9", f.SecPerByte)
	}
	if f.Alpha > 1e-5 {
		t.Fatalf("outlier dragged intercept to %g", f.Alpha)
	}
}

func TestTheilSenSinglePointAndClamping(t *testing.T) {
	f := theilSen([]Point{{Bytes: 1000, Seconds: 2e-6, Weight: 7}})
	if f.Alpha != 0 || math.Abs(f.SecPerByte-2e-9) > 1e-15 || f.Samples != 7 {
		t.Fatalf("single-point fit = %+v", f)
	}
	// A decreasing series would fit a negative slope; it must clamp to 0.
	f = theilSen([]Point{
		{Bytes: 1 << 10, Seconds: 5e-6, Weight: 1},
		{Bytes: 1 << 14, Seconds: 1e-6, Weight: 1},
	})
	if f.SecPerByte != 0 {
		t.Fatalf("negative slope not clamped: β=%g", f.SecPerByte)
	}
}

func TestModelNearestClassFallback(t *testing.T) {
	m := &Model{Classes: map[int]ClassFit{
		1: {Alpha: 1e-6, SecPerByte: 1e-9},
		5: {Alpha: 5e-6, SecPerByte: 5e-9},
	}}
	if f, ok := m.Fit(1); !ok || f.Alpha != 1e-6 {
		t.Fatalf("exact class lookup failed: %+v ok=%v", f, ok)
	}
	// Class 2 is nearer 1 than 5.
	if f, _ := m.Fit(2); f.Alpha != 1e-6 {
		t.Fatalf("class 2 fell back to %+v, want class 1's fit", f)
	}
	// Class 3 ties (1 and 5 both distance 2): must take the slower class.
	if f, _ := m.Fit(3); f.Alpha != 5e-6 {
		t.Fatalf("class 3 tie broke to %+v, want class 5's fit", f)
	}
	// Class 7 is nearer 5.
	if f, _ := m.Fit(7); f.Alpha != 5e-6 {
		t.Fatalf("class 7 fell back to %+v, want class 5's fit", f)
	}
	var empty *Model
	if _, ok := empty.Fit(1); ok {
		t.Fatal("nil model reported a fit")
	}
	if got := empty.Predict(1, 100); got != 0 {
		t.Fatalf("nil model Predict = %g", got)
	}
}

func TestCollectorWindowAndPoints(t *testing.T) {
	c := NewCollector(4)
	// Rejected samples.
	c.Observe(-1, 100, 1e-6)
	c.Observe(1, 0, 1e-6)
	c.Observe(1, 100, 0)
	if c.Samples() != 0 {
		t.Fatalf("rejected samples counted: %d", c.Samples())
	}
	// Fill one cell beyond the window; the ring keeps the last 4.
	for i := 0; i < 10; i++ {
		c.Observe(2, 1000, float64(i+1)*1e-6)
	}
	pts := c.Points()[2]
	if len(pts) != 1 {
		t.Fatalf("want 1 aggregated point, got %d", len(pts))
	}
	// Last four samples are 7,8,9,10 µs → median 8.5µs.
	if math.Abs(pts[0].Seconds-8.5e-6) > 1e-12 {
		t.Fatalf("windowed median = %g, want 8.5e-6", pts[0].Seconds)
	}
	if pts[0].Bytes != 1000 || pts[0].Weight != 4 {
		t.Fatalf("point = %+v", pts[0])
	}
	if c.Samples() != 10 {
		t.Fatalf("lifetime samples = %d, want 10", c.Samples())
	}
	if got := c.ClassSamples()[2]; got != 10 {
		t.Fatalf("class samples = %d, want 10", got)
	}
}

func TestCollectorFitAcrossBuckets(t *testing.T) {
	c := NewCollector(16)
	// One class, three size buckets on an exact line.
	for _, x := range []int64{1 << 10, 1 << 13, 1 << 16} {
		for i := 0; i < 3; i++ {
			c.Observe(4, x, 3e-6+2e-9*float64(x))
		}
	}
	m := c.Fit()
	f, ok := m.Fit(4)
	if !ok {
		t.Fatal("class 4 not fitted")
	}
	if math.Abs(f.Alpha-3e-6) > 1e-12 || math.Abs(f.SecPerByte-2e-9) > 1e-15 {
		t.Fatalf("fit (α=%g, β=%g), want (3e-6, 2e-9)", f.Alpha, f.SecPerByte)
	}
	if f.Samples != 9 {
		t.Fatalf("samples = %d, want 9", f.Samples)
	}
}

// TestWindowMedianFollowsTheRing: the cached median is dropped by every
// change of the ring — a sample appended, a sample evicted, a reset — and
// only by those.
func TestWindowMedianFollowsTheRing(t *testing.T) {
	w := &Window{}
	if w.Median() != 0 {
		t.Errorf("empty window median = %v, want 0", w.Median())
	}
	for i, want := range []float64{5, 4, 3, 3} { // ring of 3: {5} {5,3} {5,3,1} then 9 evicts 5
		w.Observe(64, []float64{5, 3, 1, 9}[i], 3)
		if got := w.Median(); got != want || w.Median() != want {
			t.Errorf("after sample %d: median = %v, want %v", i, got, want)
		}
	}
	if p := w.Point(); p.Seconds != 3 || p.Weight != 3 {
		t.Errorf("Point = %+v, want the ring's median 3 over 3 samples", p)
	}
	w.Reset()
	if w.Median() != 0 || w.Len() != 0 || w.Total() != 4 {
		t.Errorf("after Reset: median %v, len %d, total %d", w.Median(), w.Len(), w.Total())
	}
}

// TestTunerEmitLocksOnlyForFoldedKinds: most of a collective's events are
// none of the fold's three kinds, and 48 ranks emitting them must not
// queue on the tuner's lock to do nothing with them.
func TestTunerEmitLocksOnlyForFoldedKinds(t *testing.T) {
	tuner := &Tuner{fold: newFold(4, 4)}
	tuner.mu.Lock()
	defer tuner.mu.Unlock()
	done := make(chan struct{})
	go func() {
		for _, k := range []trace.Kind{trace.KindDeclare, trace.KindDestroy, trace.KindOpBegin,
			trace.KindRetry, trace.KindPlanBuild, trace.KindPlanReap, trace.KindMeta} {
			tuner.Emit(trace.Event{Kind: k, Plan: 1})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit of an event the fold ignores waited for the tuner's lock")
	}
}
