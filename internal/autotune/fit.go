// Package autotune closes the loop the shipped decision tables leave
// open: it watches the runtime's own trace stream, fits the paper's
// per-distance-class cost model to the copies it actually observes, and
// re-prices the calibrator's decision space against the fitted model —
// publishing revised decisions through a tune.Overlay when measurement
// says the static tables chose wrong (DESIGN.md §14).
//
// The model is the Hockney form the machine calibration uses offline:
// one (α, β) pair per process-distance class, T(b) = α_d + β_d·b for a
// b-byte copy across an edge of class d. Fitting is Theil–Sen (median of
// pairwise slopes), so a tail of contended or faulted copies cannot drag
// the estimate the way least squares would.
package autotune

import (
	"fmt"
	"math"
	"sort"

	"distcoll/internal/distance"
)

// Point is one aggregated observation: copies of Bytes took Seconds at
// the median.
type Point struct {
	Bytes   int64
	Seconds float64
	// Weight is the number of raw samples behind the point.
	Weight int
}

// ClassFit is the fitted Hockney parameters of one distance class.
type ClassFit struct {
	// Alpha is the fixed per-copy cost in seconds.
	Alpha float64
	// SecPerByte is the inverse bandwidth (β) in seconds per byte.
	SecPerByte float64
	// Samples is the raw sample count the fit is based on.
	Samples int
}

// Predict evaluates the fitted line at bytes.
func (c ClassFit) Predict(bytes int64) float64 {
	return c.Alpha + c.SecPerByte*float64(bytes)
}

// Model holds the fitted parameters for every distance class that had
// data, indexed by class value (0 … distance.Max).
type Model struct {
	Classes map[int]ClassFit
}

// FitClasses runs a Theil–Sen fit per distance class over aggregated
// points. Classes with a single point get Alpha 0 and SecPerByte y/x
// (a line through the origin — the only unbiased one-point choice);
// negative fitted parameters are clamped to zero, because a cost model
// with negative latency or bandwidth prices some schedule at less than
// free and the pricer's argmin becomes meaningless.
func FitClasses(points map[int][]Point) *Model {
	m := &Model{Classes: make(map[int]ClassFit, len(points))}
	for class, pts := range points {
		if class < 0 || class > distance.Max || len(pts) == 0 {
			continue
		}
		m.Classes[class] = theilSen(pts)
	}
	return m
}

// theilSen fits one class: slope = median over all pairwise slopes,
// intercept = median of (y − slope·x).
func theilSen(pts []Point) ClassFit {
	samples := 0
	for _, p := range pts {
		samples += p.Weight
		if p.Weight <= 0 {
			samples++
		}
	}
	if len(pts) == 1 {
		p := pts[0]
		spb := 0.0
		if p.Bytes > 0 {
			spb = p.Seconds / float64(p.Bytes)
		}
		return ClassFit{Alpha: 0, SecPerByte: math.Max(spb, 0), Samples: samples}
	}
	slopes := make([]float64, 0, len(pts)*(len(pts)-1)/2)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dx := float64(pts[j].Bytes - pts[i].Bytes)
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (pts[j].Seconds-pts[i].Seconds)/dx)
		}
	}
	if len(slopes) == 0 {
		// All points share one x: collapse to the single-point case on
		// the median y.
		ys := make([]float64, len(pts))
		for i, p := range pts {
			ys[i] = p.Seconds
		}
		return theilSen([]Point{{Bytes: pts[0].Bytes, Seconds: Median(ys), Weight: samples}})
	}
	slope := math.Max(Median(slopes), 0)
	resid := make([]float64, len(pts))
	for i, p := range pts {
		resid[i] = p.Seconds - slope*float64(p.Bytes)
	}
	return ClassFit{
		Alpha:      math.Max(Median(resid), 0),
		SecPerByte: slope,
		Samples:    samples,
	}
}

// Median returns the median of v (0 when empty) without reordering it.
func Median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Fit looks up the fitted parameters of one class, falling back to the
// nearest fitted class when this one never appeared in the trace — the
// neighbor on the distance scale is the closest cost analogue the data
// offers. The second return is false when the model is empty.
func (m *Model) Fit(class int) (ClassFit, bool) {
	if m == nil || len(m.Classes) == 0 {
		return ClassFit{}, false
	}
	if f, ok := m.Classes[class]; ok {
		return f, true
	}
	best, bestDist := ClassFit{}, math.MaxInt
	for c, f := range m.Classes {
		d := c - class
		if d < 0 {
			d = -d
		}
		// Tie toward the slower (higher) class: over-pricing an unknown
		// edge is safer than under-pricing it.
		if d < bestDist || (d == bestDist && c > class) {
			best, bestDist = f, d
		}
	}
	return best, true
}

// Predict evaluates the model for one edge (0 when the model is empty).
func (m *Model) Predict(class int, bytes int64) float64 {
	f, ok := m.Fit(class)
	if !ok {
		return 0
	}
	return f.Predict(bytes)
}

// String renders the fitted classes compactly, sorted by class.
func (m *Model) String() string {
	if m == nil || len(m.Classes) == 0 {
		return "(no fitted classes)"
	}
	classes := make([]int, 0, len(m.Classes))
	for c := range m.Classes {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	out := ""
	for _, c := range classes {
		f := m.Classes[c]
		out += fmt.Sprintf("d%d: α=%.3gs β=%.3gs/B n=%d\n", c, f.Alpha, f.SecPerByte, f.Samples)
	}
	return out
}
