package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// bench compare A.jsonl B.jsonl [BENCHMARK.json]
//
// A set file holds one line per run of one workload:
//
//	{"workload":"steady-small","seed":3,"result":{...the run's last output line...}}
//
// For every (workload, end-to-end metric) the tool prints each set's
// median and quartiles and a verdict against the metric's bound in
// BENCHMARK.json, treating A as the parent and B as the change. aa.sh
// feeds it two sets of the same code (the A/A check); a later change feeds
// it parent and change (A/B). It exits 1 if any pair is worse.

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(paths ...string) (*benchSpec, error) {
	var lastErr error
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// setLine is one run in a set file.
type setLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   struct {
		Correct bool              `json:"correct"`
		Failed  int64             `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	} `json:"result"`
}

// loadSet reads a set file into values[workload][metric].
func loadSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l setLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !l.Result.Correct || l.Result.Failed != 0 {
			return nil, fmt.Errorf("%s:%d: %s seed %d is not a correct run", path, n, l.Workload, l.Seed)
		}
		if values[l.Workload] == nil {
			values[l.Workload] = make(map[string][]float64)
		}
		for name, m := range l.Result.Metrics {
			values[l.Workload][name] = append(values[l.Workload][name], m.Value)
		}
	}
	return values, sc.Err()
}

// quartiles returns the cut points of Python's
// statistics.quantiles(xs, n=4), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict compares the change b with the parent a for one metric.
func verdict(a, b []float64, m metricSpec) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := 0.0
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	if m.Better == "higher" {
		worse = -worse
	}
	// separated: every run of one side beats every run of the other.
	lo := func(xs []float64) float64 { return percentile(xs, 0) }
	hi := func(xs []float64) float64 { return percentile(xs, 1) }
	bAlwaysWorse, bAlwaysBetter := lo(b) > hi(a), hi(b) < lo(a)
	if m.Better == "higher" {
		bAlwaysWorse, bAlwaysBetter = bAlwaysBetter, bAlwaysWorse
	}
	wide := spread(a) > m.Bound || spread(b) > m.Bound
	switch {
	case worse > m.Bound && (!wide || bAlwaysWorse):
		return "worse", worse
	case wide && !bAlwaysBetter:
		return "unresolved", worse
	default:
		return "same", worse
	}
}

func compareMain(args []string) int {
	if len(args) < 2 || len(args) > 3 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl [BENCHMARK.json]")
		return 2
	}
	specPaths := []string{"BENCHMARK.json", "../BENCHMARK.json"}
	if len(args) == 3 {
		specPaths = args[2:]
	}
	spec, err := loadSpec(specPaths...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadSet(args[0])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadSet(args[1]); err == nil {
			return printComparison(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func printComparison(spec *benchSpec, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-13s %-22s %5s | %12s %7s | %12s %7s | %8s  %s\n",
		"workload", "metric", "bound", "A median", "spread", "B median", "spread", "B vs A", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-13s %-22s missing from a set\n", w.Name, m.Name)
				code = 1
				continue
			}
			v, worse := verdict(va, vb, m)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-13s %-22s %5.2f | %12.4g %6.1f%% | %12.4g %6.1f%% | %+7.1f%%  %s\n",
				w.Name, m.Name, m.Bound, ma, 100*spread(va), mb, 100*spread(vb), 100*worse, v)
			if v == "worse" {
				code = 1
			}
		}
	}
	fmt.Println("B vs A: positive is worse. spread: (q3-q1)/median of the set's runs, as the driver computes it.")
	return code
}
