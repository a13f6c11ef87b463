// Command bench is the repository's benchmark: live collectives on one
// long-lived World per workload, communicator churn and the simulator,
// measured end to end (default) or layer by layer (-trace 1). See
// README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "spec" {
		os.Exit(specMain())
	}
	var (
		workload = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = flag.Uint64("seed", 1, "seed of payloads, split colours and keys, and sweep order")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long each workload's timed phase measures")
		traced   = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
		outDir   = flag.String("o", "", "directory for the span file of a traced run (default: none written)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)

	specs, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// A collective that fails on one rank only could leave the others
	// waiting for ever; the run is worthless then, so bound it.
	limit := time.Duration(float64(len(specs))*(*seconds+100)) * time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: still running after %v, giving up\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	printHeader(os.Stdout)
	failed := false
	for _, w := range specs {
		var res *result
		var err error
		if *traced != 0 {
			res, err = w.measureTraced(*seed, *seconds, *outDir)
		} else {
			res, err = w.measure(*seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		table := endToEndMetrics
		if *traced != 0 {
			table = perLayerMetrics
		}
		if err := res.print(os.Stdout, table); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if res.failed > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func selectWorkloads(list string) ([]*workloadSpec, error) {
	var specs []*workloadSpec
	if list == "" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
		return specs, nil
	}
	for _, name := range strings.Split(list, ",") {
		w := workloadByName(strings.TrimSpace(name))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		specs = append(specs, w)
	}
	return specs, nil
}
