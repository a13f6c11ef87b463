// Command distbench regenerates the paper's evaluation figures on the
// simulated Zoot and IG machines.
//
// Usage:
//
//	distbench -fig 6            # one figure (2, 6, 7, 8, chunk, ordering, allreduce, cluster, alltoall, adaptive-bcast, adaptive-allgather)
//	distbench -all              # every paper figure
//	distbench -fig 7 -csv       # CSV instead of a table
//	distbench -fig 6 -sizes 1024,65536,8388608
//	distbench -explain bcast -machine ig -binding crosssocket -component tuned -size 1048576
//	distbench ledger [-o BENCH_all.json] [BENCH_*.json ...]
//
// ledger merges the per-job BENCH_*.json CI artifacts (go test -json
// streams and single-document ledgers) into one BENCH_all.json and
// exits 1 if any merged stream recorded a failed test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"distcoll/internal/figures"
	"distcoll/internal/imb"
	"distcoll/internal/trace"
)

func main() {
	// The ledger subcommand has its own flag set; intercept it before the
	// figure flags parse.
	if len(os.Args) > 1 && os.Args[1] == "ledger" {
		if err := runLedger(os.Args[2:], os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fig := flag.String("fig", "", "figure id to reproduce: 2, 6, 7, 8, chunk, ordering, allreduce, cluster, alltoall, adaptive-bcast, adaptive-allgather")
	all := flag.Bool("all", false, "reproduce every paper figure (2, 6, 7, 8)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	sizesFlag := flag.String("sizes", "", "comma-separated message sizes in bytes (default: the paper's sweep)")
	explain := flag.String("explain", "", "diagnose one run instead of sweeping: bcast, allgather, or any other collective tune.CompileFor compiles")
	machineName := flag.String("machine", "ig", "machine for -explain: zoot, ig, igcluster")
	bindName := flag.String("binding", "crosssocket", "binding for -explain")
	component := flag.String("component", "knemcoll", "component for -explain: knemcoll, tuned, mpich2")
	size := flag.Int64("size", 1<<20, "message size for -explain")
	flag.Parse()

	if *explain != "" {
		runExplain(*explain, *machineName, *bindName, *component, *size)
		return
	}

	var sizes []int64
	if *sizesFlag != "" {
		for _, tok := range strings.Split(*sizesFlag, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
			if err != nil || v <= 0 {
				fatalf("invalid size %q", tok)
			}
			sizes = append(sizes, v)
		}
	}

	var figs []*figures.Figure
	switch {
	case *all:
		fs, err := figures.All(sizes)
		if err != nil {
			fatalf("%v", err)
		}
		figs = fs
	case *fig != "":
		f, err := figures.ByID(*fig, sizes)
		if err != nil {
			fatalf("%v", err)
		}
		figs = []*figures.Figure{f}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for i, f := range figs {
		if i > 0 {
			fmt.Println()
		}
		var err error
		if *csv {
			fmt.Printf("# Figure %s: %s\n", f.ID, f.Title)
			err = imb.WriteCSV(os.Stdout, f.Series)
		} else {
			err = imb.WriteTable(os.Stdout, fmt.Sprintf("Figure %s: %s (%d processes, MB/s)", f.ID, f.Title, f.Procs), f.Series)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}
}

// runExplain simulates one configuration and prints trace diagnostics:
// makespan, hottest resources, timeline, critical path.
func runExplain(op, machineName, bindName, component string, size int64) {
	s, res, b, err := figures.Explain(machineName, bindName, component, op, size)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s of %s on %s (%s binding, %s component): %.1f µs\n\n",
		op, imb.FormatSize(size), machineName, b.Name, component, res.Makespan*1e6)
	fmt.Printf("hottest resources: %v\n\n", trace.HotResources(res, 5))
	fmt.Print(trace.RenderTimeline(s, res, 72))
	fmt.Println()
	steps := trace.CriticalPath(s, res)
	if len(steps) > 12 {
		fmt.Printf("(critical path truncated to the last 12 of %d steps)\n", len(steps))
		steps = steps[len(steps)-12:]
	}
	fmt.Print(trace.RenderCriticalPath(steps))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "distbench: "+format+"\n", args...)
	os.Exit(1)
}
