// Command distchaos is the chaos soak harness: it sweeps deterministic,
// seed-driven fault plans (transient copy failures, corrupted transfers,
// delays, rank crashes — alone and combined) across topologies and
// collectives, and checks that the robustness layer keeps its promises:
// oracle-correct buffers on every survivor, identical post-shrink
// membership everywhere, and schedule/metrics invariants intact.
//
// Usage:
//
//	distchaos sweep [flags]      run the fault grid, report violations
//	distchaos minimize [flags]   shrink one failing seed to a minimal plan
//
// Every run is a pure function of its seed: a failing scenario printed
// by "sweep" replays bit-identically under "minimize", which greedily
// reduces its fault plan (zeroing fault classes, dropping crash victims)
// to the minimal plan that still reproduces the violation.
//
// Exit status is 1 when any run ends with a violation, so CI can gate on
// it directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"distcoll/internal/chaos"
)

// stopOnSignal returns a channel that closes on SIGINT/SIGTERM, so the
// sweep finishes its in-flight run and reports a partial summary
// instead of dying mid-scenario. A second signal kills the process the
// default way (the handler is removed after the first).
func stopOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "distchaos: %v: finishing in-flight run, partial summary follows (signal again to kill)\n", s)
		signal.Stop(sig)
		close(stop)
	}()
	return stop
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "minimize":
		err = cmdMinimize(os.Args[2:])
	case "partition":
		err = cmdPartition(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "distchaos:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  distchaos sweep [-seed N] [-seeds N] [-np N] [-size N] [-for DUR]
                  [-cells LIST] [-colls LIST] [-topos LIST]
                  [-integrity=BOOL] [-repulls N] [-deadline DUR] [-v]
  distchaos minimize -seed N -cell NAME -coll NAME [-np N] [-size N]
                  [-topo NAME] [-integrity=BOOL] [-for DUR]
  distchaos partition [-cells LIST] [-repeat N] [-v]`)
}

func cellByName(name string) (chaos.Cell, error) {
	for _, c := range chaos.DefaultGrid() {
		if c.Name == name {
			return c, nil
		}
	}
	return chaos.Cell{}, fmt.Errorf("unknown cell %q (known: %s)", name, strings.Join(cellNames(), ", "))
}

func cellNames() []string {
	var names []string
	for _, c := range chaos.DefaultGrid() {
		names = append(names, c.Name)
	}
	return names
}

func pickCells(list string) ([]chaos.Cell, error) {
	if list == "" {
		return nil, nil
	}
	var cells []chaos.Cell
	for _, name := range strings.Split(list, ",") {
		c, err := cellByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "base seed; scenario seeds derive from it")
	seeds := fs.Int("seeds", 3, "scenarios per (cell, collective, topology) point")
	np := fs.Int("np", 6, "world size")
	size := fs.Int64("size", 4096, "payload / per-rank block bytes")
	budget := fs.Duration("for", 0, "wall-clock budget (0 = run the whole grid)")
	cellList := fs.String("cells", "", "comma-separated cells (default: full grid)")
	collList := fs.String("colls", "", "comma-separated collectives: any of bcast,allgather,reduce,allreduce,allreduce-tree,gather,scatter,alltoall,barrier (default: bcast,allgather,allreduce,allreduce-tree,barrier)")
	topoList := fs.String("topos", "", "comma-separated topologies (default: cross,contiguous)")
	integ := fs.Bool("integrity", true, "verify per-chunk checksums and end-to-end digests")
	repulls := fs.Int("repulls", 12, "integrity re-pull budget per chunk")
	deadline := fs.Duration("deadline", 5*time.Second, "per-operation watchdog")
	verbose := fs.Bool("v", false, "print every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cells, err := pickCells(*cellList)
	if err != nil {
		return err
	}
	cfg := chaos.Config{
		Seed:        *seed,
		Seeds:       *seeds,
		Ranks:       *np,
		Size:        *size,
		Budget:      *budget,
		Cells:       cells,
		Collectives: splitList(*collList),
		Topologies:  splitList(*topoList),
		Integrity:   *integ,
		Repulls:     *repulls,
		OpDeadline:  *deadline,
	}
	if *verbose {
		cfg.Verbose = os.Stdout
	}
	cfg.Stop = stopOnSignal()
	sum := chaos.Sweep(cfg)
	fmt.Println(sum)
	for _, f := range sum.Failing {
		fmt.Printf("FAIL %s\n", f.Scenario)
		for _, v := range f.Violations {
			fmt.Printf("     %s\n", v)
		}
		fmt.Printf("     replay: distchaos minimize -seed %d -cell %s -coll %s -topo %s -np %d -size %d -integrity=%v\n",
			f.Scenario.Seed, f.Scenario.Cell.Name, f.Scenario.Collective,
			topoOrDefault(f.Scenario.Topology), f.Scenario.Ranks, f.Scenario.Size, f.Scenario.Integrity)
	}
	if !sum.OK() {
		os.Exit(1)
	}
	return nil
}

func topoOrDefault(t string) string {
	if t == "" {
		return "cross"
	}
	return t
}

// cmdPartition runs the network-partition grid: clean splits,
// asymmetric cuts, switch-aligned cuts on the cluster topology,
// repeated partitions, and a heal racing the quorum decision. Each cell
// checks the full partition contract (one surviving component with
// oracle buffers, typed errors on the minority, fence ≡ trace, bounded
// detection); any violation exits 1.
func cmdPartition(args []string) error {
	fs := flag.NewFlagSet("partition", flag.ExitOnError)
	cellList := fs.String("cells", "", "comma-separated partition cells (default: full grid)")
	repeat := fs.Int("repeat", 1, "runs per cell (soak mode)")
	verbose := fs.Bool("v", false, "print every report, not just failures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	grid := chaos.PartitionGrid()
	if *cellList != "" {
		known := grid
		grid = grid[:0:0]
		for _, name := range splitList(*cellList) {
			found := false
			for _, c := range known {
				if c.Name == name {
					grid = append(grid, c)
					found = true
				}
			}
			if !found {
				var names []string
				for _, c := range known {
					names = append(names, c.Name)
				}
				return fmt.Errorf("unknown partition cell %q (known: %s)", name, strings.Join(names, ", "))
			}
		}
	}
	failures := 0
	for _, cell := range grid {
		for i := 0; i < *repeat; i++ {
			rep := chaos.RunPartitionCell(cell)
			if !rep.OK() {
				failures++
				fmt.Printf("FAIL %s\n", rep)
			} else if *verbose {
				fmt.Printf("PASS %s\n", rep)
			}
		}
	}
	fmt.Printf("partition grid: %d cells x %d runs, %d failures\n", len(grid), *repeat, failures)
	if failures > 0 {
		os.Exit(1)
	}
	return nil
}

func cmdMinimize(args []string) error {
	fs := flag.NewFlagSet("minimize", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "failing scenario seed (required)")
	cellName := fs.String("cell", "", "failing cell name (required)")
	coll := fs.String("coll", "", "failing collective (required)")
	topo := fs.String("topo", "cross", "topology")
	np := fs.Int("np", 6, "world size")
	size := fs.Int64("size", 4096, "payload / per-rank block bytes")
	integ := fs.Bool("integrity", true, "integrity verification during replay")
	repulls := fs.Int("repulls", 12, "integrity re-pull budget per chunk")
	budget := fs.Duration("for", time.Minute, "minimization budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cellName == "" || *coll == "" {
		return fmt.Errorf("minimize needs -cell and -coll (from the sweep's replay line)")
	}
	cell, err := cellByName(*cellName)
	if err != nil {
		return err
	}
	sc := chaos.Scenario{
		Seed:       *seed,
		Ranks:      *np,
		Topology:   *topo,
		Collective: *coll,
		Size:       *size,
		Cell:       cell,
		Integrity:  *integ,
		Repulls:    *repulls,
	}
	plan, res, runs, ok := chaos.Minimize(sc, *budget)
	if !ok {
		fmt.Printf("scenario %s did not reproduce a violation\n", sc)
		return nil
	}
	fmt.Printf("minimized after %d runs: %s\n", runs, sc)
	fmt.Printf("  plan: seed=%d copyfail=%.2f corrupt=%.2f delay=%.2f crashes=%v\n",
		plan.Seed, plan.CopyFailProb, plan.CorruptProb, plan.DelayProb, plan.CrashAtOp)
	fmt.Println("  surviving violations:")
	for _, v := range res.Violations {
		fmt.Printf("    %s\n", v)
	}
	os.Exit(1)
	return nil
}
