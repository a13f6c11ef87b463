package chaos

import (
	"fmt"
	"io"
	"time"
)

// Config bounds a soak sweep. Zero values pick the defaults below.
type Config struct {
	Seed        int64         // base seed; scenario seeds derive from it
	Seeds       int           // scenarios per (cell, collective, topology) point
	Ranks       int           // world size (default 6)
	Size        int64         // payload / block size (default 4096)
	Budget      time.Duration // wall-clock bound; 0 = run the whole grid
	Cells       []Cell        // default DefaultGrid()
	Collectives []string      // rows of the collectives table; default five columns (allreduce runs as ring and as tree)
	Topologies  []string      // default {"cross", "contiguous"}
	Integrity   bool          // run with integrity verification on
	Repulls     int           // integrity re-pull budget (0 = default)
	OpDeadline  time.Duration // per-op watchdog (default 5s)
	Verbose     io.Writer     // per-run progress lines; nil = silent
	// Stop, when closed, interrupts the sweep between runs: the run in
	// flight finishes (a half-executed scenario would report nonsense),
	// then Sweep returns a partial Summary with Interrupted set.
	Stop <-chan struct{}
}

func (cfg *Config) defaults() {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 3
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 6
	}
	if cfg.Size <= 0 {
		cfg.Size = defaultSize
	}
	if len(cfg.Cells) == 0 {
		cfg.Cells = DefaultGrid()
	}
	if len(cfg.Collectives) == 0 {
		cfg.Collectives = []string{"bcast", "allgather", "allreduce", treeAllreduce, "barrier"}
	}
	if len(cfg.Topologies) == 0 {
		cfg.Topologies = []string{"cross", "contiguous"}
	}
	if cfg.OpDeadline <= 0 {
		cfg.OpDeadline = 5 * time.Second
	}
}

// Summary aggregates a sweep.
type Summary struct {
	Runs     int
	Passed   int
	Failing  []*Result // runs with violations
	TimedOut bool      // the budget expired before the grid finished
	// Interrupted: Config.Stop fired; the summary covers the runs that
	// finished before the interrupt.
	Interrupted bool
	Elapsed     time.Duration
	Completed   int // total completing ranks across all runs
}

// OK reports whether the whole sweep passed.
func (s *Summary) OK() bool { return len(s.Failing) == 0 }

func (s *Summary) String() string {
	status := "PASS"
	if !s.OK() {
		status = "FAIL"
	}
	out := fmt.Sprintf("chaos sweep %s: %d runs, %d passed, %d failing, %d completing ranks in %v",
		status, s.Runs, s.Passed, len(s.Failing), s.Completed, s.Elapsed.Round(time.Millisecond))
	if s.TimedOut {
		out += " (budget expired before full grid)"
	}
	if s.Interrupted {
		out += " (interrupted before full grid)"
	}
	return out
}

// stopped reports whether the stop channel has fired.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Sweep runs the fault grid: every (cell × collective × topology × seed)
// scenario, until the grid is exhausted or the wall-clock budget runs
// out. Failing results carry the exact scenario and plan for replay.
func Sweep(cfg Config) *Summary {
	cfg.defaults()
	start := time.Now()
	sum := &Summary{}
	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	seedStep := int64(1)
	for _, cell := range cfg.Cells {
		for _, coll := range cfg.Collectives {
			for _, topo := range cfg.Topologies {
				for i := 0; i < cfg.Seeds; i++ {
					if !deadline.IsZero() && time.Now().After(deadline) {
						sum.TimedOut = true
						sum.Elapsed = time.Since(start)
						return sum
					}
					if stopped(cfg.Stop) {
						sum.Interrupted = true
						sum.Elapsed = time.Since(start)
						return sum
					}
					sc := Scenario{
						Seed:       cfg.Seed + seedStep,
						Ranks:      cfg.Ranks,
						Topology:   topo,
						Collective: coll,
						Size:       cfg.Size,
						Cell:       cell,
						Integrity:  cfg.Integrity,
						Repulls:    cfg.Repulls,
						OpDeadline: cfg.OpDeadline,
					}
					seedStep++
					res := RunSeed(sc)
					sum.Runs++
					sum.Completed += res.Completed
					if res.OK() {
						sum.Passed++
					} else {
						sum.Failing = append(sum.Failing, res)
					}
					if cfg.Verbose != nil {
						mark := "ok  "
						if !res.OK() {
							mark = "FAIL"
						}
						fmt.Fprintf(cfg.Verbose, "%s %s completed=%d excluded=%d attempts=%d\n",
							mark, sc, res.Completed, res.Excluded, res.Attempts)
						for _, v := range res.Violations {
							fmt.Fprintf(cfg.Verbose, "     %s\n", v)
						}
					}
				}
			}
		}
	}
	sum.Elapsed = time.Since(start)
	return sum
}
