// Command disttune manages the adaptive selector's decision tables
// (DESIGN.md §8): it regenerates them by sweeping the calibrated
// simulator, pretty-prints them, and diffs regenerated output against
// shipped files so CI can detect drift.
//
// Usage:
//
//	disttune generate [-machine zoot|ig|igcluster|all] [-sizes 1024,65536] [-o dir]
//	disttune dump <table.json ...>
//	disttune diff [-machine ...] [-sizes ...] <dir>
//	disttune fit [-sizes ...] [-min-samples n] [-name x] [-o out.json] [-check golden.json] [-diff] <trace.jsonl ...>
//
// generate writes one canonical-JSON table per machine into -o (default
// internal/tune/tables). dump prints a table's rules in human-readable
// form. diff regenerates in memory and compares byte-for-byte against the
// files in <dir>, exiting 1 on any difference — the CI gate that keeps
// the shipped tables in lock-step with the calibrator.
//
// fit is the offline face of the online autotuner (DESIGN.md §14): it
// replays JSONL traces into the streaming estimator, fits the per-class
// Hockney model, and prints the learned decision table. -o writes the
// canonical learned JSON, -check byte-compares it against a committed
// golden (the CI stability gate), and -diff shows where the learned
// decisions depart from the shipped selector's.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"distcoll/internal/autotune"
	"distcoll/internal/imb"
	"distcoll/internal/trace"
	"distcoll/internal/tune"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "disttune:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: disttune generate|dump|diff|fit [flags]")
	}
	switch args[0] {
	case "generate":
		return runGenerate(args[1:], out)
	case "dump":
		return runDump(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	case "fit":
		return runFit(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want generate, dump, diff or fit)", args[0])
	}
}

// machineList expands the -machine flag value.
func machineList(flagVal string) ([]string, error) {
	if flagVal == "all" {
		return tune.DefaultMachines(), nil
	}
	var names []string
	for _, name := range strings.Split(flagVal, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no machines selected")
	}
	return names, nil
}

// sizeList parses the -sizes flag (comma-separated byte counts; empty
// means the full standard sweep).
func sizeList(flagVal string) ([]int64, error) {
	if flagVal == "" {
		return nil, nil
	}
	var sizes []int64
	for _, f := range strings.Split(flagVal, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// generateAll calibrates every requested machine, returning file name →
// canonical JSON.
func generateAll(machines []string, sizes []int64) (map[string][]byte, error) {
	out := make(map[string][]byte, len(machines))
	for _, name := range machines {
		t, err := tune.CalibrateMachine(name, sizes)
		if err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", name, err)
		}
		data, err := tune.MarshalTable(t)
		if err != nil {
			return nil, err
		}
		out[t.Name+".json"] = data
	}
	return out, nil
}

func runGenerate(args []string, out *os.File) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	machineFlag := fs.String("machine", "all", "machine to calibrate (zoot, ig, igcluster, all, or a comma list)")
	sizesFlag := fs.String("sizes", "", "comma-separated message sizes in bytes (default: standard IMB sweep)")
	outDir := fs.String("o", "internal/tune/tables", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	machines, err := machineList(*machineFlag)
	if err != nil {
		return err
	}
	sizes, err := sizeList(*sizesFlag)
	if err != nil {
		return err
	}
	files, err := generateAll(machines, sizes)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", path, len(data))
	}
	return nil
}

func runDump(args []string, out *os.File) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("usage: disttune dump <table.json ...>")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		t, err := tune.ParseTable(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		dumpTable(out, t)
	}
	return nil
}

// dumpTable pretty-prints one table's rule sets.
func dumpTable(out *os.File, t *tune.Table) {
	fmt.Fprintf(out, "table %s: machine=%s procs=%d (%d rule sets, %d calibration sizes)\n",
		t.Name, t.Machine, t.Procs, len(t.RuleSets), len(t.Sizes))
	for _, rs := range t.RuleSets {
		fmt.Fprintf(out, "  %s/%s (procs=%d maxdist=%d singlemc=%v)\n",
			rs.Coll, rs.Binding, rs.Fingerprint.Procs, rs.Fingerprint.MaxDist, rs.Fingerprint.SingleMC)
		for _, r := range rs.Rules {
			hi := "inf"
			if r.MaxBytes > 0 {
				hi = imb.FormatSize(r.MaxBytes)
			}
			fmt.Fprintf(out, "    [%s, %s)  ->  %s\n", imb.FormatSize(r.MinBytes), hi, r.Decision)
		}
	}
}

func runDiff(args []string, out *os.File) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	machineFlag := fs.String("machine", "all", "machine tables to check")
	sizesFlag := fs.String("sizes", "", "comma-separated message sizes (must match how the tables were generated)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: disttune diff [-machine ...] <dir>")
	}
	dir := fs.Arg(0)
	machines, err := machineList(*machineFlag)
	if err != nil {
		return err
	}
	sizes, err := sizeList(*sizesFlag)
	if err != nil {
		return err
	}
	files, err := generateAll(machines, sizes)
	if err != nil {
		return err
	}
	drift := 0
	for name, want := range files {
		path := filepath.Join(dir, name)
		got, err := os.ReadFile(path)
		switch {
		case err != nil:
			fmt.Fprintf(out, "DRIFT %s: %v\n", path, err)
			drift++
		case !bytes.Equal(got, want):
			fmt.Fprintf(out, "DRIFT %s: shipped table differs from calibrator output (regenerate with `disttune generate`)\n", path)
			drift++
		default:
			fmt.Fprintf(out, "ok    %s\n", path)
		}
	}
	if drift > 0 {
		return fmt.Errorf("%d table(s) drifted", drift)
	}
	return nil
}

func runFit(args []string, out *os.File) error {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	sizesFlag := fs.String("sizes", "", "comma-separated message sizes (default: standard IMB sweep)")
	minSamples := fs.Int("min-samples", 1, "minimum accepted copy samples for a fit")
	nameFlag := fs.String("name", "", "name of the learned document (default <machine><np>-replay)")
	outFile := fs.String("o", "", "write canonical learned JSON to this file")
	checkFile := fs.String("check", "", "byte-compare the learned JSON against this golden file (CI drift gate)")
	diffFlag := fs.Bool("diff", false, "diff learned decisions against the shipped selector")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: disttune fit [flags] <trace.jsonl ...>")
	}
	sizes, err := sizeList(*sizesFlag)
	if err != nil {
		return err
	}
	var events []trace.Event
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		evs, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		events = append(events, evs...)
	}
	res, err := autotune.FitTrace(events, autotune.ReplayConfig{
		Name:       *nameFlag,
		Sizes:      sizes,
		MinSamples: *minSamples,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "fit %s: %s (%d copy samples, %d collectives)\n",
		res.Learned.Name, res.MetaInfo, res.Samples, len(res.Colls))
	fmt.Fprint(out, res.Model)
	if res.Learned.Table != nil {
		dumpTable(out, res.Learned.Table)
	}

	data, err := autotune.MarshalLearned(res.Learned)
	if err != nil {
		return err
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", *outFile, len(data))
	}
	if *diffFlag {
		fitDiff(out, res, sizes)
	}
	if *checkFile != "" {
		golden, err := os.ReadFile(*checkFile)
		if err != nil {
			return fmt.Errorf("DRIFT %s: %w", *checkFile, err)
		}
		if !bytes.Equal(golden, data) {
			return fmt.Errorf("DRIFT %s: committed learned state differs from fit output (regenerate with `disttune fit -o`)", *checkFile)
		}
		fmt.Fprintf(out, "ok    %s\n", *checkFile)
	}
	return nil
}

// fitDiff compares the learned decisions with what the shipped selector
// would pick at every (collective, size) the fit covered.
func fitDiff(out *os.File, res *autotune.FitResult, sizes []int64) {
	if res.Learned.Table == nil {
		fmt.Fprintln(out, "no learned decisions to diff")
		return
	}
	if len(sizes) == 0 {
		sizes = imb.StandardSizes()
	}
	shipped := tune.DefaultSelector()
	differs := 0
	for _, rs := range res.Learned.Table.RuleSets {
		for _, size := range sizes {
			var l tune.Decision
			ok := false
			for _, r := range rs.Rules {
				if r.Covers(size) {
					l, ok = r.Decision, true
					break
				}
			}
			if !ok {
				continue
			}
			s, prov := shipped.ExplainFP(rs.Coll, rs.Fingerprint, size)
			mark := ""
			if l != s {
				mark = "  DIFFERS"
				differs++
			}
			fmt.Fprintf(out, "%-10s %8s  learned=%-28s shipped=%-28s (%s)%s\n",
				rs.Coll, imb.FormatSize(size), l, s, prov, mark)
		}
	}
	fmt.Fprintf(out, "%d decision(s) differ from the shipped tables\n", differs)
}
