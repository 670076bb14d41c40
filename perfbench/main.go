// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// its metrics; see README.md for the workloads, the metrics and why they
// were chosen. Run it through run.sh, which builds the binaries it
// drives:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh summarize .bench_build/results
//	bash perfbench/run.sh compare parent-results/ change-results/
//
// With --trace 0 the shipped binaries (beebsbench, flashramd) run as
// child processes with tracing off and the end-to-end metrics are
// reported; with --trace 1 the pipeline is replayed in-process stage by
// stage and the per-layer metrics are reported. The last line of
// standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// env is what a workload run needs.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string
	log      io.Writer
	inputs   *streamInputs
}

var workloads = []string{"sweep", "serve"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sweep or serve")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 40, "how long the run measures")
		traced   = flag.Int("trace", 0, "1 runs the traced, per-layer measurement")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding beebsbench and flashramd")
		out      = flag.String("out", "", "directory to keep the stamped result in (empty = none)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		if err := tool(flag.Arg(0), flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := run(ctx, *workload, *seed, *seconds, *traced == 1, *bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(*out, *rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keeping the result:", err)
	}
	printResult(os.Stdout, rec)
}

// run measures one workload and returns its stamped result.
func run(ctx context.Context, workload string, seed int64, seconds int, traced bool, bin string) (*Record, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fp, err := fingerprint(root)
	if err != nil {
		return nil, err
	}
	e := &env{workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		bin: bin, log: os.Stderr}
	var res *Result
	var notes map[string]any
	switch {
	case workload == "serve":
		if e.inputs, err = loadStreamInputs(root); err != nil {
			return nil, err
		}
		if traced {
			res, notes, err = serveTraced(ctx, e)
		} else {
			res, notes, err = serveRun(ctx, e)
		}
	case traced:
		res, notes, err = batchTraced(ctx, e)
	default:
		res, notes, err = batchRun(ctx, e)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		if err := validMetric(d.Name, d.Unit); err != nil {
			return nil, err
		}
		if _, ok := res.Metrics[d.Name]; !ok {
			// Only a failure leaves a figure unmeasured.
			res.Metrics[d.Name] = Metric{0, d.Unit}
			if res.Failed == 0 {
				res.Failed = res.Attempted
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return &Record{Fingerprint: fp, Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Result: *res, Notes: notes}, nil
}

// printResult prints a readable table, the fingerprint and notes, and
// last the result line.
func printResult(w io.Writer, rec *Record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d, %ds, trace %v: %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Result.Attempted, rec.Result.Failed)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fp, _ := json.Marshal(rec.Fingerprint)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	if len(rec.Notes) > 0 {
		notes, _ := json.Marshal(rec.Notes)
		fmt.Fprintf(w, "notes %s\n", notes)
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintf(w, "%s\n", line)
}

// tool runs the summarize and compare subcommands over kept results.
func tool(name string, args []string) error {
	switch name {
	case "summarize":
		recs, err := loadRecords(args)
		if err != nil {
			return err
		}
		s, err := summarize(recs)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	case "compare":
		if len(args) != 2 {
			return fmt.Errorf("compare needs two result files or directories")
		}
		a, err := loadRecords(args[:1])
		if err != nil {
			return err
		}
		b, err := loadRecords(args[1:])
		if err != nil {
			return err
		}
		return compare(os.Stdout, a, b)
	}
	return fmt.Errorf("unknown subcommand %q (summarize, compare)", name)
}
