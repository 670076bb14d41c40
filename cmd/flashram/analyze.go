package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/bounds"
	"repro/internal/beebs"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
)

// runAnalyze implements the `flashram analyze` subcommand: compile, place,
// transform and then lint the result with the full static-analysis suite —
// no simulation. Exits 1 when any pass reports an error diagnostic.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var (
		benchName = fs.String("bench", "", "built-in BEEBS benchmark name")
		srcFile   = fs.String("src", "", "mcc source file to compile")
		all       = fs.Bool("all", false, "analyze every built-in benchmark")
		level     = fs.String("O", "O2", "optimization level: O0 O1 O2 O3 Os")
		solver    = fs.String("solver", "ilp", "placement solver: ilp greedy function exhaustive")
		xlimit    = fs.Float64("xlimit", 0, "max execution-time ratio (0 = default 2.0)")
		rspare    = fs.Float64("rspare", 0, "RAM budget for code in bytes (0 = derive)")
		linktime  = fs.Bool("linktime", false, "link-time mode: library code becomes placeable")
		baseline  = fs.Bool("baseline", false, "lint the untransformed program instead")
		bounds_   = fs.Bool("bounds", false, "also run the energy-bounds pass (EB diagnostics)")
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array of result objects")
		verbose   = fs.Bool("v", false, "print a per-pass summary even when clean")
		timeout   = fs.Duration("timeout", 0, "overall wall-clock budget (0 = none); SIGINT also cancels")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: flashram analyze [-bench name | -src file | -all] [flags]

Runs the placement pipeline up to the code transformation, then verifies
the result with the static-analysis suite (branch-range, instrumentation,
cfg-equivalence, memory-map, stack-depth; -bounds adds energy-bounds).
Prints one line per diagnostic (or, with -json, a JSON array of result
objects) and exits 1 if any error-severity diagnostic is found.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	optLevel, err := mcc.ParseOptLevel(*level)
	if err != nil {
		fatal(err)
	}

	targets := beebs.All()
	if !*all {
		b := program(*benchName, *srcFile)
		if b == nil {
			fs.Usage()
			os.Exit(2)
		}
		targets = []*beebs.Benchmark{b}
	}

	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	opts := core.Options{Solver: core.Solver(*solver), Xlimit: *xlimit, Rspare: *rspare, LinkTime: *linktime}
	failed := 0
	var docs []analysis.ResultJSON
	for _, t := range targets {
		res, err := analyzeOne(ctx, t, optLevel, opts, *baseline, *bounds_)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", t.Name, err))
		}
		if *jsonOut {
			docs = append(docs, analysis.NewResultJSON(t.Name, optLevel.String(), res))
		} else {
			for _, d := range res.Diags {
				fmt.Printf("%s: %s\n", t.Name, d)
			}
		}
		nerr := len(res.Errors())
		if nerr > 0 {
			failed++
		}
		if !*jsonOut && (*verbose || nerr > 0) {
			fmt.Printf("%s at %v: %s\n", t.Name, optLevel, res.Summary())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fatal(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "flashram analyze: %d of %d program(s) failed verification\n",
			failed, len(targets))
		os.Exit(1)
	}
}

// analyzeOne compiles one program and lints it. The placement and the
// transformed program come from a core.Session's solve and transform
// stages — the exact image Optimize would simulate — and are then
// checked with the chosen passes: withBounds appends the energy-bounds
// pass to the default suite (it is not a default pass, so the pipeline's
// own verification stays the 5-pass gate); baseline lints the
// untransformed program instead.
func analyzeOne(ctx context.Context, b *beebs.Benchmark, level mcc.OptLevel, opts core.Options, baseline, withBounds bool) (*analysis.Result, error) {
	passes := analysis.DefaultPasses()
	if withBounds {
		passes = append(passes, bounds.Pass{})
	}
	sess, err := evaluation.NewSweep(1).Session(b, level)
	if err != nil {
		return nil, err
	}
	prog := sess.Program()
	if baseline {
		return analysis.Run(&analysis.Context{Prog: prog, Config: sess.LayoutConfig()}, passes...)
	}
	tf, err := sess.Transform(ctx, opts)
	if err != nil {
		return nil, err
	}
	return analysis.Run(&analysis.Context{
		Original: prog, Prog: tf.Program, InRAM: tf.InRAM,
		Config: sess.LayoutConfig(), Image: tf.Image, Rspare: tf.Rspare,
	}, passes...)
}
