// Command beebsbench regenerates the paper's BEEBS evaluation:
//
//	beebsbench -fig5        Figure 5 (per-benchmark % change at O2 and Os,
//	                        with the actual-frequency dots)
//	beebsbench -aggregate   the §6 averages over O0..Os
//	beebsbench -savers      the blocks behind each benchmark's saving
//	beebsbench -casestudy   the §7 periodic-sensing numbers for fdct
//	beebsbench -fig9        Figure 9 (energy % versus period T)
//	beebsbench -intermittent  the harvested-power sweep (checkpoint-
//	                        oblivious vs checkpoint-aware placement)
//	beebsbench -select      the best configuration per benchmark
//
// Each section is declared once, in evaluation.Sections; this command
// derives its section flags, shard metadata and error prefixes from
// that list.
//
// All selected sections run through one evaluation.Sweep, so each
// benchmark × level cell is compiled and baseline-simulated once no
// matter how many experiments revisit it. -workers N runs the benchmark
// × level sweeps across N goroutines (the output is deterministic at any
// worker count); -json emits the selected sections as one
// machine-readable document — including the session_stats reuse counters
// — using the schema shared with `flashram profile -json` and
// `tradeoff -json`.
//
// Sweeps also shard across processes: `-shard i/n` runs only the cells
// whose stable index j satisfies j%n == i and emits a mergeable JSON
// fragment; `beebsbench -merge frag0.json … fragN-1.json` validates the
// fragments form one partition and reassembles the exact unsharded
// document. Merged documents are ledger-free, so compare them against an
// unsharded `-noledger` run. `-nofuse` forces the simulator's slot-at-a-
// time dispatch (identical output, no superblock fusion — the
// differential-testing knob).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/errs"
	"repro/internal/evaluation"
)

func main() {
	sections := evaluation.Sections()
	on := make([]*bool, len(sections))
	for i, s := range sections {
		on[i] = flag.Bool(s.Name, false, s.Usage)
	}
	var (
		prune     = flag.Bool("prune", false, "let -select skip candidates dominated by their static energy lower bound (output-neutral; see session_stats prune counters)")
		all       = flag.Bool("all", false, "run everything")
		workers   = flag.Int("workers", 1, "benchmark sweep worker goroutines")
		top       = flag.Int("top", 3, "blocks per run in the -savers report")
		asJSON    = flag.Bool("json", false, "emit the selected sections as one JSON document")
		shardSpec = flag.String("shard", "", "run only sweep cells owned by shard `i/n` and emit a mergeable fragment (implies -json)")
		merge     = flag.Bool("merge", false, "merge the shard fragment files given as arguments into the unsharded document and exit")
		noledger  = flag.Bool("noledger", false, "omit the process ledgers (session_stats, solver_stats, wall_ms, workers) so documents are byte-comparable across runs")
		noFuse    = flag.Bool("nofuse", false, "force slot-at-a-time simulator dispatch instead of superblock fusion (identical output; differential-testing knob)")
		timeout   = flag.Duration("timeout", 0, "overall wall-clock budget (0 = none); on expiry — or SIGINT — the sweep stops and the partial document is still emitted")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to `file`")
		memProf   = flag.String("memprofile", "", "write a heap profile to `file` on exit")
	)
	flag.Parse()
	if *merge {
		if err := runMerge(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	var chosen []evaluation.Section
	for i, s := range sections {
		if *on[i] || *all {
			chosen = append(chosen, s)
		}
	}
	if len(chosen) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var shard evaluation.Shard
	if *shardSpec != "" {
		var err error
		if shard, err = evaluation.ParseShard(*shardSpec); err != nil {
			fatal(err)
		}
		*asJSON = true
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	sw := evaluation.NewSweep(*workers)
	sw.NoFuse = *noFuse
	sw.Prune = *prune
	sw.Shard = shard
	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	start := time.Now()
	var doc evaluation.Document
	doc.Workers = *workers
	if shard.Count > 1 {
		doc.Shard = &evaluation.ShardJSON{Index: shard.Index, Count: shard.Count}
		for _, s := range chosen {
			doc.Shard.Sections = append(doc.Shard.Sections, s.Name)
		}
	}
	var text io.Writer
	if !*asJSON {
		text = os.Stdout
	}
	// Each selected section runs to whatever extent the context allows;
	// a failed or interrupted section contributes its partial rows and
	// an entry in doc.Errors rather than aborting the document.
	for _, s := range chosen {
		if err := s.Run(ctx, sw, *top, &doc, text); err != nil {
			doc.Errors = append(doc.Errors, fmt.Sprintf("%s: %v", s.Name, err))
		}
	}
	doc.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	st := sw.Stats()
	solver := sw.SolverStats()
	if *noledger {
		doc.WallMS, doc.Workers = 0, 0
	} else {
		doc.SessionStats = &st
		doc.SolverStats = &solver
	}
	if len(doc.Errors) > 0 {
		doc.Status = "incomplete"
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("wall clock: %.0f ms with %d worker(s); %d compiles, %d stage reuses, %d simulator runs\n",
			float64(time.Since(start).Microseconds())/1e3, *workers,
			st.SessionMisses, st.Stages.Reuses(), st.Stages.SimRuns)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // material allocations only, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if len(doc.Errors) > 0 {
		for _, e := range doc.Errors {
			fmt.Fprintln(os.Stderr, "beebsbench:", e)
		}
		os.Exit(1)
	}
}

// runMerge reassembles an unsharded document from one fragment file per
// shard (evaluation.MergeShards validates they form one partition) and
// writes it to stdout with the same encoder settings as a direct run.
func runMerge(files []string) error {
	if len(files) == 0 {
		return errs.BadInput(fmt.Errorf("-merge: no fragment files given"))
	}
	frags := make([]evaluation.Document, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return errs.BadInput(err)
		}
		if err := json.Unmarshal(data, &frags[i]); err != nil {
			return errs.BadInput(fmt.Errorf("%s: %v", f, err))
		}
	}
	doc, err := evaluation.MergeShards(frags, files)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "beebsbench:", err)
	os.Exit(1)
}
