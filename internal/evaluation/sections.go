package evaluation

import (
	"context"
	"fmt"
	"io"

	"repro/internal/beebs"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// Section is one `beebsbench` experiment, declared once in Sections: the
// CLI derives its flag, shard metadata and error attribution from it, and
// MergeShards its merge rule. Adding a section means one Sections entry
// plus one Document field.
type Section struct {
	// Name is the section's flag name, its shard-metadata name and the
	// prefix of its entries in Document.Errors.
	Name string
	// Usage is the flag's help text.
	Usage string
	// Run executes the cells sw's shard owns, fills the section's
	// Document slot and, when w is non-nil, prints the text report to w.
	// top is the number of blocks per run in the savers report. A failed
	// or cancelled run still fills the slot with its partial rows.
	Run func(ctx context.Context, sw *Sweep, top int, doc *Document, w io.Writer) error
	// merge fills out's slot from the fragments, indexed by shard.
	merge func(frags []*Document, out *Document) error
}

// Sections returns every section in emission order.
func Sections() []Section {
	return []Section{
		{Name: "fig5", Usage: "regenerate Figure 5",
			Run: runFig5, merge: mergeRows(func(d *Document) *[]Figure5RowJSON { return &d.Fig5 })},
		{Name: "aggregate", Usage: "regenerate the §6 aggregate numbers",
			Run: runAggregate, merge: mergeAggregate},
		{Name: "savers", Usage: "report which blocks produced each benchmark's energy saving (O2, Os)",
			Run: runSavers, merge: mergeRows(func(d *Document) *[]SaversRowJSON { return &d.Savers })},
		// The case study is one cell (fdct O2); it belongs to shard 0.
		{Name: "casestudy", Usage: "regenerate the §7 case study",
			Run: runCaseStudy, merge: func(frags []*Document, out *Document) error {
				out.CaseStudy = frags[0].CaseStudy
				return nil
			}},
		{Name: "fig9", Usage: "regenerate Figure 9",
			Run: runFig9, merge: mergeRows(func(d *Document) *[]Figure9SeriesJSON { return &d.Fig9 })},
		{Name: "intermittent", Usage: "harvested-power sweep: replay every benchmark under each harvest profile, checkpoint-oblivious and checkpoint-aware",
			Run: runIntermittent, merge: mergeRows(func(d *Document) *[]IntermittentRowJSON { return &d.Intermittent })},
		{Name: "select", Usage: "pick the best configuration per benchmark (static vs profiled vs all-flash)",
			Run: runSelect, merge: mergeRows(func(d *Document) *[]BestJSON { return &d.Selection })},
	}
}

// interleave undoes the drivers' j%n==i ownership rule: merged cell j
// comes from part j%n at position j/n. It first checks that the parts'
// lengths form one partition of a single sweep.
func interleave[T any](parts [][]T) ([]T, error) {
	n, total := len(parts), 0
	for _, p := range parts {
		total += len(p)
	}
	for i, p := range parts {
		if want := shardLen(total, n, i); len(p) != want {
			return nil, fmt.Errorf("shard %d/%d has %d cells, want %d of %d — fragments are not one partition",
				i, n, len(p), want, total)
		}
	}
	out := make([]T, total)
	for j := range out {
		out[j] = parts[j%n][j/n]
	}
	return out, nil
}

// mergeRows is the merge rule of a section whose slot is one row per
// cell: the fragments' rows interleave back into cell order.
func mergeRows[T any](slot func(*Document) *[]T) func([]*Document, *Document) error {
	return func(frags []*Document, out *Document) error {
		parts := make([][]T, len(frags))
		for i, f := range frags {
			parts[i] = *slot(f)
		}
		rows, err := interleave(parts)
		*slot(out) = rows
		return err
	}
}

// mergeAggregate interleaves the fragments' runs and refolds the §6
// summary over them, which no single shard can compute alone.
func mergeAggregate(frags []*Document, out *Document) error {
	parts := make([][]RunJSON, len(frags))
	for i, f := range frags {
		if f.Aggregate == nil {
			return fmt.Errorf("shard %d/%d has no aggregate section", i, len(frags))
		}
		parts[i] = f.Aggregate.Runs
	}
	runs, err := interleave(parts)
	if err != nil {
		return err
	}
	out.Aggregate = &AggregateJSON{Runs: runs, AggregateSummary: summarize(runs)}
	return nil
}

func runFig5(ctx context.Context, sw *Sweep, _ int, doc *Document, w io.Writer) error {
	rows, err := sw.Figure5(ctx, []mcc.OptLevel{mcc.O2, mcc.Os})
	doc.Fig5 = NewFigure5JSON(rows)
	if w == nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 5: % change per benchmark (energy, time), O2 and Os ==")
	fmt.Fprintln(w, "   dots: the same run with actual (profiled) block frequencies")
	fmt.Fprintf(w, "%-15s %-4s %9s %9s %9s | %9s %9s\n",
		"benchmark", "lvl", "energy%", "time%", "power%", "E%(freq)", "T%(freq)")
	for _, r := range rows {
		if r.Incomplete {
			fmt.Fprintf(w, "%-15s %-4v (incomplete)\n", r.Bench, r.Level)
			continue
		}
		fmt.Fprintf(w, "%-15s %-4v %+8.1f%% %+8.1f%% %+8.1f%% | %+8.1f%% %+8.1f%%\n",
			r.Bench, r.Level, 100*r.EnergyChange, 100*r.TimeChange, 100*r.PowerChange,
			100*r.ProfEnergyChange, 100*r.ProfTimeChange)
	}
	fmt.Fprintln(w)
	return err
}

func runAggregate(ctx context.Context, sw *Sweep, _ int, doc *Document, w io.Writer) error {
	agg, err := sw.RunAggregate(ctx, []mcc.OptLevel{mcc.O0, mcc.O1, mcc.O2, mcc.O3, mcc.Os})
	j := NewAggregateJSON(agg)
	doc.Aggregate = &j
	if w == nil {
		return err
	}
	fmt.Fprintln(w, "== §6 aggregate over O0, O1, O2, O3, Os ==")
	fmt.Fprintf(w, "runs: %d (10 benchmarks x 5 levels)\n", len(agg.Runs))
	if agg.IncompleteRuns > 0 {
		fmt.Fprintf(w, "incomplete: %d cells failed or were cut off; means cover the completed runs only\n", agg.IncompleteRuns)
	}
	fmt.Fprintf(w, "mean energy change: %+.1f%%   (paper: -7.7%%)\n", 100*agg.MeanEnergyChange)
	fmt.Fprintf(w, "mean power  change: %+.1f%%   (paper: -21.9%%)\n", 100*agg.MeanPowerChange)
	fmt.Fprintf(w, "mean time   change: %+.1f%%   (paper: +19.5%%)\n", 100*agg.MeanTimeChange)
	fmt.Fprintf(w, "max energy saving : %.1f%% on %s  (paper: 22%% on int_matmult O2)\n",
		100*agg.MaxEnergySaving, agg.MaxEnergyBench)
	fmt.Fprintf(w, "max power  saving : %.1f%% on %s  (paper: 41%% on fdct O2)\n",
		100*agg.MaxPowerSaving, agg.MaxPowerBench)
	fmt.Fprintln(w)
	return err
}

func runSavers(ctx context.Context, sw *Sweep, top int, doc *Document, w io.Writer) error {
	rows, err := sw.TopSavers(ctx, []mcc.OptLevel{mcc.O2, mcc.Os}, top)
	doc.Savers = NewSaversJSON(rows)
	if w == nil {
		return err
	}
	fmt.Fprintln(w, "== blocks behind each benchmark's energy saving (attribution diff) ==")
	for _, r := range rows {
		if r.Incomplete {
			fmt.Fprintf(w, "%-15s %-4v (incomplete)\n", r.Bench, r.Level)
			continue
		}
		fmt.Fprintf(w, "%-15s %-4v total %+0.1f%%:", r.Bench, r.Level, 100*r.Report.EnergyChange)
		for _, s := range r.Savers {
			fmt.Fprintf(w, "  %s %+0.2fuJ", s.Label, s.SavedNJ/1e3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return err
}

func runCaseStudy(ctx context.Context, sw *Sweep, _ int, doc *Document, w io.Writer) error {
	if !sw.Shard.Owns(0) {
		return nil
	}
	r, err := sw.RunBenchmark(ctx, beebs.Get("fdct"), mcc.O2, core.Options{})
	if err != nil {
		return err
	}
	sc := Scenario(r)
	j := NewScenarioJSON(sc)
	doc.CaseStudy = &j
	if w == nil {
		return nil
	}
	fmt.Fprintln(w, "== §7 case study: periodic sensing with the fdct active region ==")
	fmt.Fprintf(w, "measured: E0 = %.4f mJ, TA = %.4f ms, ke = %.3f, kt = %.3f, PS = %.1f mW\n",
		sc.E0, 1e3*sc.TA, sc.Ke, sc.Kt, sc.PS)
	fmt.Fprintf(w, "paper   : E0 = 16.9 mJ,  TA = 1180 ms,  ke = 0.825, kt = 1.33,  PS = 3.5 mW\n")
	fmt.Fprintf(w, "energy saved per period Es = %.4f mJ (period independent; paper: 4.32 mJ with its values)\n",
		sc.EnergySaved())

	paper := casestudy.PaperScenario()
	fmt.Fprintf(w, "with the paper's printed values our model gives Es = %.2f mJ (paper: 4.32)\n",
		paper.EnergySaved())

	saving, life := sc.BestSaving(fig9Multiples())
	fmt.Fprintf(w, "best saving over T sweep: %.1f%%; battery life extension %.1f%% (paper: up to 25%% / 32%%)\n",
		saving, 100*life)

	u, o := casestudy.Figure8()
	fmt.Fprintf(w, "Figure 8 illustration: %.0f uJ -> %.0f uJ (paper: 60 -> 55)\n", u, o)
	fmt.Fprintln(w)
	return nil
}

// fig9Multiples are the periods T/TA Figure 9 and the case study sweep.
func fig9Multiples() []float64 { return []float64{1, 2, 3, 4, 6, 8, 12, 16} }

func runFig9(ctx context.Context, sw *Sweep, _ int, doc *Document, w io.Writer) error {
	mult := fig9Multiples()
	series, err := sw.Figure9(ctx, mcc.O2, mult)
	doc.Fig9 = NewFigure9JSON(series)
	if w == nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 9: energy consumption (%) vs period T ==")
	fmt.Fprintf(w, "%-8s", "T/TA")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Bench)
	}
	fmt.Fprintln(w)
	for i, m := range mult {
		fmt.Fprintf(w, "%-8.0f", m)
		for _, s := range series {
			fmt.Fprintf(w, " %13.1f%%", s.Points[i].EnergyPercent)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return err
}

// runIntermittent runs the harvested-power sweep (DESIGN.md §6l): every
// benchmark at O2 and Os replayed under each harvest profile, with the
// optimized image placed both checkpoint-oblivious and checkpoint-aware.
func runIntermittent(ctx context.Context, sw *Sweep, _ int, doc *Document, w io.Writer) error {
	rows, err := sw.Intermittent(ctx, []mcc.OptLevel{mcc.O2, mcc.Os}, sim.HarvestProfiles())
	doc.Intermittent = NewIntermittentRowsJSON(rows)
	if w == nil {
		return err
	}
	fmt.Fprintln(w, "== harvested power: useful instructions per delivered mJ, by profile ==")
	fmt.Fprintf(w, "%-15s %-4s %-12s %8s %12s %9s %9s %10s\n",
		"benchmark", "lvl", "profile", "outages", "base i/mJ", "obliv%", "aware%", "time%")
	for _, r := range doc.Intermittent {
		if r.Incomplete {
			fmt.Fprintf(w, "%-15s %-4s %-12s (incomplete)\n", r.Bench, r.Level, r.Profile)
			continue
		}
		fmt.Fprintf(w, "%-15s %-4s %-12s %8d %12.0f %+8.1f%% %+8.1f%% %+9.1f%%\n",
			r.Bench, r.Level, r.Profile, r.Outages, r.BaselineWorkPerMJ,
			100*r.ObliviousWorkChange, 100*r.AwareWorkChange,
			100*(r.AwareTimeMS/r.BaselineTimeMS-1))
	}
	// Fold each benchmark × level's profiles into the §7-style summary.
	perCell := make(map[string][]IntermittentRow)
	var order []string
	for _, r := range rows {
		if r.Incomplete {
			continue
		}
		key := r.Bench + " " + r.Level.String()
		if _, ok := perCell[key]; !ok {
			order = append(order, key)
		}
		perCell[key] = append(perCell[key], r)
	}
	fmt.Fprintln(w, "-- per-cell summary across profiles (aware placement) --")
	for _, key := range order {
		sum, serr := casestudy.SummarizeIntermittent(Scenarios(perCell[key], intermitClockHz()))
		if serr != nil {
			continue
		}
		fmt.Fprintf(w, "%-20s mean work %+6.1f%%, best %s %+6.1f%%, worst %s %+6.1f%%\n",
			key, 100*sum.MeanWorkChange, sum.Best.Profile, 100*sum.Best.WorkChange(),
			sum.Worst.Profile, 100*sum.Worst.WorkChange())
	}
	fmt.Fprintln(w)
	return err
}

// runSelect picks the lowest-energy configuration per benchmark at O2
// among the static estimate, the profiled-frequency variant, and the
// all-flash ablation (Rspare 1 byte — nothing placeable). With sw.Prune
// the sweep consults the static energy lower bound first and skips
// candidates that provably cannot win; the winners are identical either
// way, only session_stats' prune_checked/prune_skipped move.
func runSelect(ctx context.Context, sw *Sweep, _ int, doc *Document, w io.Writer) error {
	cands := []Candidate{
		{Name: "static", Opts: core.Options{}},
		{Name: "profiled", Opts: core.Options{UseProfile: true}},
		{Name: "all-flash", Opts: core.Options{Rspare: 1}},
	}
	if w != nil {
		fmt.Fprintln(w, "== best configuration per benchmark (O2) ==")
	}
	var firstErr error
	all := beebs.All()
	for _, i := range sw.Shard.indices(len(all)) {
		best, err := sw.BestConfig(ctx, all[i], mcc.O2, cands)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		doc.Selection = append(doc.Selection, NewBestJSON(best))
		if w == nil {
			continue
		}
		fmt.Fprintf(w, "%-15s %-9s %8.1f uJ (%+.1f%%)", best.Bench, best.Winner,
			best.Report.Optimized.Stats.EnergyNJ/1e3, 100*best.Report.EnergyChange)
		for _, r := range best.Rows {
			if r.Pruned {
				fmt.Fprintf(w, "  [pruned %s: bound %.1f uJ]", r.Name, r.LowerBoundNJ/1e3)
			}
		}
		fmt.Fprintln(w)
	}
	if w != nil {
		fmt.Fprintln(w)
	}
	return firstErr
}
