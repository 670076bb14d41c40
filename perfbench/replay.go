package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
)

// replayer re-runs a workload's pipeline in-process, calling the
// core.Session stage methods in pipeline order (compile, baseline run,
// CFG, frequency estimate, model, solve) so that each call does exactly
// one stage's work, then Optimize, which finds those stages memoized and
// runs only the tail. The tail is split into layers by re-executing it
// with the public transform, layout, analysis and sim functions outside
// the traced wall; the re-execution must reproduce the report exactly.
type replayer struct {
	ctx      context.Context
	clk      *clock
	sessions map[string]*core.Session
	// replays holds the intermittent replays already run, keyed as the
	// session memoizes them, to predict which ones Optimize will run.
	replays map[string]bool
	models  []*model.Model
	seen    map[*model.Model]bool
	n       counts
}

// counts is the work the replayed stages did (memo hits excluded).
type counts struct {
	baselineInstr, tracedInstr, optInstr float64
	replayInstr, replayedInstr           float64
	checkpoints, outages                 float64
	solves, proven, nodes, instrumented  float64
	optimizeHits, tailSplits             float64
}

func newReplayer(ctx context.Context) *replayer {
	return &replayer{ctx: ctx, clk: newClock(), sessions: map[string]*core.Session{},
		replays: map[string]bool{}, seen: map[*model.Model]bool{}}
}

// session returns the warm-solving session for a program, compiling it
// on first use; sweeps and the daemon both build warm sessions.
func (r *replayer) session(b *beebs.Benchmark, level mcc.OptLevel) (*core.Session, error) {
	key := core.SessionKey(b.Source, level.String())
	if s := r.sessions[key]; s != nil {
		return s, nil
	}
	var prog *ir.Program
	err := r.clk.span("mcc", func() (err error) { prog, err = mcc.Compile(b.Source, level); return })
	if err != nil {
		return nil, fmt.Errorf("%s %v: compile: %w", b.Name, level, err)
	}
	var s *core.Session
	err = r.clk.span("core", func() error {
		var err error
		s, err = core.NewSession(prog, core.SessionConfig{WarmSolve: true})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.sessions[key] = s
	return s, nil
}

// run replays one configuration and returns the session's report.
func (r *replayer) run(b *beebs.Benchmark, level mcc.OptLevel, opts core.Options) (*core.Report, error) {
	rep, err := r.runConfig(b, level, opts)
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w", b.Name, level, err)
	}
	return rep, nil
}

func (r *replayer) runConfig(b *beebs.Benchmark, level mcc.OptLevel, opts core.Options) (*core.Report, error) {
	s, err := r.session(b, level)
	if err != nil {
		return nil, err
	}
	ctx, clk := r.ctx, r.clk

	// Baseline run: traced when the configuration traces.
	var base *core.Measurement
	st0 := s.Stats()
	if opts.Trace {
		err = clk.span("trace", func() (err error) { base, err = s.Measure(ctx, nil, true, opts.MaxInstrs); return })
	} else {
		err = clk.span("sim.baseline", func() (err error) { base, err = s.Measure(ctx, nil, false, opts.MaxInstrs); return })
	}
	if err != nil {
		return nil, err
	}
	if s.Stats().Baseline.Misses > st0.Baseline.Misses {
		if opts.Trace {
			r.n.tracedInstr += float64(base.Stats.Instructions)
		} else {
			r.n.baselineInstr += float64(base.Stats.Instructions)
		}
	}

	rspare := opts.Rspare
	if rspare == 0 {
		if err := clk.span("layout", func() (err error) { rspare, err = s.SpareRAM(); return }); err != nil {
			return nil, err
		}
	}
	// The intermittent schedule and the checkpoint-aware model term,
	// derived exactly as the session derives them.
	var sched *sim.PowerTrace
	ckptCycles := opts.CheckpointCycles
	var ckptNJ float64
	if opts.PowerTrace != "" {
		err := clk.span("core", func() (err error) { sched, err = sim.ResolveTrace(opts.PowerTrace, base.Stats.Cycles); return })
		if err != nil {
			return nil, err
		}
		if ckptCycles == 0 {
			ckptCycles = sim.DefaultCheckpointCycles
		}
		if opts.CkptAware {
			perCkpt, perRestore := sim.CheckpointCostPerByteNJ(s.Profile())
			ckptNJ = float64(base.Stats.Cycles/ckptCycles)*perCkpt + float64(len(sched.Outages))*perRestore
		}
	}

	if err := clk.span("cfg", func() error { _, err := s.Graphs(); return err }); err != nil {
		return nil, err
	}
	if err := clk.span("freq", func() error { _, err := s.Frequencies(ctx, opts.UseProfile, opts.MaxInstrs); return err }); err != nil {
		return nil, err
	}
	spec := core.ModelSpec{UseProfile: opts.UseProfile, Rspare: rspare, Xlimit: opts.Xlimit,
		MaxInstrs: opts.MaxInstrs, CkptNJPerByte: ckptNJ}
	var mdl *model.Model
	if err := clk.span("model", func() (err error) { mdl, err = s.Model(ctx, spec); return }); err != nil {
		return nil, err
	}
	if !r.seen[mdl] {
		r.seen[mdl] = true
		r.models = append(r.models, mdl)
	}
	var res *placement.Result
	st1 := s.Stats()
	err = clk.span("placement", func() (err error) {
		res, err = s.Solve(ctx, core.SolveSpec{ModelSpec: spec, Solver: core.SolverILP,
			Budget: placement.Budget{MaxNodes: opts.SolveMaxNodes}})
		return
	})
	if err != nil {
		return nil, err
	}
	if s.Stats().Solve.Misses > st1.Solve.Misses {
		r.n.solves++
		r.n.nodes += float64(res.Nodes)
		if res.Proven {
			r.n.proven++
		}
	}

	before := s.Stats()
	var rep *core.Report
	dOpt, err := clk.timed(func() (err error) { rep, err = s.Optimize(ctx, opts); return })
	if err != nil {
		return nil, err
	}
	d := statsDelta(before, s.Stats())

	// Optimize must find every stage the calls above filled.
	if d.Optimize.Hits == 1 {
		r.n.optimizeHits++
		clk.ms["core"] += dOpt
		return rep, nil
	}
	if d.Model.Misses != 0 || d.Solve.Misses != 0 || d.Freq.Misses != 0 || d.Baseline.Misses != 0 ||
		d.Model.Hits == 0 || d.Solve.Hits == 0 {
		return nil, fmt.Errorf("Optimize recomputed a filled stage (stats delta %+v)", d)
	}
	if rep.Placement != res {
		return nil, fmt.Errorf("Optimize did not use the memoized solve")
	}

	split, err := r.splitTail(s, opts, rep, base, sched, ckptCycles, rspare, d)
	if err != nil {
		return nil, fmt.Errorf("tail split: %w", err)
	}
	var splitMS float64
	for layer, v := range split {
		clk.ms[layer] += v
		splitMS += v
	}
	clk.ms["core"] += dOpt - splitMS
	return rep, nil
}

// splitTail re-executes the part of Optimize the stats delta says ran
// (transform, layout, analysis, the optimized run, intermittent
// replays) with the public functions, outside the wall, and checks each
// result equals the report's. It returns the per-layer times.
func (r *replayer) splitTail(s *core.Session, opts core.Options, rep *core.Report, base *core.Measurement,
	sched *sim.PowerTrace, ckptCycles uint64, rspare float64, d core.SessionStats) (map[string]float64, error) {
	r.n.tailSplits++
	out := map[string]float64{}
	inRAM := rep.Placement.InRAM
	img := rep.Image
	if d.Transform.Misses > 0 {
		prog := s.Program().Clone()
		var trep *transform.Report
		t, err := r.clk.shadow(func() (err error) { trep, err = transform.Apply(prog, inRAM); return })
		if err != nil {
			return nil, err
		}
		out["transform"] = t
		if !reflect.DeepEqual(trep, rep.Transform) {
			return nil, fmt.Errorf("transform report differs from the session's")
		}
		r.n.instrumented += float64(len(trep.Instrumented))
		t, err = r.clk.shadow(func() (err error) { img, err = layout.New(prog, s.LayoutConfig(), inRAM); return })
		if err != nil {
			return nil, err
		}
		out["layout"] = t
		var ares *analysis.Result
		t, err = r.clk.shadow(func() (err error) {
			ares, err = analysis.Analyze(&analysis.Context{Original: s.Program(), Prog: prog, InRAM: inRAM,
				Config: s.LayoutConfig(), Image: img, Rspare: rspare})
			return
		})
		if err != nil {
			return nil, err
		}
		if !ares.OK() {
			return nil, fmt.Errorf("analysis errors on the optimized image:\n%s", ares)
		}
		out["analysis"] = t
	}
	if d.OptRun.Misses > 0 {
		layer := "sim.opt"
		if opts.Trace {
			layer = "trace"
		}
		var st *sim.Stats
		t, err := r.clk.shadow(func() (err error) {
			m := sim.New(img, s.Profile())
			var col *trace.Collector
			if opts.Trace {
				col = trace.NewCollector()
				m.Attach(col)
			}
			if st, err = m.RunContext(r.ctx); err != nil {
				return err
			}
			if col != nil {
				return col.Profile().CheckConservation(st)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out[layer] += t
		if !reflect.DeepEqual(st, rep.Optimized.Stats) {
			return nil, fmt.Errorf("optimized run stats differ from the report's")
		}
		if opts.Trace {
			r.n.tracedInstr += float64(st.Instructions)
		} else {
			r.n.optInstr += float64(st.Instructions)
		}
	}
	// Intermittent replays: the baseline image's is shared by every
	// configuration under one schedule; the optimized image's is keyed
	// by placement and Rspare, as the session keys it.
	ran := d.SimRuns - d.OptRun.Misses - d.Baseline.Misses
	var predicted uint64
	if sched != nil {
		key := fmt.Sprintf("%p|%s|%d", s, sched.String(), ckptCycles)
		jobs := []struct {
			key  string
			img  *layout.Image
			want *sim.IntermittentReport
		}{
			{key + "|base", base.Image, rep.Intermittent.Baseline},
			{fmt.Sprintf("%s|%s|%g", key, strings.Join(rep.MovedLabels(), ","), rspare), img, rep.Intermittent.Optimized},
		}
		for _, j := range jobs {
			if r.replays[j.key] {
				continue
			}
			r.replays[j.key] = true
			predicted++
			var ir *sim.IntermittentReport
			t, err := r.clk.shadow(func() (err error) {
				ir, err = sim.New(j.img, s.Profile()).RunIntermittent(r.ctx, sim.IntermittentConfig{
					Trace: sched, CheckpointCycles: ckptCycles})
				return
			})
			if err != nil {
				return nil, err
			}
			out["sim.replay"] += t
			if !reflect.DeepEqual(ir, j.want) {
				return nil, fmt.Errorf("intermittent replay differs from the report's")
			}
			r.n.replayInstr += float64(ir.Stats.Instructions)
			r.n.replayedInstr += float64(ir.ReplayedInstrs)
			r.n.checkpoints += float64(ir.Checkpoints)
			r.n.outages += float64(ir.Outages)
		}
	}
	if predicted != ran {
		return nil, fmt.Errorf("Optimize ran %d intermittent replays, the benchmark predicted %d", ran, predicted)
	}
	return out, nil
}

// statsDelta is b − a, stage by stage.
func statsDelta(a, b core.SessionStats) core.SessionStats {
	sub := func(x, y core.StageStats) core.StageStats {
		return core.StageStats{Hits: y.Hits - x.Hits, Misses: y.Misses - x.Misses}
	}
	return core.SessionStats{
		Baseline: sub(a.Baseline, b.Baseline), CFG: sub(a.CFG, b.CFG), Freq: sub(a.Freq, b.Freq),
		Model: sub(a.Model, b.Model), Solve: sub(a.Solve, b.Solve), Transform: sub(a.Transform, b.Transform),
		OptRun: sub(a.OptRun, b.OptRun), Optimize: sub(a.Optimize, b.Optimize), Bounds: sub(a.Bounds, b.Bounds),
		SimRuns: b.SimRuns - a.SimRuns, CyclesSimulated: b.CyclesSimulated - a.CyclesSimulated,
	}
}

// encode writes v the way the CLIs and the daemon do, charging the time
// to the evaluation layer.
func (r *replayer) encode(v any) (out []byte, err error) {
	err = r.clk.span("evaluation", func() (err error) { out, err = encodeJSON(v); return })
	return
}

// ilpSize is the mean tableau size of the distinct models the replay
// built, from the ILP each lowers to. It runs outside the wall.
func (r *replayer) ilpSize() (rows, cols float64) {
	if len(r.models) == 0 {
		return 0, 0
	}
	r.clk.shadow(func() error {
		for _, m := range r.models {
			p, _ := m.BuildILP()
			rows += float64(p.NumRows())
			cols += float64(p.NumVars())
		}
		return nil
	})
	n := float64(len(r.models))
	return rows / n, cols / n
}

// sessionStats sums the replay sessions' ledgers.
func (r *replayer) sessionStats() (core.SessionStats, core.SolverStats) {
	keys := make([]string, 0, len(r.sessions))
	for k := range r.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var st core.SessionStats
	var sv core.SolverStats
	for _, k := range keys {
		st.Add(r.sessions[k].Stats())
		sv.Add(r.sessions[k].SolverStats())
	}
	return st, sv
}

// sweepDocument replays the sweep's sections in beebsbench's order and
// returns the document beebsbench -noledger would print for them, and
// every report the sweep produced.
func (r *replayer) sweepDocument() ([]byte, []cellRun, error) {
	var doc evaluation.Document
	var runs []cellRun
	add := func(b *beebs.Benchmark, lv mcc.OptLevel, opts core.Options) (*core.Report, error) {
		rep, err := r.run(b, lv, opts)
		if err == nil {
			runs = append(runs, cellRun{Bench: b, Level: lv, Opts: opts, Report: rep})
		}
		return rep, err
	}
	r.clk.start()
	defer r.clk.stop()
	for _, section := range sweepSections {
		if err := r.section(section, &doc, add); err != nil {
			return nil, nil, err
		}
	}
	out, err := r.encode(doc)
	return out, runs, err
}

// section replays one beebsbench section into doc, running each
// configuration through add.
func (r *replayer) section(name string, doc *evaluation.Document,
	add func(*beebs.Benchmark, mcc.OptLevel, core.Options) (*core.Report, error)) error {
	switch name {
	case "fig5":
		var rows []evaluation.Figure5Row
		for _, b := range beebs.All() {
			for _, lv := range paperLevels {
				st, err := add(b, lv, core.Options{})
				if err != nil {
					return err
				}
				pr, err := add(b, lv, core.Options{UseProfile: true})
				if err != nil {
					return err
				}
				rows = append(rows, evaluation.Figure5Row{Bench: b.Name, Level: lv,
					EnergyChange: st.EnergyChange, TimeChange: st.TimeChange, PowerChange: st.PowerChange,
					ProfEnergyChange: pr.EnergyChange, ProfTimeChange: pr.TimeChange})
			}
		}
		doc.Fig5 = evaluation.NewFigure5JSON(rows)
	case "intermittent":
		var rows []evaluation.IntermittentRow
		for _, b := range beebs.All() {
			for _, lv := range paperLevels {
				for _, p := range sim.HarvestProfiles() {
					obl, err := add(b, lv, core.Options{PowerTrace: p})
					if err != nil {
						return err
					}
					aw, err := add(b, lv, core.Options{PowerTrace: p, CkptAware: true})
					if err != nil {
						return err
					}
					oc, ac := obl.Intermittent, aw.Intermittent
					rows = append(rows, evaluation.IntermittentRow{Bench: b.Name, Level: lv, Profile: p,
						Outages: oc.Outages, CheckpointCycles: oc.CheckpointCycles,
						Baseline: oc.Baseline, Oblivious: oc.Optimized, Aware: ac.Optimized,
						CkptNJPerByte: ac.CkptNJPerByte})
				}
			}
		}
		doc.Intermittent = evaluation.NewIntermittentRowsJSON(rows)
	case "savers":
		var rows []evaluation.SaversRow
		for _, b := range beebs.All() {
			for _, lv := range paperLevels {
				rep, err := add(b, lv, core.Options{Trace: true})
				if err != nil {
					return err
				}
				var sv []core.BlockSaving
				r.clk.span("trace", func() error { sv = rep.BlockSavings(saversTop); return nil })
				rows = append(rows, evaluation.SaversRow{Bench: b.Name, Level: lv, Report: rep, Savers: sv})
			}
		}
		doc.Savers = evaluation.NewSaversJSON(rows)
	default:
		return fmt.Errorf("no beebsbench section %q", name)
	}
	return nil
}

// saversTop is beebsbench's default -top.
const saversTop = 3

// cellRun is one replayed configuration and its report.
type cellRun struct {
	Bench  *beebs.Benchmark
	Level  mcc.OptLevel
	Opts   core.Options
	Report *core.Report
}
