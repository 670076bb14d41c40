package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/analysis/bounds"
	"repro/internal/cfg"
	"repro/internal/errs"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transform"
)

// Session is the staged form of the pipeline: one program, one board
// profile, one memory map — and every expensive artifact (baseline
// image/run, CFG, frequency estimates, cost models, placements, whole
// reports) materialized at most once and shared across configurations.
// The paper's experiments are sweeps: Figure 5 solves every benchmark
// twice (static and profiled Fb), Figure 6 re-solves one program at a
// dozen constraint points, and the §6 aggregate revisits the same
// benchmark×level cells other experiments already ran. A Session makes
// all of that share work instead of recompiling and re-simulating the
// identical baseline each time.
//
// Every artifact handed out is treated as immutable once built: models,
// graphs and estimates are read-only to the solvers, the baseline
// machine state is snapshotted into plain bytes, and each Optimize call
// transforms a fresh clone of the program. That makes concurrent solves
// over one Session safe (the evaluation sweeps run them across a worker
// pool under the race detector).
type Session struct {
	prog    *ir.Program
	profile *power.Profile
	layout  layout.Config
	cfg     SessionConfig

	counters sessionCounters

	// warmIdx is the warm-start registry: per solve family (same model
	// inputs except the Rspare/Xlimit bounds, same solver and budget),
	// the completed proven solves and their reusable state. A solve at
	// one constraint point consults its nearest single-axis neighbor
	// here before paying for a cold solve.
	warmIdx struct {
		mu  sync.Mutex
		idx map[solveFamily][]solvePoint
	}

	// machines is a one-slot pool of simulator instances. sim.Machine
	// retargets across images via SetImage, keeping its memory arrays and
	// predecode-table storage, so the session's many runs (baseline,
	// optimized, sweep points) reuse one machine instead of allocating
	// per run. Concurrent solves that find the slot empty just allocate —
	// pooling is an optimization, never a correctness dependency.
	machines struct {
		mu   sync.Mutex
		free *sim.Machine
	}

	graphs     memo[struct{}, map[string]*cfg.Graph]
	spare      memo[struct{}, float64]
	runs       memo[runKey, *Measurement]
	freqs      memo[freqKey, freq.Estimate]
	models     memo[modelKey, *model.Model]
	solves     memo[solveKey, *placement.Result]
	transforms memo[transformKey, *Transformed]
	reports    memo[reportKey, *Report]
	// brackets memoizes the static energy/cycle bounds per placed image;
	// the zero key is the all-in-flash baseline image.
	brackets memo[transformKey, *bounds.Result]
}

// SessionConfig fixes the per-session solver and simulator modes. The
// board (the paper's STM32F100 profile) and the memory map
// (layout.DefaultConfig) are not configurable: NewSession fixes them.
type SessionConfig struct {
	// WarmSolve enables the warm-start registry: an ILP solve consults
	// the completed solve at a neighboring Rspare/Xlimit point and reuses
	// its incumbent, bound and simplex basis. The placement and every
	// RunJSON-level output are identical to a cold solve's (golden
	// tests); what changes is solver effort — Result.Nodes, the recorded
	// warm-ilp-optimal strategy — and which neighbor is consulted can
	// depend on completion order under concurrency. Consumers that
	// fingerprint solver effort (or need it deterministic under
	// concurrent solves) must leave this off; the sweeps and the service
	// turn it on.
	WarmSolve bool
	// NoFuse forces every simulator run to slot-at-a-time dispatch,
	// bypassing the superblock engine (sim.Machine.NoFuse). Outputs are
	// byte-identical either way — that identity is the fused engine's
	// contract and what the differential sweeps assert — so this is a
	// debug/verification knob (beebsbench -nofuse), never a semantics
	// switch.
	NoFuse bool
}

// NewSession verifies the program once and wraps it in an empty staged
// pipeline. The program must not be mutated afterwards; every transform
// the Session performs works on a clone.
func NewSession(p *ir.Program, cfg SessionConfig) (*Session, error) {
	if err := ir.Verify(p); err != nil {
		return nil, errs.Wrap(errs.StageVerify, err)
	}
	return &Session{prog: p, profile: power.STM32F100(), layout: layout.DefaultConfig(), cfg: cfg}, nil
}

// Program returns the session's (immutable) input program.
func (s *Session) Program() *ir.Program { return s.prog }

// acquireMachine returns a simulator targeted at img: the pooled machine
// retargeted via SetImage when it is idle, a fresh one otherwise.
func (s *Session) acquireMachine(img *layout.Image) *sim.Machine {
	s.machines.mu.Lock()
	m := s.machines.free
	s.machines.free = nil
	s.machines.mu.Unlock()
	if m == nil {
		m = sim.New(img, s.profile)
	} else {
		m.SetImage(img)
	}
	m.NoFuse = s.cfg.NoFuse
	return m
}

// releaseMachine detaches any observer and parks the machine for reuse.
// If another run already parked one, this machine is simply dropped.
func (s *Session) releaseMachine(m *sim.Machine) {
	m.Attach(nil)
	m.MaxInstrs = 0
	s.machines.mu.Lock()
	if s.machines.free == nil {
		s.machines.free = m
	}
	s.machines.mu.Unlock()
}

// Profile returns the session's board power profile.
func (s *Session) Profile() *power.Profile { return s.profile }

// LayoutConfig returns the session's memory map.
func (s *Session) LayoutConfig() layout.Config { return s.layout }

// ---------------------------------------------------------------------
// Stage keys. Each stage is memoized on exactly the parameters that can
// change its output; everything else is a session invariant.

// runKey identifies one simulated run: the image — the session program
// laid out under image.placement, or with optimized set the transformed
// program of transform key image — the instruction limit, whether the
// energy-attribution collector was attached, and for a harvested-power
// replay its resolved schedule. replay is explicit because an empty
// schedule (no outages, periodic checkpoints only) is still a replay.
type runKey struct {
	image      transformKey
	optimized  bool
	traced     bool
	maxInstrs  uint64
	replay     bool
	trace      string
	ckptCycles uint64
}

// freqKey identifies a frequency estimate: the static estimate has one
// value per session; the profiled estimate depends on the baseline run,
// hence on the instruction limit.
type freqKey struct {
	profiled  bool
	maxInstrs uint64
}

// modelKey carries every parameter that reaches model.Build: the Fb
// source, the (resolved) RAM and time budgets, the candidate cap,
// link-time visibility, and the checkpoint term (0 = always-powered).
// EFlash/ERAM come from the session profile.
type modelKey struct {
	freq          freqKey
	rspare        float64
	xlimit        float64
	maxCandidates int
	linkTime      bool
	ckptNJPerByte float64
}

// solveKey is a modelKey plus the solver choice and its resource budget.
// The budget is part of the key: a budget-degraded placement must never
// be served to a caller that asked for the exact solve, and vice versa.
type solveKey struct {
	model  modelKey
	solver Solver
	budget placement.Budget
}

// reportKey identifies a full Optimize outcome: the solve plus the
// run-level knobs (tracing, instruction limit, injected power trace).
type reportKey struct {
	solve        solveKey
	traced       bool
	maxInstrs    uint64
	intermittent intermittentSpec
}

// intermittentSpec is the resolved intermittent environment of one
// configuration: the concrete outage schedule (canonical text form — a
// profile name plus the measured horizon resolves to this before keying,
// so identical schedules share memo slots however they were spelled),
// the schedule's outage count, the checkpoint interval, and whether the
// solve saw the checkpoint term. The zero value is the always-powered
// pipeline.
type intermittentSpec struct {
	enabled    bool
	trace      string
	outages    int
	ckptCycles uint64
	aware      bool
}

// transformKey identifies a transformed program: the chosen placement,
// the transform mode, and the RAM budget the static analysis verifies
// against. Two solves that pick the same block set — common between the
// static and profiled Figure 5 variants, which also share the derived
// budget — share one transformed program, optimized image and analysis.
type transformKey struct {
	placement string
	linkTime  bool
	rspare    float64
}

func canonicalPlacement(inRAM map[string]bool) string {
	if len(inRAM) == 0 {
		return ""
	}
	labels := make([]string, 0, len(inRAM))
	for lbl, in := range inRAM {
		if in {
			labels = append(labels, lbl)
		}
	}
	sort.Strings(labels)
	return strings.Join(labels, "\x00")
}

// resolve validates Options and normalizes them into stage keys. Each
// default is applied once, by the function that owns it: SpareRAM
// derives Rspare here, resolveModel fills Xlimit and MaxCandidates,
// resolveSolve fills Solver — so Options{} and its
// explicit spelling hit the same memo slots, and so do Model and Solve
// calls that spell the same configuration. With PowerTrace set,
// resolution includes the baseline run (memoized — it is the trace
// horizon and the checkpoint term's event-count basis), which is why it
// takes a context.
func (s *Session) resolve(ctx context.Context, opts Options) (reportKey, error) {
	if err := opts.Validate(); err != nil {
		return reportKey{}, err
	}
	rspare := opts.Rspare
	if rspare == 0 {
		var err error
		rspare, err = s.SpareRAM()
		if err != nil {
			return reportKey{}, err
		}
	}
	ispec, ckptNJ, err := s.resolveIntermittent(ctx, opts)
	if err != nil {
		return reportKey{}, err
	}
	return reportKey{
		solve: resolveSolve(SolveSpec{
			ModelSpec: ModelSpec{
				UseProfile:    opts.UseProfile,
				Rspare:        rspare,
				Xlimit:        opts.Xlimit,
				LinkTime:      opts.LinkTime,
				MaxInstrs:     opts.MaxInstrs,
				CkptNJPerByte: ckptNJ,
			},
			Solver: opts.Solver,
			Budget: placement.Budget{
				MaxNodes:  opts.SolveMaxNodes,
				MaxLPIter: opts.SolveMaxLPIter,
				Timeout:   opts.SolveTimeout,
			},
		}),
		traced:       opts.Trace,
		maxInstrs:    opts.MaxInstrs,
		intermittent: ispec,
	}, nil
}

// resolveIntermittent turns the PowerTrace/CheckpointCycles/CkptAware
// knobs into the resolved spec plus the model's checkpoint term. The
// horizon for profile generation is the baseline run's cycle count, so
// the outage density scales with the workload; the same concrete trace
// is injected into the baseline and optimized runs. The checkpoint term
// prices each RAM-placed byte at its journal traffic over the run's
// expected checkpoint count (baseline cycles / interval) and the
// schedule's outage count — deterministic in the key inputs, so the
// model memo stays exact.
func (s *Session) resolveIntermittent(ctx context.Context, opts Options) (intermittentSpec, float64, error) {
	if opts.PowerTrace == "" {
		return intermittentSpec{}, 0, nil
	}
	base, err := s.Measure(ctx, nil, false, opts.MaxInstrs)
	if err != nil {
		return intermittentSpec{}, 0, err
	}
	tr, err := sim.ResolveTrace(opts.PowerTrace, base.Stats.Cycles)
	if err != nil {
		return intermittentSpec{}, 0, err
	}
	ispec := intermittentSpec{
		enabled:    true,
		trace:      tr.String(),
		outages:    len(tr.Outages),
		ckptCycles: opts.CheckpointCycles,
		aware:      opts.CkptAware,
	}
	if ispec.ckptCycles == 0 {
		ispec.ckptCycles = sim.DefaultCheckpointCycles
	}
	var ckptNJ float64
	if opts.CkptAware {
		perCkptNJ, perRestoreNJ := sim.CheckpointCostPerByteNJ(s.profile)
		nCkpt := float64(base.Stats.Cycles / ispec.ckptCycles)
		ckptNJ = nCkpt*perCkptNJ + float64(ispec.outages)*perRestoreNJ
	}
	return ispec, ckptNJ, nil
}

// profiledMaxInstrs keeps the static-estimate key independent of the
// instruction limit (the estimate never simulates).
func profiledMaxInstrs(profiled bool, maxInstrs uint64) uint64 {
	if !profiled {
		return 0
	}
	return maxInstrs
}

// ---------------------------------------------------------------------
// Stages.

// Graphs builds (once) the per-function control-flow graphs.
func (s *Session) Graphs() (map[string]*cfg.Graph, error) {
	return s.graphs.do(&s.counters.cfg, struct{}{}, func() (map[string]*cfg.Graph, error) {
		g, err := cfg.BuildAll(s.prog)
		if err != nil {
			return nil, errs.Wrap(errs.StageCFG, err)
		}
		return g, nil
	})
}

// SpareRAM derives (once) the default Rspare: physical RAM minus data
// and the statically bounded stack, as §4.1 suggests.
func (s *Session) SpareRAM() (float64, error) {
	return s.spare.do(&s.counters.cfg, struct{}{}, func() (float64, error) {
		return float64(layout.SpareRAM(s.prog, s.layout)), nil
	})
}

// Measurement is one simulated execution of the session program under a
// given placement: the image, the run statistics, the derived headline
// metrics, the optional energy attribution, and a snapshot of every
// writable global's final bytes (for semantic-equivalence checks).
type Measurement struct {
	Image   *layout.Image
	Stats   *sim.Stats
	Metrics RunMetrics
	// Trace is the per-block energy attribution (nil unless the run was
	// requested with tracing).
	Trace *trace.Profile
	// Intermittent is the harvested-power replay's report (nil unless
	// the run replayed a power trace); Stats then points at its Stats.
	Intermittent *sim.IntermittentReport

	globals map[string][]byte
}

// Measure lays out the session program with the given placement and
// simulates it, memoizing on (placement, instruction limit, tracing).
// A nil placement is the all-in-flash baseline. Cancelling ctx stops the
// simulation within its poll window; a cancelled computation is evicted
// from the memo so a later caller with a live context can retry.
func (s *Session) Measure(ctx context.Context, inRAM map[string]bool, traced bool, maxInstrs uint64) (*Measurement, error) {
	key := runKey{image: transformKey{placement: canonicalPlacement(inRAM)}, traced: traced, maxInstrs: maxInstrs}
	return s.run(ctx, key, func() (*layout.Image, error) { return s.placedImage(inRAM) })
}

// placedImage lays out the untransformed session program under inRAM.
func (s *Session) placedImage(inRAM map[string]bool) (*layout.Image, error) {
	img, err := layout.New(s.prog, s.layout, inRAM)
	if err != nil {
		return nil, errs.Wrap(errs.StageLayout, err)
	}
	return img, nil
}

// run is the one simulation stage, behind Measure and the optimized and
// harvested-power runs of Optimize: acquire a machine for the image,
// attach the collector when traced, run — continuously, or replaying the
// key's power trace — check trace conservation and snapshot the writable
// globals. Continuous runs of untransformed images count under
// SessionStats.Baseline, of transformed ones under OptRun; replays count
// under neither (only in SimRuns and CyclesSimulated), so the ledger
// schema is the same with and without a power trace. A completed traced
// run serves untraced requests for the same image: the observer is
// passive, so the statistics and final memory state are identical.
func (s *Session) run(ctx context.Context, key runKey, image func() (*layout.Image, error)) (*Measurement, error) {
	counter, stage := &s.counters.baseline, errs.StageBaseline
	switch {
	case key.replay:
		counter, stage = &s.counters.intermit, errs.StageIntermittent
	case key.optimized:
		counter, stage = &s.counters.optrun, errs.StageOptRun
	}
	if !key.traced {
		tk := key
		tk.traced = true
		if m, ok := s.runs.peek(tk); ok {
			counter.hit()
			return m, nil
		}
	}
	return s.runs.do(counter, key, func() (*Measurement, error) {
		img, err := image()
		if err != nil {
			return nil, err
		}
		machine := s.acquireMachine(img)
		defer s.releaseMachine(machine)
		machine.MaxInstrs = key.maxInstrs
		var col *trace.Collector
		if key.traced {
			col = trace.NewCollector()
			machine.Attach(col)
		}
		var stats *sim.Stats
		var rep *sim.IntermittentReport
		if key.replay {
			rep, err = replay(ctx, machine, key)
			if rep != nil {
				stats = &rep.Stats
			}
		} else {
			stats, err = machine.RunContext(ctx)
		}
		if err != nil {
			return nil, errs.Wrap(stage, err)
		}
		s.counters.simRuns.Add(1)
		s.counters.cyclesSimulated.Add(stats.Cycles)
		m := &Measurement{
			Image:        img,
			Stats:        stats,
			Metrics:      metrics(machine, stats, img),
			Intermittent: rep,
			globals:      snapshotGlobals(s.prog, machine),
		}
		if col != nil {
			m.Trace = col.Profile()
			// The attribution invariant is cheap to check and catastrophic
			// to miss: every nanojoule the simulator charged must have
			// landed in exactly one block.
			if err := m.Trace.CheckConservation(stats); err != nil {
				return nil, errs.Wrap(stage, err)
			}
		}
		return m, nil
	})
}

// replay runs m through the key's power trace. The trace is re-parsed
// from its canonical text so the stage depends on nothing but its key;
// parsing the canonical form cannot fail for keys produced by
// resolveIntermittent, but the error path keeps the invariant visible.
func replay(ctx context.Context, m *sim.Machine, key runKey) (*sim.IntermittentReport, error) {
	var tr *sim.PowerTrace
	if key.trace != "" {
		var err error
		if tr, err = sim.ParsePowerTrace([]byte(key.trace)); err != nil {
			return nil, err
		}
	}
	return m.RunIntermittent(ctx, sim.IntermittentConfig{Trace: tr, CheckpointCycles: key.ckptCycles})
}

// Baseline is the all-in-flash Measure with the default instruction
// limit — the shared denominator of every configuration.
func (s *Session) Baseline(ctx context.Context) (*Measurement, error) {
	return s.Measure(ctx, nil, false, 0)
}

// Frequencies returns the Fb estimate: the static loop-depth estimate,
// or the measured block counts of the baseline run.
func (s *Session) Frequencies(ctx context.Context, useProfile bool, maxInstrs uint64) (freq.Estimate, error) {
	key := freqKey{profiled: useProfile, maxInstrs: profiledMaxInstrs(useProfile, maxInstrs)}
	return s.freqs.do(&s.counters.freq, key, func() (freq.Estimate, error) {
		if useProfile {
			base, err := s.Measure(ctx, nil, false, maxInstrs)
			if err != nil {
				return nil, errs.Wrap(errs.StageFreq, err)
			}
			return freq.FromProfile(base.Stats), nil
		}
		graphs, err := s.Graphs()
		if err != nil {
			return nil, err
		}
		return freq.Static(s.prog, graphs), nil
	})
}

// ModelSpec selects one cost-model instance. Unlike Options.Rspare,
// the Rspare here is literal bytes — a zero budget is a real (placeable-
// nothing) configuration in the Figure 6 sweeps; callers wanting the
// derived default pass SpareRAM(). Xlimit 0 and MaxCandidates 0 resolve
// to the pipeline defaults.
type ModelSpec struct {
	UseProfile    bool
	Rspare        float64
	Xlimit        float64
	MaxCandidates int
	LinkTime      bool
	// MaxInstrs only matters when UseProfile is set (it bounds the
	// profiling run).
	MaxInstrs uint64
	// CkptNJPerByte is the intermittent checkpoint term passed through
	// to model.Params (0 = always-powered).
	CkptNJPerByte float64
}

// resolveModel is the one place Xlimit and MaxCandidates default.
func resolveModel(spec ModelSpec) modelKey {
	if spec.Xlimit == 0 {
		spec.Xlimit = 2.0
	}
	if spec.MaxCandidates == 0 {
		spec.MaxCandidates = model.DefaultMaxCandidates
	}
	return modelKey{
		freq:          freqKey{profiled: spec.UseProfile, maxInstrs: profiledMaxInstrs(spec.UseProfile, spec.MaxInstrs)},
		rspare:        spec.Rspare,
		xlimit:        spec.Xlimit,
		maxCandidates: spec.MaxCandidates,
		linkTime:      spec.LinkTime,
		ckptNJPerByte: spec.CkptNJPerByte,
	}
}

// Model assembles (or reuses) the Eq. 1–9 cost model for the spec.
func (s *Session) Model(ctx context.Context, spec ModelSpec) (*model.Model, error) {
	return s.model(ctx, resolveModel(spec))
}

func (s *Session) model(ctx context.Context, key modelKey) (*model.Model, error) {
	return s.models.do(&s.counters.model, key, func() (*model.Model, error) {
		graphs, err := s.Graphs()
		if err != nil {
			return nil, err
		}
		est, err := s.Frequencies(ctx, key.freq.profiled, key.freq.maxInstrs)
		if err != nil {
			return nil, err
		}
		ef, er := s.profile.Coefficients()
		mdl, err := model.Build(s.prog, graphs, est, model.Params{
			EFlash: ef, ERAM: er,
			Rspare: key.rspare, Xlimit: key.xlimit,
			MaxCandidates:  key.maxCandidates,
			IncludeLibrary: key.linkTime,
			CkptNJPerByte:  key.ckptNJPerByte,
		})
		if err != nil {
			return nil, errs.Wrap(errs.StageModel, err)
		}
		return mdl, nil
	})
}

// SolveSpec is a ModelSpec plus the placement algorithm.
type SolveSpec struct {
	ModelSpec
	Solver Solver
	// Budget bounds the ILP solve; when any of its limits trips, the
	// degradation ladder (placement.SolveLadder) steps down and the
	// result's Strategy records the rung. The zero budget is the exact
	// solve.
	Budget placement.Budget
}

// Solve runs (or reuses) the placement solver on the spec's model.
func (s *Session) Solve(ctx context.Context, spec SolveSpec) (*placement.Result, error) {
	return s.solve(ctx, resolveSolve(spec))
}

// resolveSolve is the one place Solver defaults.
func resolveSolve(spec SolveSpec) solveKey {
	if spec.Solver == "" {
		spec.Solver = SolverILP
	}
	return solveKey{
		model:  resolveModel(spec.ModelSpec),
		solver: spec.Solver,
		budget: spec.Budget,
	}
}

// exhaustiveK is the size of the hottest-block set SolverExhaustive
// enumerates: 2^12 placements, each one model evaluation.
const exhaustiveK = 12

func (s *Session) solve(ctx context.Context, key solveKey) (*placement.Result, error) {
	return s.solves.do(&s.counters.solve, key, func() (*placement.Result, error) {
		mdl, err := s.model(ctx, key.model)
		if err != nil {
			return nil, err
		}
		var res *placement.Result
		switch key.solver {
		case SolverILP:
			// The ladder degrades through incumbent → rounding → greedy →
			// identity when the budget trips; with the zero budget and a
			// live context it is exactly the exact ILP solve.
			var warm *placement.Warm
			if s.cfg.WarmSolve {
				warm = s.neighborWarm(key)
			}
			res, err = placement.SolveLadder(ctx, mdl, key.budget, warm)
			if err == nil && s.cfg.WarmSolve {
				s.accountWarm(warm, res)
				s.recordWarm(key, res.Warm)
			}
		case SolverGreedy:
			res = placement.SolveGreedy(mdl)
		case SolverFunction:
			res = placement.SolveFunctionLevel(mdl, s.prog)
		case SolverExhaustive:
			res, err = placement.SolveExhaustive(mdl, exhaustiveK)
		default:
			return nil, fmt.Errorf("core: unknown solver %q", key.solver)
		}
		if err != nil {
			return nil, errs.Wrap(errs.StageSolve, err)
		}
		return res, nil
	})
}

// solveFamily groups solves that differ only in their Rspare/Xlimit
// constraint bounds — the model columns and objective are identical
// across a family, which is exactly the precondition for warm reuse.
type solveFamily struct {
	model  modelKey // rspare and xlimit zeroed
	solver Solver
	budget placement.Budget
}

// solvePoint is one completed proven solve within a family.
type solvePoint struct {
	rspare, xlimit float64
	warm           *placement.Warm
}

func familyOf(key solveKey) solveFamily {
	mk := key.model
	mk.rspare, mk.xlimit = 0, 0
	return solveFamily{model: mk, solver: key.solver, budget: key.budget}
}

// neighborWarm picks the carried state for a solve: the nearest
// completed solve in the same family that differs on exactly one
// constraint axis. Preference order is deterministic for a fixed
// registry state — rspare neighbors before xlimit neighbors, then
// smallest bound distance, then the tighter of two equidistant points —
// so identical solve sequences always consult identical neighbors.
func (s *Session) neighborWarm(key solveKey) *placement.Warm {
	fam := familyOf(key)
	s.warmIdx.mu.Lock()
	pts := s.warmIdx.idx[fam]
	s.warmIdx.mu.Unlock()

	best := -1
	bestAxis, bestDist, bestVal := 2, 0.0, 0.0
	for i, pt := range pts {
		sameR := pt.rspare == key.model.rspare
		sameX := pt.xlimit == key.model.xlimit
		var axis int // 0 = rspare neighbor, 1 = xlimit neighbor
		var dist, val float64
		switch {
		case sameX && !sameR:
			axis, dist, val = 0, absf(pt.rspare-key.model.rspare), pt.rspare
		case sameR && !sameX:
			axis, dist, val = 1, absf(pt.xlimit-key.model.xlimit), pt.xlimit
		default:
			continue // same point (impossible: memoized) or diagonal
		}
		if best < 0 || axis < bestAxis ||
			(axis == bestAxis && (dist < bestDist ||
				(dist == bestDist && val < bestVal))) {
			best, bestAxis, bestDist, bestVal = i, axis, dist, val
		}
	}
	if best < 0 {
		return nil
	}
	return pts[best].warm
}

// recordWarm registers a completed solve's donated state (nil for
// unproven results — only proven optima may seed future solves).
func (s *Session) recordWarm(key solveKey, warm *placement.Warm) {
	if warm == nil {
		return
	}
	fam := familyOf(key)
	s.warmIdx.mu.Lock()
	if s.warmIdx.idx == nil {
		s.warmIdx.idx = make(map[solveFamily][]solvePoint)
	}
	s.warmIdx.idx[fam] = append(s.warmIdx.idx[fam],
		solvePoint{rspare: key.model.rspare, xlimit: key.model.xlimit, warm: warm})
	s.warmIdx.mu.Unlock()
}

// accountWarm ledgers one ILP solve's warm outcome.
func (s *Session) accountWarm(warm *placement.Warm, res *placement.Result) {
	if warm == nil || !res.WarmUse.Consumed {
		s.counters.warmMisses.Add(1)
		return
	}
	s.counters.warmHits.Add(1)
	if res.WarmUse.Incumbent {
		s.counters.warmIncumbents.Add(1)
	}
	if res.WarmUse.InstantProof {
		s.counters.warmProofs.Add(1)
	}
	if res.WarmUse.ItersSaved > 0 {
		s.counters.simplexItersSaved.Add(uint64(res.WarmUse.ItersSaved))
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Transformed is the static half of one configuration: the Figure 4
// transform of a program clone for the chosen placement, its layout and
// the default analysis suite's verdict on that image. Nothing is
// simulated. Error diagnostics are recorded in Analysis, not returned,
// so a lint driver can print them; Optimize and StaticBounds refuse an
// image that has any. Immutable once built, and shared by every
// configuration that lands on the same placement, mode and budget.
type Transformed struct {
	// InRAM is the placement; Rspare the RAM budget the analysis
	// verified the image against.
	InRAM    map[string]bool
	Rspare   float64
	Program  *ir.Program
	Report   *transform.Report
	Image    *layout.Image
	Analysis *analysis.Result

	key transformKey
}

// Transform runs the static half of the pipeline for one configuration:
// solve, transform, layout and the default analysis suite, with no
// simulation. Unlike Optimize it returns an image whose analysis found
// errors; the caller decides what to do with them.
func (s *Session) Transform(ctx context.Context, opts Options) (*Transformed, error) {
	key, err := s.resolve(ctx, opts)
	if err != nil {
		return nil, err
	}
	_, tf, err := s.transformOf(ctx, key.solve)
	return tf, err
}

// transformOf solves key, then clones, transforms, lays out and
// statically verifies the program for the chosen placement. The
// transform is memoized on the placement, not the solve: solves that
// pick the same blocks share one Transformed.
func (s *Session) transformOf(ctx context.Context, key solveKey) (*placement.Result, *Transformed, error) {
	res, err := s.solve(ctx, key)
	if err != nil {
		return nil, nil, err
	}
	tkey := transformKey{
		placement: canonicalPlacement(res.InRAM),
		linkTime:  key.model.linkTime,
		rspare:    key.model.rspare,
	}
	tf, err := s.transforms.do(&s.counters.transform, tkey, func() (*Transformed, error) {
		// Transformation on a clone: the shared session program stays
		// pristine for every other configuration.
		opt := s.prog.Clone()
		applyFn := transform.Apply
		if tkey.linkTime {
			applyFn = transform.ApplyLinkTime
		}
		trep, err := applyFn(opt, res.InRAM)
		if err != nil {
			return nil, errs.Wrap(errs.StageTransform, err)
		}
		optImg, err := layout.New(opt, s.layout, res.InRAM)
		if err != nil {
			return nil, errs.Wrap(errs.StageLayout, err)
		}

		// Static verification of the transformed artifact: every branch in
		// range, every cross-memory edge instrumented with a dead scratch,
		// the CFG preserved, the memory map sound, the stack bounded.
		ares, err := analysis.Analyze(&analysis.Context{
			Original: s.prog, Prog: opt, InRAM: res.InRAM,
			Config: s.layout, Image: optImg, Rspare: tkey.rspare,
		})
		if err != nil {
			return nil, errs.Wrap(errs.StageAnalysis, err)
		}
		return &Transformed{InRAM: res.InRAM, Rspare: tkey.rspare, Program: opt, Report: trep,
			Image: optImg, Analysis: ares, key: tkey}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return res, tf, nil
}

// verified fails on error diagnostics, so no image the analysis rejects
// is simulated or bracketed.
func (tf *Transformed) verified() error {
	if n := len(tf.Analysis.Errors()); n > 0 {
		return errs.Wrap(errs.StageAnalysis, fmt.Errorf("found %d error(s):\n%s", n, tf.Analysis))
	}
	return nil
}

// boundsFor brackets (once per placement) the placed image's energy and
// cycles without simulating it. The zero key is the all-in-flash
// baseline. Structure (CFG, loops, calls) always comes from the pristine
// session program; costs from the placed blocks.
func (s *Session) boundsFor(key transformKey, image func() (*layout.Image, error)) (*bounds.Result, error) {
	return s.brackets.do(&s.counters.bounds, key, func() (*bounds.Result, error) {
		graphs, err := s.Graphs()
		if err != nil {
			return nil, err
		}
		img, err := image()
		if err != nil {
			return nil, err
		}
		br, err := bounds.Compute(s.prog, graphs, img, s.profile)
		if err != nil {
			return nil, errs.Wrap(errs.StageAnalysis, err)
		}
		return br, nil
	})
}

// BaselineBounds brackets the all-in-flash baseline image statically —
// no simulation runs.
func (s *Session) BaselineBounds() (*bounds.Result, error) {
	return s.boundsFor(transformKey{}, func() (*layout.Image, error) { return s.placedImage(nil) })
}

// StaticBounds runs the static half of the pipeline for one
// configuration — solve, transform, layout, verification, but no
// simulation — and brackets the resulting image. This is the sweep
// pruning primitive: an O(blocks) estimate of a cell that a simulated
// run can never undercut.
func (s *Session) StaticBounds(ctx context.Context, opts Options) (*bounds.Result, error) {
	key, err := s.resolve(ctx, opts)
	if err != nil {
		return nil, err
	}
	_, tf, err := s.transformOf(ctx, key.solve)
	if err != nil {
		return nil, err
	}
	if err := tf.verified(); err != nil {
		return nil, err
	}
	return s.boundsFor(tf.key, func() (*layout.Image, error) { return tf.Image, nil })
}

// PruneAgainst decides admissible pruning for one configuration: pruned
// when its static lower energy bound loNJ (StaticBounds' whole-program
// LoEnergyNJ, returned so the caller need not bracket the cell again)
// already exceeds incumbentNJ (the simulated optimized energy, in
// nanojoules, of the best configuration seen so far), so simulating the
// cell provably cannot produce a new winner. Every decision lands in the
// session ledger (SessionStats.PruneChecked / PruneSkipped).
func (s *Session) PruneAgainst(ctx context.Context, opts Options, incumbentNJ float64) (loNJ float64, pruned bool, err error) {
	br, err := s.StaticBounds(ctx, opts)
	if err != nil {
		return 0, false, err
	}
	s.counters.pruneChecked.Add(1)
	loNJ = br.Whole.LoEnergyNJ
	pruned = loNJ > incumbentNJ
	if pruned {
		s.counters.pruneSkipped.Add(1)
	}
	return loNJ, pruned, nil
}

// Optimize runs the full pipeline for one configuration, reusing every
// stage the session has already materialized. Identical configurations
// return the same (immutable) Report. Cancelling ctx aborts the run at
// the next stage boundary or simulator/solver poll; a stage computation
// that failed with a cancellation is evicted from its memo, so a retry
// with a live context recomputes instead of replaying the cancellation.
func (s *Session) Optimize(ctx context.Context, opts Options) (*Report, error) {
	key, err := s.resolve(ctx, opts)
	if err != nil {
		return nil, err
	}
	return s.reports.do(&s.counters.optimize, key, func() (*Report, error) {
		return s.optimize(ctx, key)
	})
}

// optimize assembles one Report from the staged artifacts plus the
// per-configuration tail (transform, optimized run, semantic check) —
// each of which is itself memoized on the placement the solve chose.
func (s *Session) optimize(ctx context.Context, key reportKey) (*Report, error) {
	base, err := s.Measure(ctx, nil, key.traced, key.maxInstrs)
	if err != nil {
		return nil, err
	}
	res, tf, err := s.transformOf(ctx, key.solve)
	if err != nil {
		return nil, err
	}
	if err := tf.verified(); err != nil {
		return nil, err
	}
	mdl, err := s.model(ctx, key.solve.model)
	if err != nil {
		return nil, err
	}
	orun, err := s.run(ctx, runKey{image: tf.key, optimized: true, traced: key.traced, maxInstrs: key.maxInstrs},
		func() (*layout.Image, error) { return tf.Image, nil })
	if err != nil {
		return nil, err
	}

	// Semantic validation: every writable global must hold identical
	// bytes after both runs.
	if err := compareGlobals(s.prog, base.globals, orun.globals); err != nil {
		return nil, errs.Wrap(errs.StageValidate,
			fmt.Errorf("transformation changed program behaviour: %w", err))
	}

	rep := &Report{
		Baseline:       base.Metrics,
		Optimized:      orun.Metrics,
		Placement:      res,
		Model:          mdl,
		Transform:      tf.Report,
		Optimized0:     tf.Program,
		Image:          tf.Image,
		Analysis:       tf.Analysis,
		Strategy:       res.Strategy,
		StrategyReason: res.StrategyReason,
	}
	if key.traced {
		rep.BaselineTrace = base.Trace
		rep.OptimizedTrace = orun.Trace
	}
	if rep.Baseline.EnergyMJ > 0 {
		rep.Ke = rep.Optimized.EnergyMJ / rep.Baseline.EnergyMJ
		rep.EnergyChange = rep.Ke - 1
	}
	if rep.Baseline.TimeS > 0 {
		rep.Kt = rep.Optimized.TimeS / rep.Baseline.TimeS
		rep.TimeChange = rep.Kt - 1
	}
	if rep.Baseline.PowerMW > 0 {
		rep.PowerChange = rep.Optimized.PowerMW/rep.Baseline.PowerMW - 1
	}
	rep.StartupCopyCycles, rep.StartupCopyEnergyMJ = startupCopyCost(tf.Image, s.profile)

	// The intermittent tail: replay the same concrete outage schedule
	// against both images. The baseline replay shares the zero transform
	// key across configurations; the optimized replay keys on the chosen
	// placement, so aware and oblivious solves that land on different
	// placements measure separately while identical placements share.
	// A replay resumes from checkpoints after every outage, so its final
	// globals must equal the continuous baseline's — a checkpoint or
	// restore that lost state would otherwise ship a wrong work rate.
	if is := key.intermittent; is.enabled {
		rk := runKey{maxInstrs: key.maxInstrs, replay: true, trace: is.trace, ckptCycles: is.ckptCycles}
		baseRep, err := s.run(ctx, rk, func() (*layout.Image, error) { return base.Image, nil })
		if err != nil {
			return nil, err
		}
		rk.image, rk.optimized = tf.key, true
		optRep, err := s.run(ctx, rk, func() (*layout.Image, error) { return tf.Image, nil })
		if err != nil {
			return nil, err
		}
		for _, r := range []*Measurement{baseRep, optRep} {
			if err := compareGlobals(s.prog, base.globals, r.globals); err != nil {
				return nil, errs.Wrap(errs.StageValidate,
					fmt.Errorf("harvested-power replay changed program behaviour: %w", err))
			}
		}
		rep.Intermittent = &IntermittentComparison{
			Spec:             is.trace,
			Outages:          is.outages,
			CheckpointCycles: is.ckptCycles,
			CkptAware:        is.aware,
			CkptNJPerByte:    key.solve.model.ckptNJPerByte,
			Baseline:         baseRep.Intermittent,
			Optimized:        optRep.Intermittent,
		}
	}
	return rep, nil
}

// snapshotGlobals captures the final bytes of every writable global so
// later optimized runs can be checked against the baseline without
// retaining the (mutable) machine.
func snapshotGlobals(p *ir.Program, m *sim.Machine) map[string][]byte {
	out := make(map[string][]byte)
	for _, g := range p.Globals {
		if g.RO {
			continue
		}
		if b, err := m.ReadGlobalBytes(g.Name, g.Size); err == nil {
			out[g.Name] = b
		}
	}
	return out
}

func compareGlobals(p *ir.Program, base, opt map[string][]byte) error {
	for _, g := range p.Globals {
		if g.RO {
			continue
		}
		av := base[g.Name]
		bv := opt[g.Name]
		for i := range av {
			if av[i] != bv[i] {
				return fmt.Errorf("global %q differs at byte %d: %#x vs %#x",
					g.Name, i, av[i], bv[i])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Stage accounting.

// StageStats counts one stage's memo lookups: a miss computes the
// artifact, a hit reuses it.
type StageStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// SessionStats is a snapshot of how much work a Session (or a set of
// sessions, via Add) performed versus reused. `beebsbench -json` emits
// it so the sweep-level saving is observable.
type SessionStats struct {
	Baseline  StageStats `json:"baseline"`
	CFG       StageStats `json:"cfg"`
	Freq      StageStats `json:"freq"`
	Model     StageStats `json:"model"`
	Solve     StageStats `json:"solve"`
	Transform StageStats `json:"transform"`
	OptRun    StageStats `json:"opt_run"`
	Optimize  StageStats `json:"optimize"`
	Bounds    StageStats `json:"bounds"`
	// SimRuns and CyclesSimulated count actual simulator executions
	// (baseline, optimized and harvested-power replays, deduplicated by
	// the memo).
	SimRuns         uint64 `json:"sim_runs"`
	CyclesSimulated uint64 `json:"cycles_simulated"`
	// PruneChecked/PruneSkipped ledger the admissible static-bound
	// pruning decisions: how many cells were tested against an incumbent
	// and how many of those skipped simulation outright.
	PruneChecked uint64 `json:"prune_checked"`
	PruneSkipped uint64 `json:"prune_skipped"`
	// WarmHits/WarmMisses ledger the warm-start registry: ILP solves
	// that consumed carried neighbor state versus solves that ran cold
	// (no usable neighbor, or the carried state was rejected).
	WarmHits   uint64 `json:"warm_hits"`
	WarmMisses uint64 `json:"warm_misses"`
}

// Reuses totals the stage hits: how many artifact computations the
// session avoided.
func (st SessionStats) Reuses() uint64 {
	return st.Baseline.Hits + st.CFG.Hits + st.Freq.Hits +
		st.Model.Hits + st.Solve.Hits + st.Transform.Hits +
		st.OptRun.Hits + st.Optimize.Hits + st.Bounds.Hits
}

// Add accumulates another snapshot (for aggregating across sessions).
func (st *SessionStats) Add(o SessionStats) {
	st.Baseline.Hits += o.Baseline.Hits
	st.Baseline.Misses += o.Baseline.Misses
	st.CFG.Hits += o.CFG.Hits
	st.CFG.Misses += o.CFG.Misses
	st.Freq.Hits += o.Freq.Hits
	st.Freq.Misses += o.Freq.Misses
	st.Model.Hits += o.Model.Hits
	st.Model.Misses += o.Model.Misses
	st.Solve.Hits += o.Solve.Hits
	st.Solve.Misses += o.Solve.Misses
	st.Transform.Hits += o.Transform.Hits
	st.Transform.Misses += o.Transform.Misses
	st.OptRun.Hits += o.OptRun.Hits
	st.OptRun.Misses += o.OptRun.Misses
	st.Optimize.Hits += o.Optimize.Hits
	st.Optimize.Misses += o.Optimize.Misses
	st.Bounds.Hits += o.Bounds.Hits
	st.Bounds.Misses += o.Bounds.Misses
	st.SimRuns += o.SimRuns
	st.CyclesSimulated += o.CyclesSimulated
	st.PruneChecked += o.PruneChecked
	st.PruneSkipped += o.PruneSkipped
	st.WarmHits += o.WarmHits
	st.WarmMisses += o.WarmMisses
}

// SolverStats is the solver-level warm-start ledger — finer grained
// than SessionStats' hit/miss pair. `beebsbench -json` and the daemon's
// /statsz emit it as the solver_stats section.
type SolverStats struct {
	// WarmHits counts ILP solves that consumed carried warm state;
	// WarmMisses those that ran cold (no neighbor, or state rejected).
	WarmHits   uint64 `json:"warm_hits"`
	WarmMisses uint64 `json:"warm_misses"`
	// IncumbentsAccepted counts solves whose starting incumbent came
	// from a neighbor's proven optimum.
	IncumbentsAccepted uint64 `json:"incumbents_accepted"`
	// WarmProofs counts solves closed by the carried bound alone — zero
	// LP relaxations solved.
	WarmProofs uint64 `json:"warm_proofs"`
	// SimplexItersSaved estimates root-relaxation simplex pivots avoided
	// across all warm solves.
	SimplexItersSaved uint64 `json:"simplex_iters_saved"`
}

// Add accumulates another snapshot (for aggregating across sessions).
func (st *SolverStats) Add(o SolverStats) {
	st.WarmHits += o.WarmHits
	st.WarmMisses += o.WarmMisses
	st.IncumbentsAccepted += o.IncumbentsAccepted
	st.WarmProofs += o.WarmProofs
	st.SimplexItersSaved += o.SimplexItersSaved
}

// SolverStats snapshots the session's warm-start solver counters.
func (s *Session) SolverStats() SolverStats {
	return SolverStats{
		WarmHits:           s.counters.warmHits.Load(),
		WarmMisses:         s.counters.warmMisses.Load(),
		IncumbentsAccepted: s.counters.warmIncumbents.Load(),
		WarmProofs:         s.counters.warmProofs.Load(),
		SimplexItersSaved:  s.counters.simplexItersSaved.Load(),
	}
}

type stageCounter struct {
	hits, misses atomic.Uint64
}

func (c *stageCounter) hit()  { c.hits.Add(1) }
func (c *stageCounter) miss() { c.misses.Add(1) }

func (c *stageCounter) snapshot() StageStats {
	return StageStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

type sessionCounters struct {
	baseline, cfg, freq, model, solve, transform, optrun, optimize stageCounter
	bounds                                                         stageCounter
	// intermit ledgers the run stage's harvested-power replays.
	// Deliberately not part of SessionStats: that schema is golden-tested,
	// and always-powered sweeps never replay.
	intermit stageCounter

	simRuns, cyclesSimulated   atomic.Uint64
	pruneChecked, pruneSkipped atomic.Uint64

	warmHits, warmMisses, warmIncumbents atomic.Uint64
	warmProofs, simplexItersSaved        atomic.Uint64
}

// Stats snapshots the session's stage hit/miss counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Baseline:        s.counters.baseline.snapshot(),
		CFG:             s.counters.cfg.snapshot(),
		Freq:            s.counters.freq.snapshot(),
		Model:           s.counters.model.snapshot(),
		Solve:           s.counters.solve.snapshot(),
		Transform:       s.counters.transform.snapshot(),
		OptRun:          s.counters.optrun.snapshot(),
		Optimize:        s.counters.optimize.snapshot(),
		Bounds:          s.counters.bounds.snapshot(),
		SimRuns:         s.counters.simRuns.Load(),
		CyclesSimulated: s.counters.cyclesSimulated.Load(),
		PruneChecked:    s.counters.pruneChecked.Load(),
		PruneSkipped:    s.counters.pruneSkipped.Load(),
		WarmHits:        s.counters.warmHits.Load(),
		WarmMisses:      s.counters.warmMisses.Load(),
	}
}

// ---------------------------------------------------------------------
// Concurrency-safe per-key memoization. First caller computes, everyone
// else blocks on that computation and shares the (immutable) result.

type memoEntry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

func (c *memo[K, V]) do(st *stageCounter, k K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e := c.m[k]
	if e == nil {
		e = new(memoEntry[V])
		c.m[k] = e
		st.miss()
	} else {
		st.hit()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.val, e.err = fn()
		e.done.Store(true)
	})
	// A computation that died of cancellation says nothing about the
	// artifact — evict it so a later caller with a live context retries
	// instead of replaying the stale cancellation forever.
	if e.err != nil && errs.IsCancellation(e.err) {
		c.mu.Lock()
		if c.m[k] == e {
			delete(c.m, k)
		}
		c.mu.Unlock()
	}
	return e.val, e.err
}

// peek returns a key's value only if its computation already finished
// successfully — it never blocks on an in-flight computation.
func (c *memo[K, V]) peek(k K) (V, bool) {
	c.mu.Lock()
	e := c.m[k]
	c.mu.Unlock()
	if e == nil || !e.done.Load() || e.err != nil {
		var zero V
		return zero, false
	}
	return e.val, true
}
