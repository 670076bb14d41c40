package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/beebs"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/mcc"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/transform"
)

// The output check runs outside every timed region. It rebuilds each
// distinct optimized image a workload produced from nothing but the
// program, the level and the list of blocks placed in RAM, runs it on a
// fresh sim.Machine, and checks its result words against the program's
// Go reference (beebs.Benchmark.Validate), or, for inline sources that
// have none, against the all-flash build of the same program. Under a
// power schedule the image is replayed intermittently and checked the
// same way after the last restore.

// image names one optimized image: a program at a level, the blocks
// placed in RAM, and the power schedule it ran under ("" = continuous).
type image struct {
	Bench *beebs.Benchmark
	Level mcc.OptLevel
	Moved []string
	Trace string
}

func (im image) key() string {
	return fmt.Sprintf("%s\x00%s\x00%v\x00%s\x00%s", im.Bench.Name, im.Bench.Source, im.Level, strings.Join(im.Moved, ","), im.Trace)
}

// figures are one image's headline numbers, measured on a fresh machine.
type figures struct {
	EnergyMJ, TimeS, PowerMW float64
	Instructions             float64
	WorkPerMJ                float64
	Stats                    *sim.Stats
	Replay                   *sim.IntermittentReport
}

// outcome is an image's figures next to its program's all-flash build's.
type outcome struct {
	Base, Opt figures
}

// ratios are the quality figures of merit of one image versus all-flash:
// energy, time, power and useful work per millijoule.
type ratios struct{ Energy, Time, Power, Work float64 }

func (o outcome) ratios() ratios {
	return ratios{
		Energy: o.Opt.EnergyMJ / o.Base.EnergyMJ,
		Time:   o.Opt.TimeS / o.Base.TimeS,
		Power:  o.Opt.PowerMW / o.Base.PowerMW,
		Work:   o.Opt.WorkPerMJ / o.Base.WorkPerMJ,
	}
}

// checker re-runs images, compiling each program and running each
// all-flash build once.
type checker struct {
	ctx   context.Context
	progs map[string]*ir.Program
	bases map[string]*figures
	words map[string][]uint32
	done  map[string]outcome
}

func newChecker(ctx context.Context) *checker {
	return &checker{ctx: ctx, progs: map[string]*ir.Program{}, bases: map[string]*figures{},
		words: map[string][]uint32{}, done: map[string]outcome{}}
}

func (c *checker) program(b *beebs.Benchmark, lv mcc.OptLevel) (*ir.Program, error) {
	k := b.Source + "\x00" + lv.String()
	if p := c.progs[k]; p != nil {
		return p, nil
	}
	p, err := mcc.Compile(b.Source, lv)
	if err != nil {
		return nil, err
	}
	c.progs[k] = p
	return p, nil
}

// check re-runs one image (once per distinct image) and validates it.
func (c *checker) check(im image) (outcome, error) {
	k := im.key()
	if o, ok := c.done[k]; ok {
		return o, nil
	}
	prog, err := c.program(im.Bench, im.Level)
	if err != nil {
		return outcome{}, err
	}
	base, err := c.run(im, prog, nil, true)
	if err != nil {
		return outcome{}, fmt.Errorf("%s %v all-flash: %w", im.Bench.Name, im.Level, err)
	}
	opt, err := c.run(im, prog, im.Moved, false)
	if err != nil {
		return outcome{}, fmt.Errorf("%s %v with %d blocks in RAM: %w", im.Bench.Name, im.Level, len(im.Moved), err)
	}
	o := outcome{Base: *base, Opt: *opt}
	c.done[k] = o
	return o, nil
}

// run builds and runs one image on a fresh machine. moved == nil is the
// all-flash build, whose figures and result words are cached per program
// and schedule.
func (c *checker) run(im image, prog *ir.Program, moved []string, isBase bool) (*figures, error) {
	bk := im.Bench.Source + "\x00" + im.Level.String() + "\x00" + im.Trace
	if isBase {
		if f := c.bases[bk]; f != nil {
			return f, nil
		}
	}
	cfg := layout.DefaultConfig()
	prof := power.STM32F100()
	var inRAM map[string]bool
	p := prog
	if !isBase {
		inRAM = map[string]bool{}
		for _, l := range moved {
			inRAM[l] = true
		}
		p = prog.Clone()
		if _, err := transform.Apply(p, inRAM); err != nil {
			return nil, err
		}
	}
	img, err := layout.New(p, cfg, inRAM)
	if err != nil {
		return nil, err
	}
	m := sim.New(img, prof)
	st, err := m.RunContext(c.ctx)
	if err != nil {
		return nil, err
	}
	f := &figures{EnergyMJ: st.EnergyMJ(), TimeS: m.TimeSeconds(st), PowerMW: m.AveragePowerMW(st),
		Instructions: float64(st.Instructions), Stats: st}
	f.WorkPerMJ = f.Instructions / f.EnergyMJ
	if err := c.validate(im, prog, m, isBase, bk); err != nil {
		return nil, err
	}
	if im.Trace != "" {
		// The schedule is generated against the all-flash run's length,
		// as the pipeline generates it.
		horizon := st.Cycles
		if !isBase {
			horizon = c.bases[bk].Stats.Cycles
		}
		tr, err := sim.ResolveTrace(im.Trace, horizon)
		if err != nil {
			return nil, err
		}
		m = sim.New(img, prof)
		rep, err := m.RunIntermittent(c.ctx, sim.IntermittentConfig{Trace: tr, CheckpointCycles: sim.DefaultCheckpointCycles})
		if err != nil {
			return nil, err
		}
		if err := c.validate(im, prog, m, false, bk); err != nil {
			return nil, fmt.Errorf("after intermittent replay: %w", err)
		}
		f.Replay = rep
		f.EnergyMJ = rep.TotalEnergyNJ() * 1e-6
		f.TimeS = rep.TimeToCompletionS(prof.ClockHz)
		f.PowerMW = f.EnergyMJ / f.TimeS
		f.WorkPerMJ = rep.WorkPerMJ()
	}
	if isBase {
		c.bases[bk] = f
	}
	return f, nil
}

// validate checks the result words the machine holds: against the Go
// reference when the program has one, else against the all-flash build.
func (c *checker) validate(im image, prog *ir.Program, m *sim.Machine, isBase bool, bk string) error {
	size := 0
	for _, g := range prog.Globals {
		if g.Name == "result" {
			size = g.Size
		}
	}
	if size == 0 {
		return fmt.Errorf("program has no result global")
	}
	raw, err := m.ReadGlobalBytes("result", size)
	if err != nil {
		return err
	}
	words := make([]uint32, size/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	if im.Bench.Validate != nil {
		if len(words) > im.Bench.ResultWords {
			words = words[:im.Bench.ResultWords]
		}
		return im.Bench.Validate(words)
	}
	if isBase {
		c.words[bk] = words
		return nil
	}
	want := c.words[bk]
	if len(want) != len(words) {
		return fmt.Errorf("result has %d words, the all-flash build %d", len(words), len(want))
	}
	for i := range want {
		if want[i] != words[i] {
			return fmt.Errorf("result[%d] = %#x, the all-flash build gives %#x", i, words[i], want[i])
		}
	}
	return nil
}

// closeTo compares a figure a document printed with the one the fresh
// run measured. The documents print float64s exactly, so anything beyond
// rounding in the last places is a mismatch.
func closeTo(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

// quality averages the ratios of the images a workload reports its
// figures of merit over.
type quality struct {
	sum ratios
	n   int
}

func (q *quality) add(r ratios) {
	q.sum.Energy += r.Energy
	q.sum.Time += r.Time
	q.sum.Power += r.Power
	q.sum.Work += r.Work
	q.n++
}

func (q *quality) metrics(out map[string]Metric) {
	n := float64(q.n)
	out["energy_ratio"] = Metric{q.sum.Energy / n, "ratio"}
	out["time_ratio"] = Metric{q.sum.Time / n, "ratio"}
	out["power_ratio"] = Metric{q.sum.Power / n, "ratio"}
	out["work_per_mj_ratio"] = Metric{q.sum.Work / n, "ratio"}
}
