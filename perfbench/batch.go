package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"time"

	"repro/internal/evaluation"
)

// sweep is one beebsbench process: its wall clock from spawn to exit,
// the part of it spent outside the sweep, its peak resident memory and
// its document.
type sweep struct {
	WallS, SetupS, RSSMB float64
	Doc                  evaluation.Document
	Body                 []byte // the document without its ledgers
}

// sweepSections are the beebsbench sections the sweep workload selects:
// Figure 5 (solve-bound), the traced savers runs (the observer path and
// trace.Collector) and the harvested-power sweep (intermittent replay).
// beebsbench runs them in this order through one evaluation.Sweep, so
// later sections reuse the sessions earlier ones compiled; the replay
// follows the same order.
var sweepSections = []string{"fig5", "savers", "intermittent"}

// runSweep spawns beebsbench for the sweep's sections with one worker
// and waits for it. beebsbench measures its own sweep (wall_ms, from
// after flag parsing to the end of the last section); the rest of the
// process's wall clock is its start-up and exit, reported as set-up.
func runSweep(ctx context.Context, bin string) (*sweep, error) {
	args := []string{"-json", "-workers", "1"}
	for _, s := range sweepSections {
		args = append(args, "-"+s)
	}
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "beebsbench"), args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("beebsbench: %v: %s", err, tailOf(stderr.Bytes()))
	}
	s := &sweep{WallS: wall}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.RSSMB = float64(ru.Maxrss) / 1024
	}
	if err := json.Unmarshal(out.Bytes(), &s.Doc); err != nil {
		return nil, fmt.Errorf("beebsbench: decoding its document: %w", err)
	}
	if s.Doc.Status != "" || len(s.Doc.Errors) > 0 {
		return nil, fmt.Errorf("beebsbench: document %q: %v", s.Doc.Status, s.Doc.Errors)
	}
	s.SetupS = wall - s.Doc.WallMS/1e3
	if s.Body, err = withoutLedger(s.Doc); err != nil {
		return nil, err
	}
	return s, nil
}

// withoutLedger encodes a document as beebsbench -noledger would.
func withoutLedger(d evaluation.Document) ([]byte, error) {
	d.SessionStats, d.SolverStats, d.WallMS, d.Workers = nil, nil, 0, 0
	return encodeJSON(d)
}

func tailOf(b []byte) string {
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return string(bytes.TrimSpace(b))
}

// sweeps spawns sweeps back to back until the run's time is up (at least
// one). A failed sweep is counted and the loop goes on. A non-nil probe
// is measured before every sweep and after the last.
func sweeps(ctx context.Context, log io.Writer, bin string, d time.Duration, p *probe) ([]*sweep, int, int) {
	deadline := time.Now().Add(d)
	var ok []*sweep
	attempted, failed := 0, 0
	if p != nil {
		defer p.measure()
	}
	for attempted == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		if p != nil {
			p.measure()
		}
		attempted++
		s, err := runSweep(ctx, bin)
		if err != nil {
			failed++
			fmt.Fprintln(log, "perfbench:", err)
			if failed >= 3 && len(ok) == 0 {
				break
			}
			continue
		}
		ok = append(ok, s)
	}
	return ok, attempted, failed
}

// checkSweep is the output check of the sweep workload: every sweep's
// document must equal the in-process replay's byte for byte, and every
// image the replay produced must pass the fresh-machine check. It
// returns the workload's figures of merit: energy, time and power over
// the images run on steady power (Figure 5's static-estimate bars and
// the savers runs, which place the same images), and useful work per mJ
// over the intermittent sweep's checkpoint-aware column.
func checkSweep(ctx context.Context, want []byte, runs []cellRun, replayDoc []byte) (map[string]Metric, error) {
	if !bytes.Equal(replayDoc, want) {
		return nil, fmt.Errorf("the in-process replay's document differs from beebsbench's")
	}
	c := newChecker(ctx)
	var steady, harvest quality
	for _, run := range runs {
		rep := run.Report
		im := image{Bench: run.Bench, Level: run.Level, Moved: rep.MovedLabels(), Trace: run.Opts.PowerTrace}
		o, err := c.check(im)
		if err != nil {
			return nil, err
		}
		if im.Trace == "" {
			if !reflect.DeepEqual(o.Opt.Stats, rep.Optimized.Stats) || !reflect.DeepEqual(o.Base.Stats, rep.Baseline.Stats) {
				return nil, fmt.Errorf("%s %v: the fresh run's statistics differ from the report's", run.Bench.Name, run.Level)
			}
		} else if !reflect.DeepEqual(o.Opt.Replay, rep.Intermittent.Optimized) || !reflect.DeepEqual(o.Base.Replay, rep.Intermittent.Baseline) {
			return nil, fmt.Errorf("%s %v %s: the fresh replay differs from the report's", run.Bench.Name, run.Level, im.Trace)
		}
		// The changes the documents print must be the fresh runs'.
		r := o.ratios()
		if im.Trace == "" && (!closeTo(rep.EnergyChange+1, r.Energy) || !closeTo(rep.TimeChange+1, r.Time) ||
			!closeTo(rep.PowerChange+1, r.Power)) ||
			im.Trace != "" && !closeTo(rep.Intermittent.WorkPerMJChange()+1, r.Work) {
			return nil, fmt.Errorf("%s %v: the reported changes differ from the fresh run's", run.Bench.Name, run.Level)
		}
		switch {
		case im.Trace == "" && !run.Opts.UseProfile:
			steady.add(r)
		case run.Opts.CkptAware:
			harvest.add(r)
		}
	}
	if steady.n == 0 || harvest.n == 0 {
		return nil, fmt.Errorf("no images to report figures of merit over")
	}
	out := map[string]Metric{}
	steady.metrics(out)
	out["work_per_mj_ratio"] = Metric{harvest.sum.Work / float64(harvest.n), "ratio"}
	return out, nil
}

// batchRun is the end-to-end measurement of the sweep workload.
func batchRun(ctx context.Context, env *env) (*Result, map[string]any, error) {
	p := newProbe()
	ss, attempted, failed := sweeps(ctx, env.log, env.bin, env.seconds, p)
	res := &Result{Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	notes := map[string]any{"sweeps": len(ss)}
	if len(ss) == 0 {
		return res, notes, nil
	}
	ref := ss[0].Body
	for _, s := range ss[1:] {
		if !bytes.Equal(s.Body, ref) {
			res.Failed++
			fmt.Fprintln(env.log, "perfbench: a sweep's document differs from the first sweep's")
		}
	}
	r := newReplayer(ctx)
	doc, runs, err := r.sweepDocument()
	if err == nil {
		var q map[string]Metric
		if q, err = checkSweep(ctx, ref, runs, doc); err == nil {
			for k, v := range q {
				res.Metrics[k] = v
			}
		}
	}
	if err != nil {
		fmt.Fprintln(env.log, "perfbench: output check:", err)
		res.Failed = res.Attempted
	}
	var walls, setups, rss []float64
	for _, s := range ss {
		walls = append(walls, s.WallS)
		setups = append(setups, s.SetupS)
		rss = append(rss, s.RSSMB)
	}
	wallMS := make([]float64, len(walls))
	for i, w := range walls {
		wallMS[i] = 1e3 * w
	}
	p99, pct := tail(wallMS)
	res.Metrics["wall_s"] = Metric{median(walls), "s"}
	res.Metrics["setup_s"] = Metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = Metric{median(rss), "MB"}
	res.Metrics["req_p50_ms"] = Metric{median(wallMS), "ms"}
	res.Metrics["req_p99_ms"] = Metric{p99, "ms"}
	// A sweep is one request, so the median job completes 1/wall of them
	// per second.
	res.Metrics["req_per_s"] = Metric{1 / median(walls), "1/s"}
	notes["request"] = "one beebsbench sweep"
	notes["req_p99_ms_percentile"] = pct
	notes["samples"] = len(walls)
	p.normalize(res, notes)
	return res, notes, nil
}

// batchTraced is the traced run of the sweep workload: untraced sweeps for
// the reference wall and the sweep's own ledgers, then in-process
// replays, timed layer by layer, until the run's time is up.
func batchTraced(ctx context.Context, env *env) (*Result, map[string]any, error) {
	ss, attempted, failed := sweeps(ctx, env.log, env.bin, env.seconds/5, nil)
	res := &Result{Attempted: attempted, Failed: failed, Metrics: map[string]Metric{}}
	if len(ss) == 0 {
		return res, nil, nil
	}
	ref := ss[0]
	var untraced []float64
	for _, s := range ss {
		untraced = append(untraced, s.Doc.WallMS)
	}
	deadline := time.Now().Add(env.seconds)
	var perReplay []map[string]float64
	var shares []map[string]float64
	for len(perReplay) == 0 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		res.Attempted++
		r := newReplayer(ctx)
		doc, runs, err := r.sweepDocument()
		if err == nil {
			err = r.clk.checkConservation()
		}
		if err == nil && len(perReplay) == 0 {
			// The output check once per run: every replay produces the
			// same document, which is compared each time.
			_, err = checkSweep(ctx, ref.Body, runs, doc)
		} else if err == nil && !bytes.Equal(doc, ref.Body) {
			err = fmt.Errorf("the in-process replay's document differs from beebsbench's")
		}
		if err != nil {
			res.Failed++
			fmt.Fprintln(env.log, "perfbench: traced replay:", err)
			if len(perReplay) == 0 {
				break
			}
			continue
		}
		m := layerMetrics(r)
		st, sv := ref.Doc.SessionStats, ref.Doc.SolverStats
		if st != nil && sv != nil {
			m["core.stage_hit_rate"] = st.Totals.HitRate
			m["core.sim_runs"] = float64(st.Stages.SimRuns)
			m["placement.warm_hit_rate"] = rate(sv.WarmHits, sv.WarmHits+sv.WarmMisses)
			m["placement.warm_proofs"] = float64(sv.WarmProofs)
		}
		m["bench.untraced_wall_ms"] = median(untraced)
		m["bench.trace_overhead_ms"] = m["bench.traced_wall_ms"] - median(untraced)
		perReplay = append(perReplay, m)
		shares = append(shares, layerShares(r.clk))
	}
	if len(perReplay) == 0 {
		return res, nil, nil
	}
	return res, traceNotes(res, perReplay, shares), nil
}

func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
