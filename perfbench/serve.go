package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/mcc"
	"repro/internal/service"
)

// daemon is one flashramd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	setup  time.Duration
	exited chan error
	stderr bytes.Buffer
}

// startDaemon spawns flashramd and waits until /healthz answers 200;
// that interval is the daemon's set-up time. A daemon that exits before
// it is healthy (its port was taken in the meantime) is retried on
// another port.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{url: "http://127.0.0.1:" + port, exited: make(chan error, 1)}
		d.cmd = exec.CommandContext(ctx, filepath.Join(bin, "flashramd"), "-addr", "127.0.0.1:"+port)
		d.cmd.Stderr = &d.stderr
		t0 := time.Now()
		if err := d.cmd.Start(); err != nil {
			return nil, err
		}
		go func() { d.exited <- d.cmd.Wait() }()
		if err := d.waitHealthy(ctx); err != nil {
			lastErr = err
			d.stop()
			continue
		}
		d.setup = time.Since(t0)
		return d, nil
	}
	return nil, fmt.Errorf("flashramd did not become healthy: %w", lastErr)
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("flashramd exited: %v: %s", err, tailOf(d.stderr.Bytes()))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("no healthy answer within 10s")
}

// stop drains the daemon with SIGTERM, as an orchestrator would, and
// waits for it to exit (killing it if the drain overruns). It returns
// the process's peak resident memory in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// reply is one request's outcome.
type reply struct {
	MS     float64
	Status int
	Body   []byte
	Err    error
}

// sendPass sends a pass's requests from serveClients closed-loop
// clients and returns the replies in request order and the pass's wall.
func sendPass(ctx context.Context, url string, reqs []request) ([]reply, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 120 * time.Second}
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				out[i] = post(ctx, client, url+"/v1/optimize", reqs[i].Body)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

func post(ctx context.Context, client *http.Client, url string, body []byte) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return reply{Err: err, MS: ms(time.Since(t0))}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{MS: ms(time.Since(t0)), Status: resp.StatusCode, Body: b, Err: err}
}

// benchFor resolves a request's program as the daemon does.
func benchFor(r service.OptimizeRequest) (*beebs.Benchmark, mcc.OptLevel, error) {
	lv, err := mcc.ParseOptLevel(r.Level)
	if err != nil {
		return nil, 0, err
	}
	if r.Bench != "" {
		b := beebs.Get(r.Bench)
		if b == nil {
			return nil, 0, fmt.Errorf("unknown benchmark %q", r.Bench)
		}
		return b, lv, nil
	}
	return &beebs.Benchmark{Name: r.Name, Source: r.Source}, lv, nil
}

// checkReplies is the serve workload's output check. A request fails
// when it got no response or a non-200 one, when a repeat's bytes differ
// from the first answer to the same request, or when its image fails the
// fresh-machine check or disagrees with the figures its document prints.
// It returns the failure count and the figures of merit over the hot
// set's BEEBS answers.
func checkReplies(ctx context.Context, c *checker, reqs []request, replies []reply, first map[string][]byte) (int, quality, error) {
	failed := 0
	verdict := map[string]error{}
	hot := map[string]ratios{}
	for i, rp := range replies {
		if rp.Err != nil || rp.Status != http.StatusOK {
			failed++
			continue
		}
		key := string(reqs[i].Body)
		if f, ok := first[key]; ok && !bytes.Equal(f, rp.Body) {
			failed++
			continue
		} else if !ok {
			first[key] = rp.Body
		}
		err, seen := verdict[key]
		if !seen {
			var o outcome
			o, err = checkDocument(c, reqs[i].Req, rp.Body)
			verdict[key] = err
			if err == nil && reqs[i].Hot && reqs[i].Req.Bench != "" {
				hot[key] = o.ratios()
			}
		}
		if err != nil {
			failed++
		}
	}
	// Summed in a fixed order, so the figures repeat bit for bit
	// whatever order the seed put the requests in.
	keys := make([]string, 0, len(hot))
	for k := range hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var q quality
	for _, k := range keys {
		q.add(hot[k])
	}
	for _, err := range verdict {
		if err != nil {
			return failed, q, err
		}
	}
	return failed, q, nil
}

// checkDocument re-runs the image a /v1/optimize document describes and
// compares every figure the document prints with the fresh run's.
func checkDocument(c *checker, req service.OptimizeRequest, body []byte) (outcome, error) {
	var doc evaluation.RunJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return outcome{}, err
	}
	b, lv, err := benchFor(req)
	if err != nil {
		return outcome{}, err
	}
	o, err := c.check(image{Bench: b, Level: lv, Moved: doc.MovedBlocks})
	if err != nil {
		return outcome{}, err
	}
	for _, p := range []struct {
		got  evaluation.MetricsJSON
		want figures
		name string
	}{{doc.Baseline, o.Base, "baseline"}, {doc.Optimized, o.Opt, "optimized"}} {
		w := p.want
		if !closeTo(p.got.EnergyMJ, w.EnergyMJ) || !closeTo(p.got.TimeMS, 1e3*w.TimeS) ||
			!closeTo(p.got.PowerMW, w.PowerMW) || p.got.Cycles != w.Stats.Cycles ||
			p.got.Instructions != w.Stats.Instructions {
			return outcome{}, fmt.Errorf("%s %v: the document's %s figures differ from the fresh run's", b.Name, lv, p.name)
		}
	}
	r := o.ratios()
	if !closeTo(doc.EnergyChange+1, r.Energy) || !closeTo(doc.TimeChange+1, r.Time) || !closeTo(doc.PowerChange+1, r.Power) {
		return outcome{}, fmt.Errorf("%s %v: the document's changes differ from the fresh run's", b.Name, lv)
	}
	return o, nil
}

// serveRun is the end-to-end measurement of the serve workload: passes
// against freshly started daemons until the run's time is up.
func serveRun(ctx context.Context, env *env) (*Result, map[string]any, error) {
	res := &Result{Metrics: map[string]Metric{}}
	var walls, rates, setups, rss, lat []float64
	c := newChecker(ctx)
	first := map[string][]byte{}
	var q quality
	p := newProbe()
	deadline := time.Now().Add(env.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if ctx.Err() != nil {
			break
		}
		p.measure()
		reqs, err := env.inputs.stream(env.seed, pass)
		if err != nil {
			return res, nil, err
		}
		d, err := startDaemon(ctx, env.bin)
		if err != nil {
			return res, nil, err
		}
		replies, wall := sendPass(ctx, d.url, reqs)
		rss = append(rss, d.stop())
		setups = append(setups, d.setup.Seconds())
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(len(reqs))/wall.Seconds())
		res.Attempted += len(reqs)
		for _, rp := range replies {
			lat = append(lat, rp.MS)
		}
		// The check runs after the daemon has stopped, outside the pass.
		f, pq, err := checkReplies(ctx, c, reqs, replies, first)
		res.Failed += f
		if err != nil {
			fmt.Fprintln(env.log, "perfbench: output check:", err)
		}
		if pass == 0 {
			q = pq
		}
	}
	if q.n != len(paperLevels)*len(beebs.All()) {
		fmt.Fprintf(env.log, "perfbench: the first pass answered %d of the %d hot BEEBS cells\n", q.n, len(paperLevels)*len(beebs.All()))
		res.Failed = res.Attempted
	} else {
		q.metrics(res.Metrics)
	}
	p99, pct := tail(lat)
	res.Metrics["wall_s"] = Metric{median(walls), "s"}
	res.Metrics["setup_s"] = Metric{median(setups), "s"}
	res.Metrics["peak_rss_mb"] = Metric{median(rss), "MB"}
	res.Metrics["req_p50_ms"] = Metric{median(lat), "ms"}
	res.Metrics["req_p99_ms"] = Metric{p99, "ms"}
	res.Metrics["req_per_s"] = Metric{median(rates), "1/s"}
	notes := map[string]any{
		"request": "one /v1/optimize call", "passes": len(walls), "samples": len(lat),
		"req_p99_ms_percentile": pct, "distinct_images": len(c.done),
	}
	p.measure()
	p.normalize(res, notes)
	return res, notes, nil
}

// serveTraced is the serve workload's traced run. Each pass is sent
// twice in-process, one request at a time: through a fresh
// service.Server's Handler, timing every call (the untraced wall and the
// service layer's figures), and through the stage-by-stage replay with
// warm sessions as the daemon's store builds them. The replay must
// encode the same bytes the handler answered.
func serveTraced(ctx context.Context, env *env) (*Result, map[string]any, error) {
	res := &Result{Metrics: map[string]Metric{}}
	var runs, shares []map[string]float64
	p := newProbe()
	deadline := time.Now().Add(env.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if ctx.Err() != nil {
			break
		}
		p.measure()
		reqs, err := env.inputs.stream(env.seed, pass)
		if err != nil {
			return res, nil, err
		}
		res.Attempted++
		m, sh, err := serveTracedPass(ctx, reqs, pass == 0)
		if err != nil {
			res.Failed++
			fmt.Fprintln(env.log, "perfbench: traced pass:", err)
			break
		}
		runs = append(runs, m)
		shares = append(shares, sh)
	}
	if len(runs) == 0 {
		return res, nil, nil
	}
	return res, traceNotes(res, runs, shares), nil
}

func serveTracedPass(ctx context.Context, reqs []request, check bool) (map[string]float64, map[string]float64, error) {
	srv := service.New(service.Config{})
	h := srv.Handler()
	replies := make([]reply, len(reqs))
	var hlat []float64
	t0 := time.Now()
	for i, r := range reqs {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(r.Body)).WithContext(ctx)
		s := time.Now()
		h.ServeHTTP(rec, hr)
		replies[i] = reply{MS: ms(time.Since(s)), Status: rec.Code, Body: rec.Body.Bytes()}
		hlat = append(hlat, replies[i].MS)
	}
	untraced := ms(time.Since(t0))
	st := srv.Stats()

	r := newReplayer(ctx)
	r.clk.start()
	for i, q := range reqs {
		b, lv, err := benchFor(q.Req)
		if err != nil {
			return nil, nil, err
		}
		rep, err := r.run(b, lv, core.Options{Rspare: q.Req.Rspare, Xlimit: q.Req.Xlimit, SolveMaxNodes: q.Req.SolveMaxNodes})
		if err != nil {
			return nil, nil, err
		}
		var body []byte
		err = r.clk.span("evaluation", func() (err error) {
			body, err = encodeJSON(evaluation.NewRunJSON(&evaluation.Run{Bench: b.Name, Level: lv, Report: rep}))
			return
		})
		if err != nil {
			return nil, nil, err
		}
		if replies[i].Status != http.StatusOK || !bytes.Equal(body, replies[i].Body) {
			return nil, nil, fmt.Errorf("request %d: the replay's document differs from the handler's answer (status %d)", i, replies[i].Status)
		}
	}
	r.clk.stop()
	if err := r.clk.checkConservation(); err != nil {
		return nil, nil, err
	}
	if check {
		if failed, _, err := checkReplies(ctx, newChecker(ctx), reqs, replies, map[string][]byte{}); err != nil || failed > 0 {
			return nil, nil, fmt.Errorf("output check: %d failed: %v", failed, err)
		}
	}
	m := layerMetrics(r)
	p99, _ := tail(hlat)
	m["service.handler_p50_ms"] = median(hlat)
	m["service.handler_p99_ms"] = p99
	m["service.store_hit_rate"] = rate(st.Store.Hits, st.Store.Hits+st.Store.Misses)
	m["service.store_evictions"] = float64(st.Store.Evictions)
	m["core.stage_hit_rate"] = st.SessionStats.Totals.HitRate
	m["core.sim_runs"] = float64(st.SessionStats.Stages.SimRuns)
	m["placement.warm_hit_rate"] = rate(st.SolverStats.WarmHits, st.SolverStats.WarmHits+st.SolverStats.WarmMisses)
	m["placement.warm_proofs"] = float64(st.SolverStats.WarmProofs)
	m["bench.untraced_wall_ms"] = untraced
	m["bench.trace_overhead_ms"] = m["bench.traced_wall_ms"] - untraced
	return m, layerShares(r.clk), nil
}

// encodeJSON encodes v as the daemon writes documents.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}
