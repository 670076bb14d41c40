// Package service is the placement-as-a-service subsystem: a
// long-running HTTP/JSON daemon (cmd/flashramd) wrapping core.Session,
// with a content-addressed artifact store shared across requests and
// tenants, an admission/worker layer reusing the evaluation sweep's
// panic isolation, and a load-test harness that publishes the
// hit-rate/latency ledger EXPERIMENTS.md records.
//
// The cache architecture is two-level. The outer level — a bounded
// core.Store — holds whole Sessions keyed by the compiled program (the
// fingerprint of what mcc emits), reached through
// core.SessionKey(source, level) aliases: a request's key compiles once,
// then resolves to its program's session, so O2 and Os requests that
// compile to identical code share one. The inner level is the Session's
// own per-stage memos, keyed on exactly the knobs that reach each stage
// (placement, budgets, tracing). A request's effective stage key is
// therefore (program, stage knobs), so identical stage inputs from
// different requests, connections, levels or tenants land on one shared
// computation. Every request
// runs its cells through one evaluation.Sweep over that store — the
// same code path the sweep CLIs and `flashram -json` take.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/evaluation"
	"repro/internal/mcc"
	"repro/internal/sim"
)

// DefaultMaxSessions bounds the store when the configuration leaves it
// zero. Sessions retain compiled programs, baseline simulations and
// solved placements; ~64 programs is a few hundred MB worst-case on the
// BEEBS-sized inputs the daemon serves, and the LRU keeps the working
// set hot under churn.
const DefaultMaxSessions = 64

// Config fixes a Server's invariants.
type Config struct {
	// Workers bounds both the admission gate (concurrent requests being
	// executed; excess requests queue) and the worker pool a sweep
	// request runs its cells through. 0 means max(2, GOMAXPROCS).
	Workers int
	// MaxSessions bounds the cross-request store (0 means
	// DefaultMaxSessions).
	MaxSessions int
	// DefaultTimeout is the per-request deadline applied when a request
	// does not carry its own timeout_ms (0 = none). Expiry surfaces as
	// 504 via errs.HTTPStatus.
	DefaultTimeout time.Duration
}

// maxBodyBytes caps request bodies: inline sources are kilobytes;
// anything larger is a mistake or an attack.
const maxBodyBytes = 4 << 20

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
}

// Server is the placement service: the sweep over the cross-request
// store, the admission gate, and the request ledger behind /statsz.
// Build one with New and serve its Handler.
type Server struct {
	cfg Config
	// sweep runs every request's cells: its sessions come from — and
	// stay in — its bounded cross-request Store, and its pool is the
	// sweep request's worker pool. The daemon's sessions solve warm:
	// requests at neighbouring constraints (a client walking a
	// trade-off curve) reuse each other's solve state, and the emitted
	// documents are identical either way.
	sweep *evaluation.Sweep
	sem   chan struct{}
	start time.Time

	draining atomic.Bool

	requests struct {
		total, inFlight              atomic.Uint64
		ok, clientErr, serverErr     atomic.Uint64
		canceled, timedOut, rejected atomic.Uint64
		notModified                  atomic.Uint64
	}
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg.fill()
	return &Server{
		cfg:   cfg,
		sweep: &evaluation.Sweep{Workers: cfg.Workers, Store: core.NewStore(cfg.MaxSessions)},
		sem:   make(chan struct{}, cfg.Workers),
		start: time.Now(),
	}
}

// StartDrain flips the server into drain mode: /healthz reports 503 so
// load balancers stop routing here, and new optimization requests are
// rejected with 503 while in-flight ones run to completion. The caller
// (cmd/flashramd) follows up with http.Server.Shutdown, which waits for
// the in-flight responses.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's routed handler:
//
//	POST /v1/optimize  one pipeline run    → Report JSON (shared schema)
//	POST /v1/sweep     many pipeline runs  → NDJSON stream, index order
//	GET  /healthz      liveness (503 while draining)
//	GET  /statsz       request + cache ledger
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

// ---------------------------------------------------------------------
// Request schema.

// OptimizeRequest is the JSON body of /v1/optimize and one cell of
// /v1/sweep: which program (a built-in BEEBS benchmark or inline mcc
// source) and the pipeline knobs the CLIs expose as flags. Zero values
// mean the pipeline defaults, exactly as for the CLIs, so the same
// logical request hits the same stage memos no matter how it is spelled.
type OptimizeRequest struct {
	// Bench names a built-in BEEBS benchmark; Source carries inline mcc
	// source (exactly one of the two must be set). Name labels inline
	// source in the report ("source" when empty).
	Bench  string `json:"bench,omitempty"`
	Source string `json:"source,omitempty"`
	Name   string `json:"name,omitempty"`

	Level  string  `json:"level,omitempty"`  // O0..Os, default O2
	Solver string  `json:"solver,omitempty"` // ilp greedy function exhaustive
	Xlimit float64 `json:"xlimit,omitempty"`
	Rspare float64 `json:"rspare,omitempty"`

	UseProfile bool   `json:"use_profile,omitempty"`
	LinkTime   bool   `json:"link_time,omitempty"`
	MaxInstrs  uint64 `json:"max_instrs,omitempty"`

	// PowerTrace schedules injected power failures for an intermittent
	// replay (DESIGN.md §6l): a harvest-profile name or an inline trace
	// spec. CheckpointCycles and CkptAware mirror the flashram flags.
	PowerTrace       string `json:"power_trace,omitempty"`
	CheckpointCycles uint64 `json:"checkpoint_cycles,omitempty"`
	CkptAware        bool   `json:"ckpt_aware,omitempty"`

	SolveMaxNodes  int `json:"solve_max_nodes,omitempty"`
	SolveMaxLPIter int `json:"solve_max_lp_iter,omitempty"`
	SolveTimeoutMS int `json:"solve_timeout_ms,omitempty"`

	// TimeoutMS bounds this request's wall clock (0 = the server
	// default). Expiry maps to 504.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// SweepRequest is the JSON body of /v1/sweep.
type SweepRequest struct {
	Cells []OptimizeRequest `json:"cells"`
}

// errorDoc is the JSON error envelope.
type errorDoc struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// sweepRow is one NDJSON line of the /v1/sweep stream: the cell's index
// in the request, and either its report or its classified error.
type sweepRow struct {
	Index  int                 `json:"index"`
	Run    *evaluation.RunJSON `json:"run,omitempty"`
	Error  string              `json:"error,omitempty"`
	Status int                 `json:"status,omitempty"`
}

// resolve validates one request into a sweep cell. Every failure here is
// request-shaped (errs.ErrBadInput → 400): the pipeline was never going
// to run.
func (r *OptimizeRequest) resolve() (evaluation.Cell, error) {
	var cell evaluation.Cell
	switch {
	case r.Bench != "" && r.Source != "":
		return cell, errs.BadInput(fmt.Errorf("bench and source are mutually exclusive"))
	case r.Bench != "":
		b := beebs.Get(r.Bench)
		if b == nil {
			return cell, errs.BadInput(fmt.Errorf("unknown benchmark %q", r.Bench))
		}
		cell.Bench = b
	case r.Source != "":
		name := r.Name
		if name == "" {
			name = "source"
		}
		cell.Bench = &beebs.Benchmark{Name: name, Source: r.Source}
	default:
		return cell, errs.BadInput(fmt.Errorf("one of bench or source is required"))
	}
	levelStr := r.Level
	if levelStr == "" {
		levelStr = "O2"
	}
	level, err := mcc.ParseOptLevel(levelStr)
	if err != nil {
		return cell, errs.BadInput(err)
	}
	cell.Level = level
	switch core.Solver(r.Solver) {
	case "", core.SolverILP, core.SolverGreedy, core.SolverFunction, core.SolverExhaustive:
	default:
		return cell, errs.BadInput(fmt.Errorf("unknown solver %q", r.Solver))
	}
	if r.TimeoutMS < 0 {
		return cell, errs.BadInput(fmt.Errorf("negative timeout_ms is invalid"))
	}
	if r.PowerTrace != "" {
		// Resolve against a placeholder horizon: profile names generate
		// lazily per program, but a malformed inline trace spec must fail
		// here (400), not inside the pipeline. ResolveTrace's errors are
		// already request-shaped; BadInput is idempotent.
		if _, err := sim.ResolveTrace(r.PowerTrace, 1<<20); err != nil {
			return cell, errs.BadInput(err)
		}
	}
	cell.Opts = core.Options{
		UseProfile:       r.UseProfile,
		Solver:           core.Solver(r.Solver),
		Xlimit:           r.Xlimit,
		Rspare:           r.Rspare,
		LinkTime:         r.LinkTime,
		MaxInstrs:        r.MaxInstrs,
		PowerTrace:       r.PowerTrace,
		CheckpointCycles: r.CheckpointCycles,
		CkptAware:        r.CkptAware,
		SolveMaxNodes:    r.SolveMaxNodes,
		SolveMaxLPIter:   r.SolveMaxLPIter,
		SolveTimeout:     time.Duration(r.SolveTimeoutMS) * time.Millisecond,
	}
	if err := cell.Opts.Validate(); err != nil {
		return cell, err
	}
	return cell, nil
}

// ---------------------------------------------------------------------
// Handlers.

// requestContext applies the request's (or the server's default)
// deadline on top of the connection context.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// admit takes one execution slot, or fails when the server is draining
// or the request's deadline expires while queued. A drain rejection is
// errs.ErrUnavailable (→ 503 + Retry-After), not bad input: the request
// was fine, this replica is going away.
func (s *Server) admit(ctx context.Context) error {
	if s.draining.Load() {
		s.requests.rejected.Add(1)
		return fmt.Errorf("server is draining: %w", errs.ErrUnavailable)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.requests.total.Add(1)
	s.requests.inFlight.Add(1)
	defer func() { s.requests.inFlight.Add(^uint64(0)) }()

	var req OptimizeRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	cell, err := req.resolve()
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The response for a given request is deterministic (the byte-
	// identity contract below), so a validator derived purely from the
	// request fingerprint is sound: same program, level and knobs mean
	// the same document, however it was solved. A client replaying a
	// request with If-None-Match skips the pipeline entirely.
	etag := optimizeETag(cell)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		s.countStatus(http.StatusNotModified)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()

	if err := s.admit(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()

	var run *evaluation.Run
	err = evaluation.Isolated(func() (err error) {
		run, err = s.sweep.RunBenchmark(ctx, cell.Bench, cell.Level, cell.Opts)
		return err
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	doc := evaluation.NewRunJSON(run)
	s.countStatus(http.StatusOK)
	w.Header().Set("ETag", etag)
	// Byte-identity contract: this is exactly the document (and exactly
	// the encoding — two-space indent, trailing newline) `flashram
	// -json` writes for the same request, cold or warm.
	writeJSON(w, http.StatusOK, doc)
}

// optimizeETag fingerprints a resolved /v1/optimize request into a
// strong entity tag: the same content-addressed hash scheme the session
// store keys on (core.SessionKey), extended over every knob that can
// reach the emitted document. TimeoutMS is deliberately excluded — it
// changes whether the request finishes, never what it says.
func optimizeETag(cell evaluation.Cell) string {
	o := cell.Opts
	return `"` + core.SessionKey(
		"optimize/v1",
		cell.Bench.Name, cell.Bench.Source, cell.Level.String(),
		string(o.Solver),
		fmt.Sprintf("%g/%g", o.Xlimit, o.Rspare),
		fmt.Sprintf("%v/%v/%d", o.UseProfile, o.LinkTime, o.MaxInstrs),
		// The trace spec is its own part (it is free-form text; folding it
		// into a printf row could collide with a crafted spec), the small
		// intermittent knobs share one.
		o.PowerTrace,
		fmt.Sprintf("%d/%v", o.CheckpointCycles, o.CkptAware),
		fmt.Sprintf("%d/%d/%d", o.SolveMaxNodes, o.SolveMaxLPIter, int64(o.SolveTimeout)),
	) + `"`
}

// etagMatches implements the If-None-Match comparison: a comma-
// separated validator list, "*" matching anything, weak validators
// compared by opaque tag (RFC 9110's weak comparison — the document is
// deterministic, so weak and strong coincide here).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" {
			return true
		}
		if strings.TrimPrefix(tok, "W/") == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.total.Add(1)
	s.requests.inFlight.Add(1)
	defer func() { s.requests.inFlight.Add(^uint64(0)) }()

	var req SweepRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Cells) == 0 {
		s.writeError(w, errs.BadInput(fmt.Errorf("sweep needs at least one cell")))
		return
	}
	cells := make([]evaluation.Cell, len(req.Cells))
	var timeoutMS int
	for i := range req.Cells {
		cell, err := req.Cells[i].resolve()
		if err != nil {
			s.writeError(w, errs.BadInput(fmt.Errorf("cell %d: %w", i, err)))
			return
		}
		cells[i] = cell
		if req.Cells[i].TimeoutMS > timeoutMS {
			timeoutMS = req.Cells[i].TimeoutMS
		}
	}
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()

	// One admission slot per sweep request; the cells then fan out over
	// the server sweep's bounded pool.
	if err := s.admit(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// The pool delivers results as cells finish (any order); rows are
	// streamed strictly in index order, each flushed as soon as its
	// predecessors are out, so a slow cell delays only its successors.
	type doneMsg struct {
		i   int
		run *evaluation.Run
		err error
	}
	results := make(chan doneMsg)
	go func() {
		s.sweep.RunCells(ctx, cells, func(i int, run *evaluation.Run, err error) {
			results <- doneMsg{i: i, run: run, err: err}
		})
		close(results)
	}()
	pending := make(map[int]doneMsg, len(cells))
	next := 0
	worst := http.StatusOK
	for msg := range results {
		pending[msg.i] = msg
		for {
			m, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			row := sweepRow{Index: m.i}
			if m.err != nil {
				row.Error = m.err.Error()
				row.Status = errs.HTTPStatus(m.err)
				worst = max(worst, row.Status)
			} else {
				doc := evaluation.NewRunJSON(m.run)
				row.Run = &doc
			}
			line, err := json.Marshal(row)
			if err != nil {
				line, _ = json.Marshal(sweepRow{Index: m.i, Error: err.Error(), Status: http.StatusInternalServerError})
			}
			w.Write(append(line, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
			next++
		}
	}
	// The stream already committed a 200 header; the per-row statuses
	// carry the failures. The ledger records the sweep under its worst
	// row, so a sweep whose only failures are bad cells counts as a
	// client error, not a server fault.
	s.countStatus(worst)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// StatsDoc is the /statsz document: the request ledger, the store's
// hit/miss/eviction ledger, and the same session_stats schema
// `beebsbench -json` emits — one set of field names across the sweep
// CLIs and the service.
type StatsDoc struct {
	UptimeMS float64 `json:"uptime_ms"`
	Workers  int     `json:"workers"`
	Draining bool    `json:"draining"`

	Requests RequestStats `json:"requests"`

	// Store is the session-granular (cross-request) ledger; the
	// SessionStats totals fold it together with the per-stage memos.
	Store        core.CacheStats       `json:"store"`
	SessionStats evaluation.SweepStats `json:"session_stats"`
	// SolverStats is the warm-start solver ledger aggregated over every
	// session the store has held — the same schema `beebsbench -json`
	// emits, so sweep-local and cross-request solver reuse read alike.
	SolverStats core.SolverStats `json:"solver_stats"`
}

// RequestStats counts requests by outcome class.
type RequestStats struct {
	Total    uint64 `json:"total"`
	InFlight uint64 `json:"in_flight"`
	// OK counts 2xx; ClientError 4xx; ServerError 5xx; Canceled the
	// 499s (client went away); Rejected the drain-mode 503s (also in
	// ServerError); TimedOut the 504s (also in ServerError);
	// NotModified the conditional-request 304s (also in OK — the client
	// got exactly what it asked for, without a pipeline run).
	OK          uint64 `json:"ok"`
	ClientError uint64 `json:"client_error"`
	ServerError uint64 `json:"server_error"`
	Canceled    uint64 `json:"canceled"`
	TimedOut    uint64 `json:"timed_out"`
	Rejected    uint64 `json:"rejected"`
	NotModified uint64 `json:"not_modified"`
}

// Stats snapshots the server's ledger (the /statsz document).
func (s *Server) Stats() StatsDoc {
	store := s.sweep.Store
	cs := store.CacheStats()
	return StatsDoc{
		UptimeMS: float64(time.Since(s.start).Microseconds()) / 1e3,
		Workers:  s.cfg.Workers,
		Draining: s.draining.Load(),
		Requests: RequestStats{
			Total:       s.requests.total.Load(),
			InFlight:    s.requests.inFlight.Load(),
			OK:          s.requests.ok.Load(),
			ClientError: s.requests.clientErr.Load(),
			ServerError: s.requests.serverErr.Load(),
			Canceled:    s.requests.canceled.Load(),
			TimedOut:    s.requests.timedOut.Load(),
			Rejected:    s.requests.rejected.Load(),
			NotModified: s.requests.notModified.Load(),
		},
		Store:        cs,
		SessionStats: evaluation.NewSweepStats(cs.Hits, cs.Misses, store.StageStats()),
		SolverStats:  store.SolverStats(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// ---------------------------------------------------------------------
// Plumbing.

// decode reads a strict JSON body: unknown fields are bad input, so a
// typo'd knob fails loudly instead of silently running the default.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errs.BadInput(fmt.Errorf("decoding request: %w", err))
	}
	return nil
}

func (s *Server) countStatus(status int) {
	switch {
	case status == errs.StatusClientClosedRequest:
		s.requests.canceled.Add(1)
	case status == http.StatusNotModified:
		s.requests.ok.Add(1)
		s.requests.notModified.Add(1)
	case status >= 200 && status < 300:
		s.requests.ok.Add(1)
	case status >= 400 && status < 500:
		s.requests.clientErr.Add(1)
	default:
		s.requests.serverErr.Add(1)
		if status == http.StatusGatewayTimeout {
			s.requests.timedOut.Add(1)
		}
	}
}

// writeError classifies err through errs.HTTPStatus and writes the
// error envelope. Retriable rejections — drain 503s and deadline 504s —
// carry a Retry-After header so well-behaved clients back off instead
// of hammering a replica that is shutting down or saturated.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := errs.HTTPStatus(err)
	s.countStatus(status)
	if status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorDoc{Error: err.Error(), Status: status})
}

// writeJSON writes v with the CLIs' encoder settings (two-space indent,
// trailing newline) — the byte-identity anchor for /v1/optimize.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection owns delivery
}
