package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/beebs"
)

// LoadConfig drives one load-test run against the service: N requests
// drawn round-robin from a repeated workload mix, all of them in flight
// at once up to Concurrency. With an empty BaseURL the harness boots an
// in-process server (the -selftest path); pointing BaseURL at a running
// daemon load-tests it over real sockets (the CI smoke).
type LoadConfig struct {
	N           int    // total requests (0 = 1000)
	Concurrency int    // concurrent client requests (0 = N, i.e. all at once)
	BaseURL     string // target daemon; "" boots an in-process server

	// Workers/MaxSessions configure the in-process server (ignored with
	// BaseURL set).
	Workers     int
	MaxSessions int
}

// loadMix is the request workload a load test cycles through: all ten
// BEEBS benchmarks at both paper levels, plus a profiled and a
// tight-rspare variant that exercise distinct stage keys inside shared
// sessions — a mixed, repeated workload whose repeats must hit the store.
func loadMix() []OptimizeRequest {
	var mix []OptimizeRequest
	for _, b := range beebs.All() {
		mix = append(mix,
			OptimizeRequest{Bench: b.Name, Level: "O2"},
			OptimizeRequest{Bench: b.Name, Level: "Os"})
	}
	mix = append(mix,
		OptimizeRequest{Bench: "sha", Level: "O2", UseProfile: true},
		OptimizeRequest{Bench: "crc32", Level: "O2", Rspare: 512})
	return mix
}

// Percentiles summarizes a latency distribution, in milliseconds.
type Percentiles struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// LoadReport is the published ledger of one load-test run — the table
// EXPERIMENTS.md records and the CI smoke asserts on.
type LoadReport struct {
	N           int `json:"n"`
	Concurrency int `json:"concurrency"`
	UniqueCells int `json:"unique_cells"`

	OK           int         `json:"ok"`
	NonOK        int         `json:"non_ok"`
	Dropped      int         `json:"dropped"` // no HTTP response at all
	StatusCounts map[int]int `json:"status_counts"`

	Latency    Percentiles `json:"latency"`
	WallMS     float64     `json:"wall_ms"`
	Throughput float64     `json:"requests_per_s"`

	// Store deltas over the run: the cross-request session ledger and
	// the cumulative (session + stage memo) hit rate.
	StoreHits      uint64  `json:"store_hits"`
	StoreMisses    uint64  `json:"store_misses"`
	StoreEvictions uint64  `json:"store_evictions"`
	HitRate        float64 `json:"hit_rate"`
	TotalsHitRate  float64 `json:"totals_hit_rate"`

	// ColdWarmIdentical reports whether the probe request returned
	// byte-identical documents served cold (first ever) and warm (after
	// the full run) — the determinism contract of the report schema.
	ColdWarmIdentical bool `json:"cold_warm_identical"`
}

// String renders the ledger the way EXPERIMENTS.md records it.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d requests, %d concurrent, %d unique cells\n", r.N, r.Concurrency, r.UniqueCells)
	fmt.Fprintf(&b, "  responses : %d ok, %d non-2xx, %d dropped\n", r.OK, r.NonOK, r.Dropped)
	fmt.Fprintf(&b, "  latency   : p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, max %.2f ms (mean %.2f)\n",
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max, r.Latency.Mean)
	fmt.Fprintf(&b, "  wall clock: %.0f ms (%.0f req/s)\n", r.WallMS, r.Throughput)
	fmt.Fprintf(&b, "  store     : %d hits, %d misses, %d evictions — %.1f%% session hit rate, %.1f%% with stage memos\n",
		r.StoreHits, r.StoreMisses, r.StoreEvictions, 100*r.HitRate, 100*r.TotalsHitRate)
	fmt.Fprintf(&b, "  cold==warm: %v (byte-identical probe documents)\n", r.ColdWarmIdentical)
	return b.String()
}

// Check enforces the acceptance bar: every request answered 2xx, none
// dropped, the repeated workload hit the cross-request store more than
// half the time, and the probe document identical cold and warm.
func (r *LoadReport) Check() error {
	switch {
	case r.Dropped > 0:
		return fmt.Errorf("loadtest: %d requests dropped without a response", r.Dropped)
	case r.NonOK > 0:
		return fmt.Errorf("loadtest: %d non-2xx responses %v", r.NonOK, r.StatusCounts)
	case !r.ColdWarmIdentical:
		return fmt.Errorf("loadtest: probe documents differ between cold and warm serves")
	case r.N > 2*r.UniqueCells && r.HitRate <= 0.5:
		return fmt.Errorf("loadtest: cross-request hit rate %.1f%% on a repeated workload (want > 50%%)", 100*r.HitRate)
	}
	return nil
}

// LoadTest runs the harness. ctx bounds the whole run.
func LoadTest(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.N <= 0 {
		cfg.N = 1000
	}
	if cfg.Concurrency <= 0 || cfg.Concurrency > cfg.N {
		cfg.Concurrency = cfg.N
	}
	mix := loadMix()

	base := cfg.BaseURL
	if base == "" {
		srv := New(Config{Workers: cfg.Workers, MaxSessions: cfg.MaxSessions})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Concurrency,
		MaxIdleConnsPerHost: cfg.Concurrency,
	}}
	defer client.CloseIdleConnections()

	before, err := fetchStats(ctx, client, base)
	if err != nil {
		return nil, fmt.Errorf("loadtest: statsz before run: %w", err)
	}

	bodies := make([][]byte, len(mix))
	for i := range mix {
		b, err := json.Marshal(mix[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	// Cold probe: the first-ever serve of mix[0]; compared byte-for-byte
	// against the warm serve after the run.
	coldStatus, coldBody, _, err := post(ctx, client, base, bodies[0])
	if err != nil {
		return nil, fmt.Errorf("loadtest: cold probe: %w", err)
	}
	if coldStatus != http.StatusOK {
		return nil, fmt.Errorf("loadtest: cold probe answered %d: %s", coldStatus, coldBody)
	}

	rep := &LoadReport{
		N:            cfg.N,
		Concurrency:  cfg.Concurrency,
		UniqueCells:  len(mix),
		StatusCounts: make(map[int]int),
	}
	latencies := make([]float64, cfg.N)
	statuses := make([]int, cfg.N)
	droppedFlags := make([]bool, cfg.N)

	start := time.Now()
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				status, _, dt, err := post(ctx, client, base, bodies[i%len(bodies)])
				latencies[i] = float64(dt.Microseconds()) / 1e3
				if err != nil {
					droppedFlags[i] = true
					continue
				}
				statuses[i] = status
			}
		}()
	}
	for i := 0; i < cfg.N; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	rep.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	if rep.WallMS > 0 {
		rep.Throughput = float64(cfg.N) / (rep.WallMS / 1e3)
	}

	for i := 0; i < cfg.N; i++ {
		switch {
		case droppedFlags[i]:
			rep.Dropped++
		case statuses[i] >= 200 && statuses[i] < 300:
			rep.OK++
			rep.StatusCounts[statuses[i]]++
		default:
			rep.NonOK++
			rep.StatusCounts[statuses[i]]++
		}
	}
	rep.Latency = percentiles(latencies)

	// Warm probe: after thousands of serves the same request must still
	// produce the same bytes.
	warmStatus, warmBody, _, err := post(ctx, client, base, bodies[0])
	if err != nil {
		return nil, fmt.Errorf("loadtest: warm probe: %w", err)
	}
	rep.ColdWarmIdentical = warmStatus == http.StatusOK && bytes.Equal(coldBody, warmBody)

	after, err := fetchStats(ctx, client, base)
	if err != nil {
		return nil, fmt.Errorf("loadtest: statsz after run: %w", err)
	}
	rep.StoreHits = after.Store.Hits - before.Store.Hits
	rep.StoreMisses = after.Store.Misses - before.Store.Misses
	rep.StoreEvictions = after.Store.Evictions - before.Store.Evictions
	if n := rep.StoreHits + rep.StoreMisses; n > 0 {
		rep.HitRate = float64(rep.StoreHits) / float64(n)
	}
	dh := after.SessionStats.Totals.Hits - before.SessionStats.Totals.Hits
	dm := after.SessionStats.Totals.Misses - before.SessionStats.Totals.Misses
	if n := dh + dm; n > 0 {
		rep.TotalsHitRate = float64(dh) / float64(n)
	}
	return rep, nil
}

func post(ctx context.Context, client *http.Client, base string, body []byte) (status int, respBody []byte, dt time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	dt = time.Since(start)
	if err != nil {
		return 0, nil, dt, err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, dt, err
	}
	return resp.StatusCode, respBody, dt, nil
}

func fetchStats(ctx context.Context, client *http.Client, base string) (*StatsDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/statsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

func percentiles(ms []float64) Percentiles {
	if len(ms) == 0 {
		return Percentiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Percentiles{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}
