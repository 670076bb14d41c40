package evaluation

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
)

// TestSweepStatsDuringSessionBuilds reads the sweep's ledgers while
// sessions for every BEEBS program are still being built. Under -race
// this pins that a ledger read never touches a session mid-build; the
// final counts pin one compile per program.
func TestSweepStatsDuringSessionBuilds(t *testing.T) {
	sw := NewSweep(4)
	benches := beebs.All()
	var wg sync.WaitGroup
	for _, b := range benches {
		wg.Add(1)
		go func(b *beebs.Benchmark) {
			defer wg.Done()
			if _, err := sw.Session(b, testLevel); err != nil {
				t.Error(err)
			}
		}(b)
	}
	built := make(chan struct{})
	go func() {
		wg.Wait()
		close(built)
	}()
	for reading := true; reading; {
		select {
		case <-built:
			reading = false
		default:
		}
		sw.Stats()
		sw.SolverStats()
	}
	if st := sw.Stats(); st.SessionMisses != uint64(len(benches)) || st.SessionHits != 0 {
		t.Fatalf("session ledger = %d hits / %d misses, want 0 / %d", st.SessionHits, st.SessionMisses, len(benches))
	}
}

// TestSweepEvictionMidSweep runs interleaved cells on two programs over a
// one-session store, so every lookup evicts the other program's session
// and rebuilds its own. The documents must be byte-identical to an
// unbounded sweep's, and the ledger must stay cumulative: each rebuild is
// a session miss, and no evicted session's stage work goes missing.
func TestSweepEvictionMidSweep(t *testing.T) {
	a, b := beebs.Get("crc32"), beebs.Get("sha")
	cells := []Cell{
		{Bench: a, Level: testLevel},
		{Bench: b, Level: testLevel},
		{Bench: a, Level: testLevel, Opts: core.Options{UseProfile: true}},
		{Bench: b, Level: testLevel, Opts: core.Options{Xlimit: 1.5}},
		{Bench: a, Level: testLevel},
	}
	docs := func(sw *Sweep) [][]byte {
		t.Helper()
		out := make([][]byte, len(cells))
		sw.RunCells(context.Background(), cells, func(i int, r *Run, err error) {
			if err != nil {
				t.Errorf("cell %d: %v", i, err)
				return
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(NewRunJSON(r)); err != nil {
				t.Error(err)
			}
			out[i] = buf.Bytes()
		})
		if t.Failed() {
			t.FailNow()
		}
		return out
	}
	unbounded := NewSweep(1)
	bounded := &Sweep{Workers: 1, Store: core.NewStore(1)}
	want, got := docs(unbounded), docs(bounded)
	for i := range cells {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("cell %d differs under eviction:\n%s\nunbounded:\n%s", i, got[i], want[i])
		}
	}

	n := uint64(len(cells))
	if st := unbounded.Stats(); st.SessionMisses != 2 || st.SessionHits != n-2 {
		t.Fatalf("unbounded session ledger = %d hits / %d misses, want %d / 2", st.SessionHits, st.SessionMisses, n-2)
	}
	st := bounded.Stats()
	if st.SessionMisses != n || st.SessionHits != 0 {
		t.Fatalf("bounded session ledger = %d hits / %d misses, want 0 / %d", st.SessionHits, st.SessionMisses, n)
	}
	if cs := bounded.Store.CacheStats(); cs.Evictions != n-1 || cs.Entries != 1 {
		t.Fatalf("store ledger = %+v, want %d evictions and 1 entry", cs, n-1)
	}
	// Every cell ran on a fresh session, so every cell paid one baseline
	// run and one optimize; the retired snapshots must carry all of them.
	if st.Stages.Baseline.Misses != n || st.Stages.Optimize.Misses != n || st.Stages.Optimize.Hits != 0 {
		t.Fatalf("bounded stage ledger lost evicted work: baseline %+v optimize %+v", st.Stages.Baseline, st.Stages.Optimize)
	}
	// A fresh session has no neighbour to warm-start from.
	if solver := bounded.SolverStats(); solver.WarmMisses != n || solver.WarmHits != 0 {
		t.Fatalf("bounded solver ledger = %+v, want %d cold solves", solver, n)
	}
}
