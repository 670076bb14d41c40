package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
)

// storeProgram is one compilable source the store tests key on.
type storeProgram struct{ name, src string }

// storePrograms returns every BEEBS program and the example kernels.
func storePrograms(t *testing.T) []storeProgram {
	t.Helper()
	var out []storeProgram
	for _, b := range beebs.All() {
		out = append(out, storeProgram{b.Name, b.Source})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "kernels", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("example kernels: %v (found %d)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, storeProgram{filepath.Base(f), string(src)})
	}
	return out
}

// lookup resolves (src, level) in st the way the sweep does, keyed on
// the spelling of the request (config included, so each config is its
// own key) and counting builds in *builds. It may run off the test
// goroutine, so a failure is reported, not fatal.
func lookup(t *testing.T, st *core.Store, src string, level mcc.OptLevel, cfg core.SessionConfig, builds *atomic.Int32) *core.Session {
	t.Helper()
	key := core.SessionKey(src, level.String(), fmt.Sprint(cfg))
	sess, err := st.GetSession(key, func() (*core.Session, error) {
		if builds != nil {
			builds.Add(1)
		}
		prog, err := mcc.Compile(src, level)
		if err != nil {
			return nil, err
		}
		return core.NewSession(prog, cfg)
	})
	if err != nil {
		t.Errorf("%v: %v", level, err)
	}
	return sess
}

// TestStoreSharesIdenticalBuilds pins which compile levels mcc folds
// into one program: O2 and Os everywhere, O3 too except where inlining
// changes the code (rijndael and sha). Each level's key still compiles
// once (a miss); the store holds one session per distinct program.
func TestStoreSharesIdenticalBuilds(t *testing.T) {
	o3Differs := map[string]bool{"rijndael": true, "sha": true}
	st := core.NewStore(0)
	progs := storePrograms(t)
	for _, p := range progs {
		o2 := lookup(t, st, p.src, mcc.O2, core.SessionConfig{}, nil)
		if oS := lookup(t, st, p.src, mcc.Os, core.SessionConfig{}, nil); oS != o2 {
			t.Errorf("%s: Os and O2 resolve to different sessions", p.name)
		}
		o3 := lookup(t, st, p.src, mcc.O3, core.SessionConfig{}, nil)
		if shared := o3 == o2; shared == o3Differs[p.name] {
			t.Errorf("%s: O3 shares O2's session = %v, want %v", p.name, shared, !o3Differs[p.name])
		}
	}
	cs := st.CacheStats()
	n := len(progs)
	if want := n + len(o3Differs); cs.Entries != want || cs.Misses != uint64(3*n) || cs.Hits != 0 {
		t.Fatalf("ledger = %+v, want %d entries, %d misses, 0 hits", cs, want, 3*n)
	}
	// A second round is all hits: every key is a live alias.
	for _, p := range progs {
		lookup(t, st, p.src, mcc.Os, core.SessionConfig{}, nil)
	}
	if cs := st.CacheStats(); cs.Hits != uint64(n) || cs.Misses != uint64(3*n) {
		t.Fatalf("ledger after repeat = %+v, want %d hits", cs, n)
	}
}

// TestStoreSeparatesSessionConfigs: the same program under different
// solver or simulator modes is a different session.
func TestStoreSeparatesSessionConfigs(t *testing.T) {
	st := core.NewStore(0)
	src := beebs.Get("crc32").Source
	seen := map[*core.Session]core.SessionConfig{}
	for _, warm := range []bool{false, true} {
		for _, noFuse := range []bool{false, true} {
			cfg := core.SessionConfig{WarmSolve: warm, NoFuse: noFuse}
			sess := lookup(t, st, src, mcc.O2, cfg, nil)
			if prev, ok := seen[sess]; ok {
				t.Fatalf("configs %+v and %+v share a session", prev, cfg)
			}
			seen[sess] = cfg
			if oS := lookup(t, st, src, mcc.Os, cfg, nil); oS != sess {
				t.Errorf("config %+v: Os did not join O2's session", cfg)
			}
		}
	}
	if cs := st.CacheStats(); cs.Entries != 4 {
		t.Fatalf("entries = %d, want 4", cs.Entries)
	}
}

// TestStoreEvictsProgramWithAliases: evicting a program drops every key
// that resolved to it, so each must compile again.
func TestStoreEvictsProgramWithAliases(t *testing.T) {
	st := core.NewStore(1)
	crc, sha := beebs.Get("crc32").Source, beebs.Get("sha").Source
	var builds atomic.Int32
	lookup(t, st, crc, mcc.O2, core.SessionConfig{}, &builds)
	lookup(t, st, crc, mcc.Os, core.SessionConfig{}, &builds)
	if cs := st.CacheStats(); cs.Entries != 1 || cs.Evictions != 0 {
		t.Fatalf("after O2+Os: %+v, want 1 entry and no eviction", cs)
	}
	lookup(t, st, sha, mcc.O2, core.SessionConfig{}, &builds) // evicts crc32
	if cs := st.CacheStats(); cs.Entries != 1 || cs.Evictions != 1 {
		t.Fatalf("after sha: %+v, want 1 entry and 1 eviction", cs)
	}
	before := st.CacheStats()
	builds.Store(0)
	lookup(t, st, crc, mcc.Os, core.SessionConfig{}, &builds) // evicts sha
	lookup(t, st, crc, mcc.O2, core.SessionConfig{}, &builds)
	cs := st.CacheStats()
	if builds.Load() != 2 || cs.Misses != before.Misses+2 || cs.Hits != before.Hits {
		t.Fatalf("crc32 keys after eviction: %d builds, ledger %+v (before %+v); want both to rebuild", builds.Load(), cs, before)
	}
	if cs.Entries != 1 || cs.Evictions != 2 {
		t.Fatalf("ledger = %+v, want 1 entry and 2 evictions", cs)
	}
}

// TestStoreConcurrentAliasesJoinOneSession races first lookups of the O2
// and Os keys of one program (run it under -race): each key compiles
// once, and every caller ends on the same session.
func TestStoreConcurrentAliasesJoinOneSession(t *testing.T) {
	st := core.NewStore(0)
	src := beebs.Get("crc32").Source
	var builds atomic.Int32
	const callers = 16
	sessions := make([]*core.Session, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			level := mcc.O2
			if i%2 == 1 {
				level = mcc.Os
			}
			sessions[i] = lookup(t, st, src, level, core.SessionConfig{}, &builds)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if sessions[i] != sessions[0] {
			t.Fatalf("caller %d got a different session", i)
		}
	}
	cs := st.CacheStats()
	if builds.Load() != 2 || cs.Entries != 1 || cs.Misses != 2 || cs.Hits != callers-2 {
		t.Fatalf("%d builds, ledger %+v; want 2 builds, 1 entry, 2 misses, %d hits", builds.Load(), cs, callers-2)
	}
}

// TestStoreLedgerCountsSharedSessionOnce: the stage ledger aggregates a
// session once however many keys resolve to it.
func TestStoreLedgerCountsSharedSessionOnce(t *testing.T) {
	st := core.NewStore(0)
	src := beebs.Get("crc32").Source
	o2 := lookup(t, st, src, mcc.O2, core.SessionConfig{}, nil)
	oS := lookup(t, st, src, mcc.Os, core.SessionConfig{}, nil)
	for _, sess := range []*core.Session{o2, oS} {
		if _, err := sess.Baseline(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	got := st.StageStats()
	if got != o2.Stats() {
		t.Fatalf("store ledger %+v != the one session's %+v", got, o2.Stats())
	}
	if got.Baseline.Misses != 1 || got.Baseline.Hits != 1 || got.SimRuns != 1 {
		t.Fatalf("baseline = %+v, sim runs = %d; want 1 miss, 1 hit, 1 run", got.Baseline, got.SimRuns)
	}
}
