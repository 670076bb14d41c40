package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// This file is the one session cache every front end shares: the sweep
// drivers (internal/evaluation), the long-running service
// (internal/service, through a Sweep over its Store) and the CLIs. A
// Session already memoizes every pipeline stage on exactly that stage's
// inputs; what the Store adds is the outermost key — which program the
// stages belong to. Content-addressing that key (a hash of the source
// text and compile knobs, not a file name or tenant id) is what lets
// identical stage inputs from different requests and different tenants
// land on one shared memo.

// SessionKey content-addresses one compiled pipeline input: a SHA-256
// over the length-prefixed parts (source text, optimization level, and
// any further knobs that reach the compiler). Two requests with the same
// parts — regardless of tenant, file name, or arrival order — get the
// same key and therefore the same Session, whose per-stage memos are
// keyed on exactly the remaining knobs (placement, budgets, tracing).
// The hex form is stable across processes, so it can serve as an
// external cache key or an ETag.
func SessionKey(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is the session-granular ledger of a Store: how many
// lookups were served from a live entry, how many had to build, and how
// many entries the size bound pushed out.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of live sessions.
	Entries int `json:"entries"`
}

// CacheTotals collapses a ledger to the one number operators watch: the
// cumulative hit rate across every cache layer (session lookups plus all
// per-stage memos). `beebsbench -json` and the daemon's /statsz both
// emit it, so the sweep ledger and the service ledger share one schema.
type CacheTotals struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// add accumulates one stage's counters; finish derives the rate once
// every layer is in.
func (t *CacheTotals) add(s StageStats) {
	t.Hits += s.Hits
	t.Misses += s.Misses
}

// finish derives the hit rate from the accumulated counters.
func (t *CacheTotals) finish() {
	if n := t.Hits + t.Misses; n > 0 {
		t.HitRate = float64(t.Hits) / float64(n)
	}
}

// Totals sums every stage's hit/miss counters into one cumulative
// ledger line. Callers layering a Store on top (evaluation.SweepStats,
// the service /statsz) add their session-level counters
// before reading the rate; NewCacheTotals does both at once.
func (st SessionStats) Totals() CacheTotals {
	var t CacheTotals
	for _, s := range []StageStats{
		st.Baseline, st.CFG, st.Freq, st.Model, st.Solve,
		st.Transform, st.OptRun, st.Optimize, st.Bounds,
	} {
		t.add(s)
	}
	t.finish()
	return t
}

// NewCacheTotals folds session-level lookup counters (hits/misses of a
// Store) together with the per-stage counters of the sessions
// behind them into one cumulative totals line.
func NewCacheTotals(sessionHits, sessionMisses uint64, stages SessionStats) CacheTotals {
	t := stages.Totals()
	t.Hits += sessionHits
	t.Misses += sessionMisses
	t.finish()
	return t
}

// Store is a content-addressed map from SessionKey to live Sessions,
// optionally bounded with least-recently-used eviction. It is safe for
// concurrent use.
//
// Builds are single-flight per key: the first caller computes, every
// concurrent identical caller blocks on that computation and shares the
// (immutable) result — the cross-request analogue of the Session's own
// stage memos. A failed build is not retained: the error reaches every
// waiter of that flight, and a later call with the same key retries, so
// a transiently broken request cannot poison the key.
type Store struct {
	mu      sync.Mutex
	max     int
	entries map[string]*storeEntry
	lru     *list.List // front = most recently used

	hits, misses, evictions uint64

	// retired accumulates the stage counters of evicted sessions
	// (snapshotted at eviction), so the ledger stays cumulative over the
	// store's lifetime rather than resetting when the LRU turns over.
	// retiredSolver does the same for the warm-start solver counters.
	retired       SessionStats
	retiredSolver SolverStats
}

type storeEntry struct {
	key  string
	elem *list.Element
	once sync.Once
	sess *Session
	err  error
	// built is set (under the store lock) once the flight finished
	// successfully; only built entries are eviction candidates or count
	// in the stage ledgers, so a key's single-flight guarantee holds even
	// under capacity pressure and a ledger read never races a build.
	built bool
}

// NewStore returns a store retaining at most max sessions; max <= 0
// means unbounded (a sweep's private store, which holds exactly the
// cells it runs).
func NewStore(max int) *Store {
	return &Store{
		max:     max,
		entries: make(map[string]*storeEntry),
		lru:     list.New(),
	}
}

// GetSession returns the session for key, building (and retaining) it
// on first use, at most once per live key.
func (s *Store) GetSession(key string, build func() (*Session, error)) (*Session, error) {
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		s.hits++
		s.lru.MoveToFront(e.elem)
	} else {
		s.misses++
		e = &storeEntry{key: key}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		e.sess, e.err = build()
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.err != nil {
			// Drop the failed flight: waiters of this flight still see
			// the error, but the next caller with this key retries.
			if s.entries[key] == e {
				delete(s.entries, key)
				s.lru.Remove(e.elem)
			}
			return
		}
		e.built = true
		s.evictLocked()
	})
	return e.sess, e.err
}

// evictLocked trims least-recently-used built entries until the store is
// within its bound. In-flight entries are never evicted (that would
// break single-flight); if every entry is mid-build the store briefly
// exceeds its bound and settles as flights land.
func (s *Store) evictLocked() {
	for s.max > 0 && len(s.entries) > s.max {
		victim := (*storeEntry)(nil)
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*storeEntry); e.built {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victim.key)
		s.lru.Remove(victim.elem)
		s.evictions++
		// Snapshot the evicted session's stage ledger so the cumulative
		// totals survive the eviction. A caller still holding the
		// session finishes fine — sessions are self-contained — but work
		// it does after this snapshot is not re-counted.
		s.retired.Add(victim.sess.Stats())
		s.retiredSolver.Add(victim.sess.SolverStats())
	}
}

// CacheStats snapshots the hit/miss/eviction ledger.
func (s *Store) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Entries:   len(s.entries),
	}
}

// live lists the built sessions; the caller holds s.mu and aggregates
// their ledgers after releasing it.
func (s *Store) live() []*Session {
	out := make([]*Session, 0, len(s.entries))
	for _, e := range s.entries {
		if e.built {
			out = append(out, e.sess)
		}
	}
	return out
}

// StageStats aggregates the per-stage memo counters across every live
// session plus the retained snapshots of evicted ones — the cumulative
// stage half of the `session_stats` ledger.
func (s *Store) StageStats() SessionStats {
	s.mu.Lock()
	live, out := s.live(), s.retired
	s.mu.Unlock()
	for _, sess := range live {
		out.Add(sess.Stats())
	}
	return out
}

// SolverStats aggregates the warm-start solver counters across every
// live session plus the retained snapshots of evicted ones — the
// `solver_stats` ledger.
func (s *Store) SolverStats() SolverStats {
	s.mu.Lock()
	live, out := s.live(), s.retiredSolver
	s.mu.Unlock()
	for _, sess := range live {
		out.Add(sess.SolverStats())
	}
	return out
}
