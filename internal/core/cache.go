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
// stages belong to. That key is the compiled program itself
// (ir.Program.Fingerprint plus the SessionConfig), not a file name,
// tenant id or optimization level: identical stage inputs from different
// requests, tenants and compile levels land on one shared memo. Lookups
// arrive under SessionKey(source, level); each such key resolves to its
// program once, by compiling, and is an alias of it from then on.

// SessionKey content-addresses one pipeline input as the caller spelled
// it: a SHA-256 over the length-prefixed parts (source text,
// optimization level, and any further knobs that reach the compiler).
// Two requests with the same parts — regardless of tenant, file name, or
// arrival order — get the same key and therefore the same Session, whose
// per-stage memos are keyed on exactly the remaining knobs (placement,
// budgets, tracing); keys whose builds compile to the same program share
// it too. The hex form is stable across processes, so it can serve as an
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

// Store maps lookup keys (SessionKey over a source and its compile
// knobs) to live Sessions, holding one Session per compiled program: a
// key is an alias that resolves, on its first lookup, to the entry of
// the program its build produced — identified by ir.Program.Fingerprint
// and the SessionConfig — and O2/Os builds that compile to identical code
// share that entry and every stage memo behind it. The store is
// optionally bounded with least-recently-used eviction over programs,
// and is safe for concurrent use.
//
// Builds are single-flight per key: the first caller computes, every
// concurrent identical caller blocks on that computation and shares the
// (immutable) result — the cross-request analogue of the Session's own
// stage memos. A key whose program is already held discards its freshly
// built Session and joins the held one; later lookups of the key hit
// without building. A failed build is not retained: the error reaches
// every waiter of that flight, and a later call with the same key
// retries, so a transiently broken request cannot poison the key.
type Store struct {
	mu       sync.Mutex
	max      int
	aliases  map[string]*alias
	programs map[programKey]*program
	lru      *list.List // of *program; front = most recently used

	hits, misses, evictions uint64

	// retired accumulates the stage counters of evicted sessions
	// (snapshotted at eviction), so the ledger stays cumulative over the
	// store's lifetime rather than resetting when the LRU turns over.
	// retiredSolver does the same for the warm-start solver counters.
	retired       SessionStats
	retiredSolver SolverStats
}

// programKey identifies one held Session: what the compiler emitted and
// the modes the session runs it under.
type programKey struct {
	fp  [sha256.Size]byte
	cfg SessionConfig
}

// program is one held Session and every key that resolved to it.
// Eviction removes it together with those keys.
type program struct {
	key     programKey
	elem    *list.Element
	sess    *Session
	aliases []string
}

// alias is one key's flight. prog is set (under the store lock) once
// the flight joined a program; until then the key is in flight, which
// no eviction can touch, so a key's single-flight guarantee holds even
// under capacity pressure and a ledger read never races a build.
type alias struct {
	once sync.Once
	prog *program
	err  error
}

// NewStore returns a store retaining at most max sessions; max <= 0
// means unbounded (a sweep's private store, which holds exactly the
// cells it runs).
func NewStore(max int) *Store {
	return &Store{
		max:      max,
		aliases:  make(map[string]*alias),
		programs: make(map[programKey]*program),
		lru:      list.New(),
	}
}

// GetSession returns the session for key, building it on the key's
// first use (at most once per live key) and sharing it with every other
// key whose build produced the same program.
func (s *Store) GetSession(key string, build func() (*Session, error)) (*Session, error) {
	s.mu.Lock()
	a := s.aliases[key]
	if a != nil {
		s.hits++
		if a.prog != nil {
			s.lru.MoveToFront(a.prog.elem)
		}
	} else {
		s.misses++
		a = &alias{}
		s.aliases[key] = a
	}
	s.mu.Unlock()

	a.once.Do(func() {
		sess, err := build()
		if err != nil {
			// Drop the failed flight: waiters of this flight still see
			// the error, but the next caller with this key retries.
			a.err = err
			s.mu.Lock()
			delete(s.aliases, key)
			s.mu.Unlock()
			return
		}
		pk := programKey{fp: sess.prog.Fingerprint(), cfg: sess.cfg}
		s.mu.Lock()
		a.prog = s.joinLocked(key, pk, sess)
		s.mu.Unlock()
	})
	if a.err != nil {
		return nil, a.err
	}
	return a.prog.sess, nil
}

// joinLocked attaches key to the held program pk, holding sess as that
// program's Session if none is held yet, and trims the store to its
// bound.
func (s *Store) joinLocked(key string, pk programKey, sess *Session) *program {
	p := s.programs[pk]
	if p == nil {
		p = &program{key: pk, sess: sess}
		p.elem = s.lru.PushFront(p)
		s.programs[pk] = p
	} else {
		s.lru.MoveToFront(p.elem)
	}
	p.aliases = append(p.aliases, key)
	s.evictLocked()
	return p
}

// evictLocked trims least-recently-used programs, each with all of its
// keys, until the store is within its bound. The program just joined is
// the most recently used, so it always survives.
func (s *Store) evictLocked() {
	for s.max > 0 && len(s.programs) > s.max {
		victim := s.lru.Back().Value.(*program)
		s.lru.Remove(victim.elem)
		delete(s.programs, victim.key)
		for _, k := range victim.aliases {
			delete(s.aliases, k)
		}
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
		Entries:   len(s.programs),
	}
}

// live lists the held sessions, each once however many keys share it;
// the caller holds s.mu and aggregates their ledgers after releasing it.
func (s *Store) live() []*Session {
	out := make([]*Session, 0, len(s.programs))
	for _, p := range s.programs {
		out = append(out, p.sess)
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
