// Package store owns the live index lifecycle: a Store wraps a built
// Matcher and adds what a long-lived serving process needs on top of
// one-shot construction — streaming ingest (Append), deletion (Retire,
// with optional TTLs swept by Sweep) and zero-downtime persistence
// (Snapshot/Open, a versioned checksummed format described in
// docs/PERSISTENCE.md).
//
// # Consistency model
//
// The core Matcher's lifecycle methods mutate shared state and are not
// safe under concurrent queries; the Store is the tier that makes them
// safe. Every query runs as a guarded reader: the serving pool resolves
// the matcher through View (core.MatcherView), which takes the store's
// read lock for exactly one unit of query work — one barrier call or one
// streamed query. Mutations (Append, Retire, Sweep) take the write lock,
// so they wait only for queries already running — those drain, the
// mutation applies, and the next query sees the new index.
// Snapshot takes the read lock: it runs concurrently with queries and
// blocks only mutations, so the bytes written are one consistent view.
//
// Matcher returns the current matcher through an atomic pointer without
// touching the lock — the stats-peek path for monitoring handlers that
// must not queue behind a mutation.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/seq"
)

// Store is a live, mutable, persistable index over a sequence database.
// All methods are safe for concurrent use.
type Store[E any] struct {
	measure dist.Measure[E]
	cfg     core.Config

	mu  sync.RWMutex
	mt  *core.Matcher[E]
	cur atomic.Pointer[core.Matcher[E]]

	// expiry maps seqID → wall-clock deadline for sequences appended
	// with a TTL; Sweep retires the ones past due.
	expiry map[int]time.Time
	now    func() time.Time

	// snapshotWrap, when non-nil, wraps the temp-file writer used by
	// SnapshotFile — a test hook that simulates mid-write crashes (disk
	// full, process kill) to prove the previous snapshot survives.
	snapshotWrap func(io.Writer) io.Writer
}

// Option configures a Store at construction.
type Option func(*storeConfig)

type storeConfig struct {
	now func() time.Time
}

// WithClock substitutes the wall clock used for TTL bookkeeping (tests
// inject a fake clock; production uses time.Now).
func WithClock(now func() time.Time) Option {
	return func(c *storeConfig) { c.now = now }
}

// New builds a Store over db, constructing the underlying matcher.
func New[E any](m dist.Measure[E], cfg core.Config, db []seq.Sequence[E], opts ...Option) (*Store[E], error) {
	mt, err := core.NewMatcher(m, cfg, db)
	if err != nil {
		return nil, err
	}
	return adopt(m, cfg, mt, opts...), nil
}

// adopt wraps an already-built matcher.
func adopt[E any](m dist.Measure[E], cfg core.Config, mt *core.Matcher[E], opts ...Option) *Store[E] {
	sc := storeConfig{now: time.Now}
	for _, o := range opts {
		o(&sc)
	}
	s := &Store[E]{
		measure: m,
		cfg:     cfg,
		mt:      mt,
		expiry:  make(map[int]time.Time),
		now:     sc.now,
	}
	s.cur.Store(mt)
	return s
}

// Matcher returns the current matcher without taking the store lock
// (atomic peek). The returned matcher must only be used for read-only
// inspection (stats, counters); to answer queries against a consistent
// view, go through View or a pool built with NewQueryPool.
func (s *Store[E]) Matcher() *core.Matcher[E] { return s.cur.Load() }

// View pins the current matcher for one unit of query work and returns
// it with a release function; it implements core.MatcherView. Mutations
// wait for all outstanding views to release.
func (s *Store[E]) View() (*core.Matcher[E], func()) {
	s.mu.RLock()
	return s.mt, s.mu.RUnlock
}

// NewQueryPool returns a query pool whose every barrier call and streamed
// query resolves the store's current matcher under its read guard — the
// serving loop's entry point (see core.NewQueryPoolView).
func (s *Store[E]) NewQueryPool(workers int, opts ...core.PoolOption) *core.QueryPool[E] {
	return core.NewQueryPoolView(s.View, workers, opts...)
}

// AppendOption configures one Append.
type AppendOption func(*appendConfig)

type appendConfig struct {
	ttl time.Duration
}

// WithTTL schedules the appended sequence for retirement once d has
// elapsed; Sweep (called by the owner, typically on a timer) performs
// the retirement.
func WithTTL(d time.Duration) AppendOption {
	return func(c *appendConfig) { c.ttl = d }
}

// AppendResult reports what an Append did.
type AppendResult struct {
	SeqID   int
	Windows int // windows inserted into the index (λ/2-length full windows)
}

// Append inserts x into the live index. In-flight queries drain first;
// queries submitted after Append returns see the extended database
// exactly as if it had been indexed from scratch.
func (s *Store[E]) Append(x seq.Sequence[E], opts ...AppendOption) (AppendResult, error) {
	var ac appendConfig
	for _, o := range opts {
		o(&ac)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, added, err := s.mt.AppendSequence(x)
	if err != nil {
		return AppendResult{}, err
	}
	if ac.ttl > 0 {
		s.expiry[id] = s.now().Add(ac.ttl)
	}
	s.cur.Store(s.mt)
	return AppendResult{SeqID: id, Windows: added}, nil
}

// Retire removes sequence seqID from the live index (tombstoning its ID)
// after draining in-flight queries. Backends with no deletion operation
// (the cover tree) return core.ErrRetireUnsupported.
func (s *Store[E]) Retire(seqID int) (removed int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retireLocked(seqID)
}

func (s *Store[E]) retireLocked(seqID int) (removed int, err error) {
	removed, err = s.mt.RetireSequence(seqID)
	if err != nil {
		return 0, err
	}
	delete(s.expiry, seqID)
	s.cur.Store(s.mt)
	return removed, nil
}

// Sweep retires every sequence whose TTL has expired, returning the IDs
// retired. The first retirement error aborts the sweep (already-retired
// IDs are still reported).
func (s *Store[E]) Sweep() (retired []int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	due := make([]int, 0, len(s.expiry))
	for id, deadline := range s.expiry {
		if !deadline.After(now) {
			due = append(due, id)
		}
	}
	sort.Ints(due)
	for _, id := range due {
		if _, err := s.retireLocked(id); err != nil {
			return retired, fmt.Errorf("store: sweep: retire %d: %w", id, err)
		}
		retired = append(retired, id)
	}
	return retired, nil
}

// Expiries returns the live TTL table (seqID → deadline), for stats.
func (s *Store[E]) Expiries() map[int]time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]time.Time, len(s.expiry))
	for id, t := range s.expiry {
		out[id] = t
	}
	return out
}

// Snapshot writes a versioned, checksummed snapshot of the store — raw
// sequences, TTL table and (for the reference-net backend) the serialised
// index — to w. It holds the read lock: concurrent queries proceed,
// mutations wait, and the bytes written are one consistent view. Open
// restores it.
func (s *Store[E]) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writeSnapshot(w)
}

// SnapshotFile snapshots into path atomically: the bytes land in a
// temporary file in the same directory, synced, then renamed over path —
// a crash mid-write never leaves a truncated snapshot behind.
func (s *Store[E]) SnapshotFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	var w io.Writer = tmp
	if s.snapshotWrap != nil {
		w = s.snapshotWrap(tmp)
	}
	if err := s.Snapshot(w); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return nil
}

// IDs reports the number of sequence IDs allocated, retired tombstones
// included: every ID below it has been handed out. Unlike Len it does not
// walk the database.
func (s *Store[E]) IDs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mt.DB())
}

// Len reports the number of sequence IDs allocated (including retired
// tombstones) and the number of live sequences.
func (s *Store[E]) Len() (ids, live int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db := s.mt.DB()
	ids = len(db)
	for _, x := range db {
		if x != nil {
			live++
		}
	}
	return ids, live
}
