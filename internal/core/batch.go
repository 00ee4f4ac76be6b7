package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// Query sets. Every path answers one query with one index traversal: a
// shared traversal across queries shares pointer-chasing only, never a
// distance evaluation (identical counted evaluations either way, and it
// measured slower — DESIGN.md §4). Queries share no state beyond the
// pooled scratch, so both query-set surfaces are one parallel-for
// (parallelFor) over the single-query methods: the *Batch methods on up to
// GOMAXPROCS goroutines, QueryPool's barrier methods on up to Workers. A
// Matcher is safe for concurrent queries (the filter scratch is pooled and
// holds the query's own cost record), so neither needs locking beyond the
// cursor.

// parallelFor calls f(i) for every i in [0, n) from up to workers
// goroutines, the last of them the caller's own, so a one-index call starts
// none. Indexes are handed out one at a time off an atomic cursor, so a slow
// call delays only the worker making it. If a call panics, no worker takes
// another index, and the first panic value is re-raised on the caller once
// every worker has returned.
func parallelFor(workers, n int, f func(i int)) {
	type failure struct{ v any }
	var cursor atomic.Int64
	var failed atomic.Pointer[failure]
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				failed.CompareAndSwap(nil, &failure{r})
			}
		}()
		for i := int(cursor.Add(1)) - 1; i < n && failed.Load() == nil; i = int(cursor.Add(1)) - 1 {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(workers, n) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p := failed.Load(); p != nil {
		panic(p.v)
	}
}

// countBatch tallies one *Batch call carrying n queries (BatchCalls,
// BatchQueries).
func (mt *Matcher[E]) countBatch(n int) {
	mt.batchCalls.Add(1)
	mt.batchQueries.Add(int64(n))
}

// FilterHitsBatch runs the filtering steps for every query in qs; result i
// is exactly FilterHits(qs[i], eps).
func (mt *Matcher[E]) FilterHitsBatch(qs []seq.Sequence[E], eps float64) [][]Hit[E] {
	mt.countBatch(len(qs))
	out := make([][]Hit[E], len(qs))
	parallelFor(runtime.GOMAXPROCS(0), len(qs), func(i int) { out[i] = mt.FilterHits(qs[i], eps) })
	return out
}

// FindAllBatch answers query Type I for every query in qs; result i is
// exactly FindAll(qs[i], eps).
func (mt *Matcher[E]) FindAllBatch(qs []seq.Sequence[E], eps float64) [][]Match {
	mt.countBatch(len(qs))
	out := make([][]Match, len(qs))
	parallelFor(runtime.GOMAXPROCS(0), len(qs), func(i int) { out[i] = mt.FindAll(qs[i], eps) })
	return out
}

// LongestBatch answers query Type II for every query in qs; entry i is
// exactly Longest(qs[i], eps).
func (mt *Matcher[E]) LongestBatch(qs []seq.Sequence[E], eps float64) ([]Match, []bool) {
	mt.countBatch(len(qs))
	matches := make([]Match, len(qs))
	found := make([]bool, len(qs))
	parallelFor(runtime.GOMAXPROCS(0), len(qs), func(i int) { matches[i], found[i] = mt.Longest(qs[i], eps) })
	return matches, found
}

// QueryPool drives a Matcher from worker goroutines, one query per
// worker at a time. It has two faces:
//
//   - The barrier methods (FilterHits, FindAll, Longest, Nearest) take a
//     complete query slice and block until every answer is back: a
//     parallel-for over single queries on up to Workers goroutines per
//     call, the caller's among them; a query that panics re-raises its
//     panic on the caller. They are stateless between calls, safe for
//     concurrent use, subject to no admission control, and usable after
//     Close.
//   - The streaming methods (Submit, SubmitFilter, SubmitLongest,
//     SubmitNearest — see stream.go) accept queries one at a time and
//     return per-query Futures, answered by a long-lived worker set. This
//     is the serving shape: bounded in-flight queue, context cancellation,
//     graceful Close.
//
// Construct once and reuse; both faces may be used concurrently.
//
// A pool built with NewQueryPool serves one fixed matcher. A pool built
// with NewQueryPoolView resolves its matcher through a MatcherView at
// every entry point instead, which is how the store's serving tier gets
// zero-downtime swaps: each barrier call or streamed query pins the
// current matcher (and its read guard) for exactly its own duration, so a
// swap or mutation waits only for queries already running.
type QueryPool[E any] struct {
	mt         *Matcher[E]
	view       MatcherView[E]
	workers    int
	queueDepth int
	shedPolicy ShedPolicy

	// streaming is the lazily-started engine behind the Submit methods.
	streaming streamState[E]
}

// MatcherView resolves the matcher to answer one unit of query work with,
// plus a release function invoked when that unit completes. The store
// implements it as "RLock; return current matcher, RUnlock on release",
// making every query a guarded reader of a consistent index view.
type MatcherView[E any] func() (*Matcher[E], func())

// acquire pins a matcher for one unit of query work. The returned release
// must be called exactly once, after the last touch of the matcher.
func (p *QueryPool[E]) acquire() (*Matcher[E], func()) {
	if p.view != nil {
		return p.view()
	}
	return p.mt, noRelease
}

// noRelease is a fixed matcher's release. It is declared outside the
// generic acquire, where a func literal would capture the type dictionary
// and cost an allocation per query.
func noRelease() {}

// poolConfig carries the streaming-engine knobs a PoolOption may set —
// the one place option fields live, so an option cannot silently set a
// field the pool constructor does not read.
type poolConfig struct {
	queueDepth int
	shedPolicy ShedPolicy
}

// PoolOption tunes a QueryPool beyond its worker count.
type PoolOption func(*poolConfig)

// WithQueueDepth bounds the streaming engine's in-flight submissions
// (submitted but not completed); Submit blocks once the bound is reached.
// The default is 1024. Values < 1 are ignored.
func WithQueueDepth(n int) PoolOption {
	return func(c *poolConfig) {
		if n >= 1 {
			c.queueDepth = n
		}
	}
}

// NewQueryPool returns a pool of the given concurrency over mt; workers
// ≤ 0 selects GOMAXPROCS. Options tune the streaming engine; the barrier
// methods ignore them.
func NewQueryPool[E any](mt *Matcher[E], workers int, opts ...PoolOption) *QueryPool[E] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := poolConfig{queueDepth: DefaultQueueDepth}
	for _, o := range opts {
		o(&cfg)
	}
	return &QueryPool[E]{
		mt: mt, workers: workers,
		queueDepth: cfg.queueDepth,
		shedPolicy: cfg.shedPolicy,
	}
}

// NewQueryPoolView is NewQueryPool over a MatcherView instead of a fixed
// matcher: every barrier call and every streamed query resolves the
// matcher afresh and holds its guard only for that unit of work. view must
// not return nil.
func NewQueryPoolView[E any](view MatcherView[E], workers int, opts ...PoolOption) *QueryPool[E] {
	p := NewQueryPool[E](nil, workers, opts...)
	p.view = view
	return p
}

// Workers reports the pool's concurrency.
func (p *QueryPool[E]) Workers() int { return p.workers }

// run is the barrier methods' parallel-for: it pins one matcher view for
// the whole call and answers indexes [0, n) on up to Workers goroutines
// (parallelFor).
func (p *QueryPool[E]) run(n int, answer func(mt *Matcher[E], i int)) {
	mt, release := p.acquire()
	defer release()
	parallelFor(p.workers, n, func(i int) { answer(mt, i) })
}

// FilterHits runs the filtering steps for every query; result i is exactly
// Matcher.FilterHits(qs[i], eps).
func (p *QueryPool[E]) FilterHits(qs []seq.Sequence[E], eps float64) [][]Hit[E] {
	out := make([][]Hit[E], len(qs))
	p.run(len(qs), func(mt *Matcher[E], i int) { out[i] = mt.FilterHits(qs[i], eps) })
	return out
}

// FindAll answers query Type I for every query; result i is exactly
// Matcher.FindAll(qs[i], eps).
func (p *QueryPool[E]) FindAll(qs []seq.Sequence[E], eps float64) [][]Match {
	out := make([][]Match, len(qs))
	p.run(len(qs), func(mt *Matcher[E], i int) { out[i] = mt.FindAll(qs[i], eps) })
	return out
}

// Longest answers query Type II for every query; entry i is exactly
// Matcher.Longest(qs[i], eps).
func (p *QueryPool[E]) Longest(qs []seq.Sequence[E], eps float64) ([]Match, []bool) {
	matches := make([]Match, len(qs))
	found := make([]bool, len(qs))
	p.run(len(qs), func(mt *Matcher[E], i int) { matches[i], found[i] = mt.Longest(qs[i], eps) })
	return matches, found
}

// Nearest answers query Type III for every query; entry i is exactly
// Matcher.Nearest(qs[i], opts).
func (p *QueryPool[E]) Nearest(qs []seq.Sequence[E], opts NearestOptions) ([]Match, []bool) {
	matches := make([]Match, len(qs))
	found := make([]bool, len(qs))
	p.run(len(qs), func(mt *Matcher[E], i int) { matches[i], found[i] = mt.Nearest(qs[i], opts) })
	return matches, found
}
