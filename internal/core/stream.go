package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seq"
)

// Streaming query engine (ROADMAP: the step from a barrier QueryPool to a
// serving daemon).
//
// The slice entry points (QueryPool.FindAll and friends) are barriers: the
// caller owns a complete query slice, hands it over, and blocks until every
// answer is back. A server cannot work that way — queries arrive one at a
// time from independent connections, and each caller wants only its own
// answer, as soon as it is ready. Submit and its siblings provide that
// shape: each submission returns a Future immediately, and a long-lived
// worker set answers submissions as they arrive.
//
// Scheduling is "pop one, answer one": an idle worker takes the
// highest-priority pending submission (oldest first among equals) and
// answers it with the single-query Matcher method. A slow query therefore
// occupies exactly one worker, a crash fails exactly one future, and the
// pool contributes parallelism only — queries share no index traversal
// (DESIGN.md §4: sharing one saved no distance evaluation and cost time).
//
// Backpressure is a bounded in-flight budget: at most queueDepth
// submissions may be submitted-but-not-completed at once. What happens at
// the bound is a policy (admission.go): block the submitter (the default),
// reject it with ErrQueueFull, or evict the heaviest tenant's newest queued
// work in its favour. Submissions may also carry deadlines, priorities and
// tenant labels (SubmitOption); expired submissions are dropped before a
// worker prices them, and queue-wait plus end-to-end latency distributions
// are recorded into HDR-style histograms (latency.go) surfaced by
// StreamStats. This is what keeps a serving deployment's memory *and tail
// latency* bounded when clients outpace the hardware.

// ErrPoolClosed is returned by futures whose submission was rejected
// because Close had already been called.
var ErrPoolClosed = errors.New("core: query pool closed")

// Future is the pending result of a streaming submission. A Future is
// completed exactly once by the pool; any number of goroutines may Await
// it.
type Future[T any] struct {
	done    chan struct{}
	settled atomic.Bool
	val     T
	err     error
}

func newFuture[T any]() *Future[T] { return &Future[T]{done: make(chan struct{})} }

// complete resolves the future, reporting whether this call was the one
// that settled it. The guard makes completion idempotent, so a worker's
// panic recovery can fail the job it was answering without knowing whether
// the answer had already been delivered.
func (f *Future[T]) complete(v T, err error) bool {
	if !f.settled.CompareAndSwap(false, true) {
		return false
	}
	f.val, f.err = v, err
	close(f.done)
	return true
}

// Await blocks until the result is ready or ctx is done, whichever comes
// first. A completed future always reports its result, even when ctx is
// already cancelled.
func (f *Future[T]) Await(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	default:
	}
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Done returns a channel that is closed when the result is ready, for
// select-based consumers; after Done, Await returns without blocking.
func (f *Future[T]) Done() <-chan struct{} { return f.done }

// QueryResult is the outcome of a Longest or Nearest submission: the best
// match and whether any similar pair exists.
type QueryResult struct {
	Match Match
	Found bool
}

// queryKind tags a streaming submission with its query type.
type queryKind uint8

const (
	kindFilter queryKind = iota
	kindFindAll
	kindLongest
	kindNearest
)

// streamJob is one pending submission. Exactly one of the future fields is
// set, matching kind.
type streamJob[E any] struct {
	kind queryKind
	q    seq.Sequence[E]
	eps  float64
	opts NearestOptions
	ctx  context.Context

	// Serving metadata (SubmitOption): zero deadline means none, priority
	// defaults to 0, empty tenant is the shared anonymous tenant. t0 is
	// when the submission entered the engine (end-to-end latency origin);
	// enq is when it was enqueued (queue-wait origin).
	deadline time.Time
	priority int
	tenant   string
	t0       time.Time
	enq      time.Time

	fHits *Future[[]Hit[E]]
	fAll  *Future[[]Match]
	fOne  *Future[QueryResult]
}

// fail completes the job's future with err, reporting whether this call
// settled it (false when the future had already resolved).
func (j *streamJob[E]) fail(err error) bool {
	switch j.kind {
	case kindFilter:
		return j.fHits.complete(nil, err)
	case kindFindAll:
		return j.fAll.complete(nil, err)
	default:
		return j.fOne.complete(QueryResult{}, err)
	}
}

// streamState is the engine behind the streaming submissions: a bounded
// queue, a condition-variable-guarded dispatch list and a long-lived worker
// set, started lazily on first submission.
type streamState[E any] struct {
	start   sync.Once
	started atomic.Bool
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*streamJob[E]
	// slots is the in-flight budget: one token per submission from enqueue
	// to completion. Its capacity is the pool's queueDepth.
	slots  chan struct{}
	closed bool
	wg     sync.WaitGroup
	// tenantLoad counts admitted-but-not-finished submissions per tenant
	// (guarded by mu), feeding the ShedFairShare eviction decision.
	tenantLoad map[string]int

	submitted atomic.Int64
	completed atomic.Int64
	cancelled atomic.Int64
	rejected  atomic.Int64
	shed      atomic.Int64
	expired   atomic.Int64
	crashed   atomic.Int64

	queueWait latencyHist
	latency   latencyHist
}

// StreamStats is a point-in-time snapshot of the streaming engine's
// activity, surfaced by subseqctl serve's /stats endpoint.
type StreamStats struct {
	// Workers, QueueDepth and ShedPolicy echo the pool's configuration.
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	ShedPolicy string `json:"shed_policy"`
	// Pending counts submissions waiting for a worker; InFlight counts
	// submissions submitted but not yet completed (pending + running).
	Pending  int `json:"pending"`
	InFlight int `json:"in_flight"`
	// Lifetime submission counts. Every submission lands in exactly one:
	// Completed (a worker answered it, successfully or not), Cancelled
	// (its context was abandoned first), Rejected (it arrived after
	// Close), Shed (turned away or evicted at queue saturation —
	// ErrQueueFull), Expired (its deadline passed first —
	// ErrDeadlineExceeded) or Crashed (a worker panicked answering it —
	// ErrWorkerCrashed). Submitted is their sum.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	Expired   int64 `json:"expired"`
	Crashed   int64 `json:"crashed"`
	// Deprecated: Batches, Coalesced and MaxBatch are vestiges of the
	// removed cross-query scheduler, kept until the benchmark stops reading
	// them. A worker answers one submission at a time, so Batches is the
	// number a worker answered (Completed+Crashed), Coalesced is always 0
	// and MaxBatch is 1 once anything ran.
	Batches   int64 `json:"batches"`
	Coalesced int64 `json:"coalesced"`
	MaxBatch  int64 `json:"max_batch"`
	// QueueWait is the enqueue→pop distribution (the overload signal);
	// Latency is submit→resolution end to end (what a caller experiences).
	// Only submissions that reached a worker are recorded.
	QueueWait LatencyStats `json:"queue_wait"`
	Latency   LatencyStats `json:"latency"`
}

// DefaultQueueDepth bounds in-flight submissions when the pool was built
// without WithQueueDepth: deep enough that workers never starve between
// jobs, shallow enough that a stalled consumer cannot queue unbounded
// work.
const DefaultQueueDepth = 1024

// stream returns the engine, starting the worker set on first use.
func (p *QueryPool[E]) stream() *streamState[E] {
	s := &p.streaming
	s.start.Do(func() {
		s.cond = sync.NewCond(&s.mu)
		s.slots = make(chan struct{}, p.queueDepth)
		s.wg.Add(p.workers)
		s.started.Store(true)
		for w := 0; w < p.workers; w++ {
			go p.streamWorker()
		}
	})
	return s
}

// submit enqueues j under the pool's shed policy. The job's future is
// completed with ctx.Err() if ctx is done first, ErrDeadlineExceeded if
// its deadline passes first, ErrQueueFull if a rejecting policy sheds it,
// or ErrPoolClosed if the pool closed first.
func (p *QueryPool[E]) submit(ctx context.Context, j *streamJob[E], opts []SubmitOption) {
	if ctx == nil {
		ctx = context.Background()
	}
	j.ctx = ctx
	if len(opts) > 0 {
		var sc submitConfig
		for _, o := range opts {
			o(&sc)
		}
		j.deadline, j.priority, j.tenant = sc.deadline, sc.priority, sc.tenant
	}
	s := p.stream()
	s.submitted.Add(1)
	j.t0 = time.Now()
	if err := ctx.Err(); err != nil {
		s.cancelled.Add(1)
		j.fail(err)
		return
	}
	if !j.deadline.IsZero() && !j.t0.Before(j.deadline) {
		s.expired.Add(1)
		j.fail(ErrDeadlineExceeded)
		return
	}
	if err := p.admit(j); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.shed.Add(1)
		case errors.Is(err, ErrDeadlineExceeded):
			s.expired.Add(1)
		default:
			s.cancelled.Add(1)
		}
		j.fail(err)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.finish(j)
		s.rejected.Add(1)
		j.fail(ErrPoolClosed)
		return
	}
	j.enq = time.Now()
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.cond.Signal()
}

// Submit streams one FindAll (query Type I) through the pool: the returned
// future resolves to exactly Matcher.FindAll(q, eps). Options attach a
// deadline, priority or tenant label.
func (p *QueryPool[E]) Submit(ctx context.Context, q seq.Sequence[E], eps float64, opts ...SubmitOption) *Future[[]Match] {
	j := &streamJob[E]{kind: kindFindAll, q: q, eps: eps, fAll: newFuture[[]Match]()}
	p.submit(ctx, j, opts)
	return j.fAll
}

// SubmitFilter streams the filtering steps (3–4) for one query: the future
// resolves to exactly Matcher.FilterHits(q, eps).
func (p *QueryPool[E]) SubmitFilter(ctx context.Context, q seq.Sequence[E], eps float64, opts ...SubmitOption) *Future[[]Hit[E]] {
	j := &streamJob[E]{kind: kindFilter, q: q, eps: eps, fHits: newFuture[[]Hit[E]]()}
	p.submit(ctx, j, opts)
	return j.fHits
}

// SubmitLongest streams one Longest (query Type II): the future resolves to
// exactly Matcher.Longest(q, eps).
func (p *QueryPool[E]) SubmitLongest(ctx context.Context, q seq.Sequence[E], eps float64, opts ...SubmitOption) *Future[QueryResult] {
	j := &streamJob[E]{kind: kindLongest, q: q, eps: eps, fOne: newFuture[QueryResult]()}
	p.submit(ctx, j, opts)
	return j.fOne
}

// SubmitNearest streams one Nearest (query Type III): the future resolves
// to exactly Matcher.Nearest(q, opts).
func (p *QueryPool[E]) SubmitNearest(ctx context.Context, q seq.Sequence[E], opts NearestOptions, subOpts ...SubmitOption) *Future[QueryResult] {
	j := &streamJob[E]{kind: kindNearest, q: q, opts: opts, fOne: newFuture[QueryResult]()}
	p.submit(ctx, j, subOpts)
	return j.fOne
}

// Close stops the streaming engine gracefully: submissions already accepted
// are drained and their futures completed, later submissions fail with
// ErrPoolClosed, and Close returns once every worker has exited. The
// barrier methods (FindAll, Longest, …) remain usable after Close — they
// run on goroutines of their own, not the streaming worker set. Close is
// idempotent.
func (p *QueryPool[E]) Close() {
	s := &p.streaming
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	// Workers only exist if something was ever submitted; a pool used
	// purely through the barrier methods closes without starting
	// them. (A submission racing this Close either fails with
	// ErrPoolClosed or is drained by the workers it started, which see
	// closed and exit on their own.)
	if s.started.Load() {
		s.cond.Broadcast()
		s.wg.Wait()
	}
}

// StreamStats snapshots the streaming engine's activity counters. On a
// pool that has never streamed it reports the configuration with zero
// counters, without starting the worker set.
func (p *QueryPool[E]) StreamStats() StreamStats {
	s := &p.streaming
	s.mu.Lock()
	pending := len(s.queue)
	s.mu.Unlock()
	completed, crashed := s.completed.Load(), s.crashed.Load()
	answered := completed + crashed
	return StreamStats{
		Workers:    p.workers,
		QueueDepth: p.queueDepth,
		ShedPolicy: p.shedPolicy.String(),
		Pending:    pending,
		InFlight:   len(s.slots),
		Submitted:  s.submitted.Load(),
		Completed:  completed,
		Cancelled:  s.cancelled.Load(),
		Rejected:   s.rejected.Load(),
		Shed:       s.shed.Load(),
		Expired:    s.expired.Load(),
		Crashed:    crashed,
		Batches:    answered,
		MaxBatch:   min(answered, 1),
		QueueWait:  s.queueWait.snapshot(),
		Latency:    s.latency.snapshot(),
	}
}

// popLocked removes and returns the next job to answer: the
// highest-priority pending one, oldest first among equals, so
// default-priority traffic is answered strictly in arrival order. The queue
// must be non-empty; callers hold s.mu.
func (s *streamState[E]) popLocked() *streamJob[E] {
	best := 0
	for i, j := range s.queue {
		if j.priority > s.queue[best].priority {
			best = i
		}
	}
	j := s.queue[best]
	// Delete clears the vacated tail slot, so a popped job does not stay
	// pinned by the queue's backing array.
	s.queue = slices.Delete(s.queue, best, best+1)
	return j
}

// streamWorker is the long-lived worker loop: wait for work, pop one job,
// answer it, complete its future.
func (p *QueryPool[E]) streamWorker() {
	s := &p.streaming
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.popLocked()
		s.mu.Unlock()

		// A submission whose context was cancelled or whose deadline passed
		// while queued completes without spending index work — the
		// drop-expired-before-pricing guarantee: a worker never prices work
		// nobody is waiting for.
		now := time.Now()
		if err := j.ctx.Err(); err != nil {
			j.fail(err)
			s.cancelled.Add(1)
		} else if !j.deadline.IsZero() && !now.Before(j.deadline) {
			j.fail(ErrDeadlineExceeded)
			s.expired.Add(1)
		} else {
			s.queueWait.observe(now.Sub(j.enq))
			// The counter moves before the future completes, so a caller
			// that awaits its last future and immediately snapshots
			// StreamStats never observes Completed lagging its own
			// resolved work. answer holds the latency histogram to the
			// same rule.
			s.completed.Add(1)
			p.answer(j)
		}
		s.finish(j)
	}
}

// answer runs one job on the single-query Matcher method of its kind and
// completes its future. The matcher is pinned per job, so a view-backed
// pool holds its read guard only while a query is actually computing —
// between jobs the store is free to mutate or swap. A panic anywhere
// underneath (a faulty distance evaluator, an index bug) fails this one
// future with ErrWorkerCrashed and moves it from Completed to Crashed
// instead of killing the worker: the pool self-heals around a poisoned
// query. Either way the submit→resolution latency is observed once the
// outcome is in hand and before the future completes, so a caller that
// awaits its last future never snapshots a histogram one observation short.
func (p *QueryPool[E]) answer(j *streamJob[E]) {
	s := &p.streaming
	defer func() {
		if r := recover(); r != nil {
			s.latency.observe(time.Since(j.t0))
			if j.fail(fmt.Errorf("%w: %v", ErrWorkerCrashed, r)) {
				s.completed.Add(-1)
				s.crashed.Add(1)
			}
		}
	}()
	mt, release := p.acquire()
	defer release()
	var (
		hits []Hit[E]
		all  []Match
		one  QueryResult
	)
	switch j.kind {
	case kindFilter:
		hits = mt.FilterHits(j.q, j.eps)
	case kindFindAll:
		all = mt.FindAll(j.q, j.eps)
	case kindLongest:
		one.Match, one.Found = mt.Longest(j.q, j.eps)
	case kindNearest:
		one.Match, one.Found = mt.Nearest(j.q, j.opts)
	}
	s.latency.observe(time.Since(j.t0))
	switch j.kind {
	case kindFilter:
		j.fHits.complete(hits, nil)
	case kindFindAll:
		j.fAll.complete(all, nil)
	default:
		j.fOne.complete(one, nil)
	}
}
