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
// Scheduling is "pop one, answer one": an idle worker takes the oldest
// pending submission and answers it with the single-query Matcher method.
// A slow query therefore occupies exactly one worker, a crash fails exactly
// one future, and the pool contributes parallelism only — queries share no
// index traversal (DESIGN.md §4: sharing one saved no distance evaluation
// and cost time).
//
// Backpressure is a bounded in-flight budget: at most queueDepth
// submissions may be submitted-but-not-completed at once. What happens at
// the bound is a policy (admission.go): block the submitter (the default),
// reject it with ErrQueueFull, or evict the heaviest tenant's newest queued
// work in its favour. Submissions may also carry deadlines and tenant
// labels (SubmitOption); expired submissions are dropped before a worker
// prices them, and queue-wait plus end-to-end latency distributions are
// recorded into HDR-style histograms (latency.go) surfaced by StreamStats.
// This is what keeps a serving deployment's memory *and tail latency*
// bounded when clients outpace the hardware.

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

// complete resolves the future. The engine settles every job exactly once
// (resolve, or the fair-share eviction); the guard keeps a second completion
// — which only a scheduler bug could produce — from closing done twice.
func (f *Future[T]) complete(v T, err error) {
	if f.settled.CompareAndSwap(false, true) {
		f.val, f.err = v, err
		close(f.done)
	}
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

func queryResult(m Match, found bool) QueryResult { return QueryResult{Match: m, Found: found} }

// task is what the engine calls on a submission without learning its
// query kind: run answers it on a pinned matcher and keeps the result,
// settle resolves the caller's future — with that result when err is nil,
// with err alone otherwise. typedJob implements it once per answer type.
type task[E any] interface {
	run(mt *Matcher[E])
	settle(err error)
}

// streamJob is the engine's header of one pending submission.
type streamJob[E any] struct {
	task task[E] // the typedJob this header is embedded in
	ctx  context.Context

	// Serving metadata, set by the SubmitOptions: zero deadline means none,
	// empty tenant is the shared anonymous tenant.
	submitConfig
	// t0 is when the submission entered the engine (end-to-end latency
	// origin); enq is when it was enqueued (queue-wait origin).
	t0  time.Time
	enq time.Time
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
	// ErrWorkerCrashed). Submitted is their sum. A submission's counter moves,
	// and its InFlight slot is released, before its future resolves
	// (resolve), so a caller that has awaited all its futures reads InFlight
	// 0 and a balanced sum.
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
	for _, o := range opts {
		o(&j.submitConfig)
	}
	s := p.stream()
	s.submitted.Add(1)
	j.t0 = time.Now()
	if err := ctx.Err(); err != nil {
		s.resolve(j, &s.cancelled, false, err)
		return
	}
	if !j.deadline.IsZero() && !j.t0.Before(j.deadline) {
		s.resolve(j, &s.expired, false, ErrDeadlineExceeded)
		return
	}
	if outcome, err := p.admit(j); err != nil {
		s.resolve(j, outcome, false, err)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.resolve(j, &s.rejected, true, ErrPoolClosed)
		return
	}
	j.enq = time.Now()
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	s.cond.Signal()
}

// resolve ends a submission under the engine's one accounting rule: count
// the outcome, release the admission state (admitted jobs hold a slot and a
// tenant count), and only then settle the future. A caller that awaits its
// last future and snapshots StreamStats therefore always sees its own work
// fully accounted: InFlight back to 0 and Submitted equal to the sum of the
// outcome counters.
func (s *streamState[E]) resolve(j *streamJob[E], outcome *atomic.Int64, admitted bool, err error) {
	outcome.Add(1)
	if admitted {
		s.finish(j)
	}
	j.task.settle(err)
}

// typedJob is one submission whose answer has type T: the engine's header,
// the single-query Matcher call that answers it, and the caller's future,
// in one allocation.
type typedJob[E, T any] struct {
	streamJob[E]
	answer func(mt *Matcher[E]) T
	Future[T]
}

func (j *typedJob[E, T]) run(mt *Matcher[E]) { j.val = j.answer(mt) }

func (j *typedJob[E, T]) settle(err error) { j.complete(j.val, err) }

// SubmitFunc is the one submit path: it wraps answer — a single-query
// Matcher call, such as FindAllIn — into a job that takes the pool's
// admission, shed policy and deadline and runs on a worker's pinned matcher,
// and whose future resolves to exactly what answer returns. The four
// Submit* methods are its per-kind spellings.
func SubmitFunc[E, T any](p *QueryPool[E], ctx context.Context, answer func(mt *Matcher[E]) T, opts ...SubmitOption) *Future[T] {
	j := &typedJob[E, T]{answer: answer, Future: Future[T]{done: make(chan struct{})}}
	j.task = j
	p.submit(ctx, &j.streamJob, opts)
	return &j.Future
}

// Submit streams one FindAll (query Type I) through the pool: the returned
// future resolves to exactly Matcher.FindAll(q, eps). Options attach a
// deadline or tenant label.
func (p *QueryPool[E]) Submit(ctx context.Context, q seq.Sequence[E], eps float64, opts ...SubmitOption) *Future[[]Match] {
	return SubmitFunc(p, ctx, func(mt *Matcher[E]) []Match { return mt.FindAll(q, eps) }, opts...)
}

// SubmitFilter streams the filtering steps (3–4) for one query: the future
// resolves to exactly Matcher.FilterHits(q, eps).
func (p *QueryPool[E]) SubmitFilter(ctx context.Context, q seq.Sequence[E], eps float64, opts ...SubmitOption) *Future[[]Hit[E]] {
	return SubmitFunc(p, ctx, func(mt *Matcher[E]) []Hit[E] { return mt.FilterHits(q, eps) }, opts...)
}

// SubmitLongest streams one Longest (query Type II): the future resolves to
// exactly Matcher.Longest(q, eps).
func (p *QueryPool[E]) SubmitLongest(ctx context.Context, q seq.Sequence[E], eps float64, opts ...SubmitOption) *Future[QueryResult] {
	return SubmitFunc(p, ctx, func(mt *Matcher[E]) QueryResult { return queryResult(mt.Longest(q, eps)) }, opts...)
}

// SubmitNearest streams one Nearest (query Type III): the future resolves
// to exactly Matcher.Nearest(q, opts).
func (p *QueryPool[E]) SubmitNearest(ctx context.Context, q seq.Sequence[E], opts NearestOptions, subOpts ...SubmitOption) *Future[QueryResult] {
	return SubmitFunc(p, ctx, func(mt *Matcher[E]) QueryResult { return queryResult(mt.Nearest(q, opts)) }, subOpts...)
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

// takeLocked removes and returns queue[i]; callers hold s.mu. Delete clears
// the vacated tail slot, so a job that left the queue — popped or evicted —
// does not stay pinned by the queue's backing array.
func (s *streamState[E]) takeLocked(i int) *streamJob[E] {
	j := s.queue[i]
	s.queue = slices.Delete(s.queue, i, i+1)
	return j
}

// streamWorker is the long-lived worker loop: wait for work, pop one job,
// answer it, resolve its future.
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
		j := s.takeLocked(0)
		s.mu.Unlock()

		// A submission whose context was cancelled or whose deadline passed
		// while queued completes without spending index work — the
		// drop-expired-before-pricing guarantee: a worker never prices work
		// nobody is waiting for.
		now := time.Now()
		if err := j.ctx.Err(); err != nil {
			s.resolve(j, &s.cancelled, true, err)
		} else if !j.deadline.IsZero() && !now.Before(j.deadline) {
			s.resolve(j, &s.expired, true, ErrDeadlineExceeded)
		} else {
			s.queueWait.observe(now.Sub(j.enq))
			p.answer(j)
		}
	}
}

// answer runs one job and resolves its future. The matcher is pinned per
// job, so a view-backed pool holds its read guard only while a query is
// actually computing — between jobs the store is free to mutate or swap. A
// panic anywhere underneath (a faulty distance evaluator, an index bug)
// fails this one future with ErrWorkerCrashed and counts it Crashed instead
// of killing the worker: the pool self-heals around a poisoned query.
// Either way the submit→resolution latency is observed once the outcome is
// in hand and before the future resolves, the same rule resolve holds the
// counters to.
func (p *QueryPool[E]) answer(j *streamJob[E]) {
	s := &p.streaming
	outcome, err := &s.completed, error(nil)
	func() {
		defer func() {
			if r := recover(); r != nil {
				outcome, err = &s.crashed, fmt.Errorf("%w: %v", ErrWorkerCrashed, r)
			}
		}()
		mt, release := p.acquire()
		defer release()
		j.task.run(mt)
	}()
	s.latency.observe(time.Since(j.t0))
	s.resolve(j, outcome, true, err)
}
