package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/seq"
)

// gatedPool builds a matcher whose distance evaluation can be stalled, plus
// a single-worker pool over it. The gate starts disarmed so index
// construction runs at full speed; arm it (store a channel) to make every
// subsequent evaluation block until the channel closes — a deterministic
// way to wedge the worker and fill the queue. Prepare/Bounded are stripped
// so all evaluation flows through the gated Fn.
func gatedPool(t *testing.T, seed uint64, opts ...PoolOption) (*QueryPool[byte], *atomic.Pointer[chan struct{}], []seq.Sequence[byte]) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*100))
	db, qs := batchQueries(rng, 6)
	m := dist.LevenshteinMeasure[byte]()
	inner := m.Fn
	var gate atomic.Pointer[chan struct{}]
	m.Fn = func(a, b []byte) float64 {
		if ch := gate.Load(); ch != nil {
			<-*ch
		}
		return inner(a, b)
	}
	m.Prepare = nil
	m.Bounded = nil
	mt, err := NewMatcher(m, Config{Params: Params{Lambda: 6, Lambda0: 1}}, db)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewQueryPool(mt, 1, opts...)
	return pool, &gate, qs
}

// armGate wedges all evaluation; the returned func unblocks it.
func armGate(gate *atomic.Pointer[chan struct{}]) func() {
	ch := make(chan struct{})
	gate.Store(&ch)
	return func() {
		gate.Store(nil)
		close(ch)
	}
}

// waitPending polls until the stream queue holds exactly n jobs (i.e. the
// workers have popped everything earlier).
func waitPending(t *testing.T, pool *QueryPool[byte], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pool.StreamStats().Pending != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d pending: %+v", n, pool.StreamStats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParseShedPolicy(t *testing.T) {
	for name, want := range map[string]ShedPolicy{
		"": ShedBlock, "block": ShedBlock,
		"reject": ShedRejectNewest, "Reject-Newest": ShedRejectNewest,
		"fair": ShedFairShare, "fair-share": ShedFairShare,
	} {
		got, err := ParseShedPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseShedPolicy(%q) = (%v, %v), want %v", name, got, err, want)
		}
		if rt, err := ParseShedPolicy(got.String()); err != nil || rt != got {
			t.Fatalf("round trip %v → %q → (%v, %v)", got, got.String(), rt, err)
		}
	}
	if _, err := ParseShedPolicy("nope"); err == nil {
		t.Fatal("ParseShedPolicy accepted garbage")
	}
}

// A submission whose deadline has already passed fails immediately with
// ErrDeadlineExceeded — before touching the queue or the index.
func TestSubmitDeadlinePreExpired(t *testing.T) {
	pool, _, qs := gatedPool(t, 61)
	defer pool.Close()
	ctx := context.Background()
	f := pool.Submit(ctx, qs[0], 0.5, WithSubmitTimeout(-time.Second))
	if _, err := f.Await(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("pre-expired submit resolved to %v, want ErrDeadlineExceeded", err)
	}
	st := pool.StreamStats()
	if st.Expired != 1 || st.Completed != 0 {
		t.Fatalf("stats after pre-expired submit: %+v", st)
	}
}

// A submission whose deadline passes while queued is dropped by the worker
// before being priced: its future fails with ErrDeadlineExceeded and it
// counts as Expired, not Completed.
func TestSubmitDeadlineExpiresInQueue(t *testing.T) {
	pool, gate, qs := gatedPool(t, 67)
	defer pool.Close()
	ctx := context.Background()
	release := armGate(gate)
	blocker := pool.Submit(ctx, qs[0], 0.5)
	waitPending(t, pool, 0) // worker claimed the blocker and is wedged
	doomed := pool.Submit(ctx, qs[1], 0.5, WithSubmitTimeout(20*time.Millisecond))
	time.Sleep(60 * time.Millisecond) // let the deadline lapse while queued
	release()
	if _, err := blocker.Await(ctx); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	if _, err := doomed.Await(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued-past-deadline submit resolved to %v, want ErrDeadlineExceeded", err)
	}
	st := pool.StreamStats()
	if st.Expired != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v, want Expired=1 Completed=1", st)
	}
}

// Under ShedBlock a blocked submitter's deadline still fires: the slot wait
// itself is deadline-aware.
func TestShedBlockDeadlineWhileBlocked(t *testing.T) {
	pool, gate, qs := gatedPool(t, 71, WithQueueDepth(1))
	defer pool.Close()
	ctx := context.Background()
	release := armGate(gate)
	blocker := pool.Submit(ctx, qs[0], 0.5) // holds the only slot
	start := time.Now()
	f := pool.Submit(ctx, qs[1], 0.5, WithSubmitTimeout(30*time.Millisecond))
	if _, err := f.Await(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("blocked submit resolved to %v, want ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("blocked submit took %v to fail, deadline was 30ms", waited)
	}
	release()
	if _, err := blocker.Await(ctx); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	if st := pool.StreamStats(); st.Expired != 1 {
		t.Fatalf("stats: %+v, want Expired=1", st)
	}
}

// ShedRejectNewest turns saturation into an immediate typed ErrQueueFull
// instead of blocking the submitter.
func TestShedRejectNewest(t *testing.T) {
	pool, gate, qs := gatedPool(t, 73, WithQueueDepth(2), WithShedPolicy(ShedRejectNewest))
	defer pool.Close()
	ctx := context.Background()
	release := armGate(gate)
	a := pool.Submit(ctx, qs[0], 0.5)
	b := pool.Submit(ctx, qs[1], 0.5)
	c := pool.Submit(ctx, qs[2], 0.5) // both slots held: shed
	select {
	case <-c.Done():
	default:
		t.Fatal("shed submission did not resolve immediately")
	}
	if _, err := c.Await(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated submit resolved to %v, want ErrQueueFull", err)
	}
	release()
	for i, f := range []*Future[[]Match]{a, b} {
		if _, err := f.Await(ctx); err != nil {
			t.Fatalf("admitted submission %d failed: %v", i, err)
		}
	}
	st := pool.StreamStats()
	if st.Shed != 1 || st.Completed != 2 {
		t.Fatalf("stats: %+v, want Shed=1 Completed=2", st)
	}
	if st.ShedPolicy != "reject" {
		t.Fatalf("stats echo policy %q, want reject", st.ShedPolicy)
	}
}

// ShedFairShare keeps a light tenant flowing through a heavy tenant's
// flood: at saturation the heavy tenant's newest queued submission is
// evicted in the newcomer's favour, while within one tenant saturation
// stays reject-newest.
func TestShedFairShare(t *testing.T) {
	pool, gate, qs := gatedPool(t, 79, WithQueueDepth(3), WithShedPolicy(ShedFairShare))
	defer pool.Close()
	ctx := context.Background()
	release := armGate(gate)
	hogRun := pool.Submit(ctx, qs[0], 0.5, WithTenant("hog"))
	waitPending(t, pool, 0) // claimed: the hog occupies the worker
	hog1 := pool.Submit(ctx, qs[1], 0.5, WithTenant("hog"))
	hog2 := pool.Submit(ctx, qs[2], 0.5, WithTenant("hog"))
	// Queue full (3 slots: running hog + 2 queued hogs). A light tenant's
	// arrival evicts the hog's newest queued job, not itself.
	mouse := pool.Submit(ctx, qs[3], 0.5, WithTenant("mouse"))
	if _, err := hog2.Await(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("heavy tenant's newest resolved to %v, want ErrQueueFull (evicted)", err)
	}
	select {
	case <-mouse.Done():
		_, err := mouse.Await(ctx)
		t.Fatalf("light tenant's submission resolved early: %v", err)
	default:
	}
	// hog1 (tenant load 2: running + queued) still outweighs the mice, so
	// a second mouse evicts it too rather than being shed itself.
	mouse2 := pool.Submit(ctx, qs[4], 0.5, WithTenant("mouse"))
	if _, err := hog1.Await(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("hog1 resolved to %v, want ErrQueueFull (evicted by mouse2)", err)
	}
	select {
	case <-mouse2.Done():
		_, err := mouse2.Await(ctx)
		t.Fatalf("second mouse resolved early: %v", err)
	default:
	}
	// Now the queue is all mice; a third mouse is shed itself.
	mouse3 := pool.Submit(ctx, qs[5], 0.5, WithTenant("mouse"))
	if _, err := mouse3.Await(ctx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("mouse3 resolved to %v, want ErrQueueFull (own tenant is heaviest)", err)
	}
	release()
	if _, err := hogRun.Await(ctx); err != nil {
		t.Fatalf("running hog failed: %v", err)
	}
	for _, f := range []*Future[[]Match]{mouse, mouse2} {
		if _, err := f.Await(ctx); err != nil {
			t.Fatalf("admitted mouse failed: %v", err)
		}
	}
	st := pool.StreamStats()
	if st.Shed != 3 || st.Completed != 3 {
		t.Fatalf("stats: %+v, want Shed=3 Completed=3", st)
	}
	if st.Completed+st.Cancelled+st.Rejected+st.Shed+st.Expired+st.Crashed != st.Submitted {
		t.Fatalf("submission accounting leaks: %+v", st)
	}
}

// The pop order: a worker answers pending submissions strictly in arrival
// order. (A job carries no query kind or radius for the order to depend on.)
func TestQueuePopsFIFO(t *testing.T) {
	const blocker = 0xFE
	gates := map[byte]chan struct{}{blocker: make(chan struct{})}
	pool, _, _ := markedPool(t, 1, gates)
	ctx := context.Background()
	b := pool.Submit(ctx, marked(blocker), 0.5)
	waitPending(t, pool, 0)
	const n = 8
	var order []int // appended by the one worker, read after every Await
	futures := make([]*Future[int], n)
	for i := range futures {
		futures[i] = SubmitFunc(pool, ctx, func(*Matcher[byte]) int {
			order = append(order, i)
			return i
		})
	}
	waitPending(t, pool, n)
	close(gates[blocker])
	awaitMatches(t, "blocker", b, nil)
	for i, f := range futures {
		if v, err := f.Await(ctx); err != nil || v != i {
			t.Fatalf("job %d resolved to (%v, %v)", i, v, err)
		}
	}
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("answer order %v, want arrival order", order)
	}

	// takeLocked clears every vacated tail slot, whether it pops the head
	// or evicts from the middle: nothing that left the queue stays
	// reachable through its backing array.
	var s streamState[byte]
	j0, j1, j2 := &streamJob[byte]{}, &streamJob[byte]{}, &streamJob[byte]{}
	s.queue = []*streamJob[byte]{j0, j1, j2}
	backing := s.queue
	for i, want := range []struct {
		at  int
		job *streamJob[byte]
	}{{1, j1}, {0, j0}, {0, j2}} {
		if got := s.takeLocked(want.at); got != want.job {
			t.Fatalf("take %d at %d returned the wrong job", i, want.at)
		}
	}
	if len(s.queue) != 0 {
		t.Fatalf("queue holds %d jobs after taking all", len(s.queue))
	}
	for i, j := range backing {
		if j != nil {
			t.Fatalf("backing slot %d still pins a job that left the queue", i)
		}
	}
}

// The engine's allocations per Submit+Await beyond the direct Matcher call
// it answers with: the job (header, answer and future in one), the
// future's channel and the answer closure.
func TestSubmitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under the race detector")
	}
	pool, qs, _ := markedPool(t, 1, nil)
	mt := pool.mt
	ctx := context.Background()
	q := qs[0]
	direct := testing.AllocsPerRun(50, func() { mt.FindAll(q, 0.5) })
	streamed := testing.AllocsPerRun(50, func() {
		if _, err := pool.Submit(ctx, q, 0.5).Await(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per call: FindAll %.0f, Submit+Await %.0f", direct, streamed)
	if extra := streamed - direct; extra > 3 {
		t.Fatalf("Submit+Await allocates %.0f more than FindAll (%.0f against %.0f), want at most 3", extra, streamed, direct)
	}
}

// poison is the marker byte that makes markedPool's distance function
// panic.
const poison = 0xFD

// markedPool builds a pool whose distance function reacts to the first
// byte of either argument: poison panics, and a byte with a gate blocks
// until that gate is closed. Queries made of such a byte misbehave on
// their own, whatever else runs beside them. Prepare/Bounded are stripped
// so all evaluation flows through Fn. The helper returns well-behaved
// queries with their answers.
func markedPool(t *testing.T, workers int, gates map[byte]chan struct{}, opts ...PoolOption) (*QueryPool[byte], []seq.Sequence[byte], [][]Match) {
	t.Helper()
	rng := rand.New(rand.NewPCG(97, 9700))
	db, qs := batchQueries(rng, 4)
	m := dist.LevenshteinMeasure[byte]()
	inner := m.Fn
	m.Fn = func(a, b []byte) float64 {
		for _, x := range [][]byte{a, b} {
			if len(x) == 0 {
				continue
			}
			if x[0] == poison {
				panic("injected evaluator fault")
			}
			if gate, ok := gates[x[0]]; ok {
				<-gate
			}
		}
		return inner(a, b)
	}
	m.Prepare = nil
	m.Bounded = nil
	mt, err := NewMatcher(m, Config{Params: Params{Lambda: 6, Lambda0: 1}}, db)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewQueryPool(mt, workers, opts...)
	t.Cleanup(func() {
		// A failed test may leave a gate shut; open it so Close can drain.
		for _, gate := range gates {
			select {
			case <-gate:
			default:
				close(gate)
			}
		}
		pool.Close()
	})
	return pool, qs, mt.FindAllBatch(qs, 0.5)
}

// marked is a query made of one marker byte.
func marked(b byte) seq.Sequence[byte] {
	q := make(seq.Sequence[byte], 12)
	for i := range q {
		q[i] = b
	}
	return q
}

// awaitMatches awaits f for at most five seconds and checks the answer.
func awaitMatches(t *testing.T, name string, f *Future[[]Match], want []Match) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ms, err := f.Await(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(ms, want) {
		t.Fatalf("%s: got %v, want %v", name, ms, want)
	}
}

// One slow query occupies one worker and nothing else: jobs queued behind
// it, at the same kind and radius, complete on the other worker while it
// is still running.
func TestStreamSlowJobOccupiesOneWorker(t *testing.T) {
	const blocker, slow = 0xFE, 0xFF
	gates := map[byte]chan struct{}{blocker: make(chan struct{}), slow: make(chan struct{})}
	pool, qs, want := markedPool(t, 2, gates)
	ctx := context.Background()
	// Wedge both workers so that the slow job and the fast ones are all
	// pending together when the workers come back for more.
	b1, b2 := pool.Submit(ctx, marked(blocker), 0.5), pool.Submit(ctx, marked(blocker), 0.5)
	waitPending(t, pool, 0)
	fSlow := pool.Submit(ctx, marked(slow), 0.5)
	fast := make([]*Future[[]Match], 3)
	for i := range fast {
		fast[i] = pool.Submit(ctx, qs[i], 0.5)
	}
	waitPending(t, pool, 4)
	close(gates[blocker])
	awaitMatches(t, "blocker 1", b1, nil)
	awaitMatches(t, "blocker 2", b2, nil)
	for i, f := range fast {
		awaitMatches(t, fmt.Sprintf("fast job %d behind the slow one", i), f, want[i])
	}
	select {
	case <-fSlow.Done():
		t.Fatal("slow job finished while its gate was shut")
	default:
	}
	close(gates[slow])
	awaitMatches(t, "slow job", fSlow, nil)
	st := pool.StreamStats()
	if st.Completed != 6 || st.Batches != 6 || st.Coalesced != 0 || st.MaxBatch != 1 {
		t.Fatalf("stats: %+v, want 6 completed, one job per worker pop", st)
	}
}

// A panicking query fails only itself: jobs pending beside it at the same
// kind and radius get their answers from the same worker, before and after.
func TestStreamPanicFailsOnlyThatJob(t *testing.T) {
	const blocker = 0xFE
	gates := map[byte]chan struct{}{blocker: make(chan struct{})}
	pool, qs, want := markedPool(t, 1, gates)
	ctx := context.Background()
	b := pool.Submit(ctx, marked(blocker), 0.5)
	waitPending(t, pool, 0)
	before := pool.Submit(ctx, qs[0], 0.5)
	bad := pool.Submit(ctx, marked(poison), 0.5)
	after := pool.Submit(ctx, qs[1], 0.5)
	waitPending(t, pool, 3)
	close(gates[blocker])
	awaitMatches(t, "blocker", b, nil)
	awaitMatches(t, "job ahead of the poisoned one", before, want[0])
	awaitMatches(t, "job behind the poisoned one", after, want[1])
	if _, err := bad.Await(ctx); !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("poisoned job resolved to %v, want ErrWorkerCrashed", err)
	}
	st := pool.StreamStats()
	if st.Crashed != 1 || st.Completed != 3 || st.InFlight != 0 {
		t.Fatalf("stats: %+v, want Crashed=1 Completed=3 InFlight=0", st)
	}
}

// A worker panic mid-answer (a poisoned query) must not take the pool down:
// the query's future fails with ErrWorkerCrashed, the accounting moves to
// Crashed, and the pool keeps answering later submissions correctly.
func TestWorkerPanicSelfHeals(t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 8300))
	db, qs := batchQueries(rng, 4)
	m := dist.LevenshteinMeasure[byte]()
	inner := m.Fn
	var bomb atomic.Bool
	m.Fn = func(a, b []byte) float64 {
		if bomb.Load() {
			panic("injected evaluator fault")
		}
		return inner(a, b)
	}
	m.Prepare = nil
	m.Bounded = nil
	mt, err := NewMatcher(m, Config{Params: Params{Lambda: 6, Lambda0: 1}}, db)
	if err != nil {
		t.Fatal(err)
	}
	want := mt.FindAllBatch(qs, 0.5)
	pool := NewQueryPool(mt, 2)
	defer pool.Close()
	ctx := context.Background()

	bomb.Store(true)
	f := pool.Submit(ctx, qs[0], 0.5)
	if _, err := f.Await(ctx); !errors.Is(err, ErrWorkerCrashed) {
		t.Fatalf("poisoned submission resolved to %v, want ErrWorkerCrashed", err)
	}
	bomb.Store(false)
	// The pool survived: the same query now answers bit-identically.
	for i, q := range qs {
		ms, err := pool.Submit(ctx, q, 0.5).Await(ctx)
		if err != nil {
			t.Fatalf("post-crash submission %d failed: %v", i, err)
		}
		if len(ms) != len(want[i]) {
			t.Fatalf("post-crash query %d: %d matches, want %d", i, len(ms), len(want[i]))
		}
		for j := range ms {
			if ms[j] != want[i][j] {
				t.Fatalf("post-crash query %d match %d: %v, want %v", i, j, ms[j], want[i][j])
			}
		}
	}
	st := pool.StreamStats()
	if st.Crashed != 1 {
		t.Fatalf("stats: %+v, want Crashed=1", st)
	}
	if st.Completed+st.Cancelled+st.Rejected+st.Shed+st.Expired+st.Crashed != st.Submitted {
		t.Fatalf("submission accounting leaks: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("crashed job leaked slots: %+v", st)
	}
}

// The engine's one accounting rule: every counter and every release moves
// before the future resolves. Queries go in one at a time — every kind,
// under every shed policy, with a sprinkling of pre-cancelled contexts,
// past deadlines and poisoned queries — and after each Await the snapshot
// must already be settled: nothing in flight, every submission in exactly
// one outcome counter.
func TestStreamAccountingSettlesBeforeFuture(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	past := WithSubmitTimeout(-time.Second)
	const perPolicy = 667 // × 3 policies ≈ 2 000 submissions
	for _, policy := range []ShedPolicy{ShedBlock, ShedRejectNewest, ShedFairShare} {
		pool, qs, _ := markedPool(t, 2, nil, WithShedPolicy(policy), WithQueueDepth(4))
		var want StreamStats
		for i := 0; i < perPolicy; i++ {
			// Short queries at radius 0: the test is about the scheduler, so
			// the answers are kept cheap enough to repeat under -race.
			ctx, q, opts := context.Background(), qs[i%len(qs)][:7], []SubmitOption{WithTenant(fmt.Sprint("t", i%3))}
			switch i % 11 {
			case 3:
				ctx = cancelled
				want.Cancelled++
			case 5:
				opts = append(opts, past)
				want.Expired++
			case 7:
				q = marked(poison)
				want.Crashed++
			default:
				want.Completed++
			}
			var err error
			switch i % 4 {
			case 0:
				_, err = pool.Submit(ctx, q, 0, opts...).Await(context.Background())
			case 1:
				_, err = pool.SubmitFilter(ctx, q, 0, opts...).Await(context.Background())
			case 2:
				_, err = pool.SubmitLongest(ctx, q, 0, opts...).Await(context.Background())
			case 3:
				_, err = pool.SubmitNearest(ctx, q, NearestOptions{EpsMax: 0.25, EpsInc: 0.25}, opts...).Await(context.Background())
			}
			st := pool.StreamStats()
			if st.InFlight != 0 || st.Pending != 0 {
				t.Fatalf("%v submission %d (err %v): awaited future left work in flight: %+v", policy, i, err, st)
			}
			if st.Submitted != int64(i+1) || st.Completed != want.Completed || st.Cancelled != want.Cancelled ||
				st.Expired != want.Expired || st.Crashed != want.Crashed || st.Shed != 0 || st.Rejected != 0 {
				t.Fatalf("%v submission %d (err %v): counters lag the resolved future: %+v, want %+v", policy, i, err, st, want)
			}
		}
		pool.Close()
		if _, err := pool.Submit(context.Background(), qs[0], 0.5).Await(context.Background()); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("%v: submission after Close resolved to %v", policy, err)
		}
		if st := pool.StreamStats(); st.Rejected != 1 || st.InFlight != 0 ||
			st.Submitted != st.Completed+st.Cancelled+st.Rejected+st.Shed+st.Expired+st.Crashed {
			t.Fatalf("%v: accounting after Close: %+v", policy, st)
		}
	}
}

// The latency histograms populate: every completed submission lands in
// both distributions, quantiles are sane, and an untouched pool reports
// empty histograms without starting workers.
func TestStreamLatencyHistograms(t *testing.T) {
	pool, _, qs := gatedPool(t, 89)
	defer pool.Close()
	if st := pool.StreamStats(); st.Latency.Count != 0 || st.QueueWait.Count != 0 {
		t.Fatalf("idle pool shows latency observations: %+v", st)
	}
	ctx := context.Background()
	const n = 24
	futures := make([]*Future[[]Match], 0, n)
	for i := 0; i < n; i++ {
		futures = append(futures, pool.Submit(ctx, qs[i%len(qs)], 0.5))
	}
	for _, f := range futures {
		if _, err := f.Await(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.StreamStats()
	if st.Latency.Count != n || st.QueueWait.Count != n {
		t.Fatalf("histogram counts (%d, %d), want (%d, %d)", st.Latency.Count, st.QueueWait.Count, n, n)
	}
	l := st.Latency
	if l.MeanMillis <= 0 || l.MaxMillis < l.P99Millis/2 || l.P50Millis > l.P99Millis {
		t.Fatalf("implausible latency summary: %+v", l)
	}
	var bucketSum int64
	for _, b := range l.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != n {
		t.Fatalf("buckets sum to %d, want %d", bucketSum, n)
	}
}

// The latency histogram itself: bucket placement, quantile interpolation
// bounds, and concurrent observation safety.
func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for i := 0; i < 90; i++ {
		h.observe(1 * time.Millisecond) // ≤ 1ms bucket
	}
	for i := 0; i < 10; i++ {
		h.observe(40 * time.Millisecond) // (20ms, 50ms] bucket
	}
	st := h.snapshot()
	if st.Count != 100 {
		t.Fatalf("count %d, want 100", st.Count)
	}
	if st.P50Millis > 1.0 {
		t.Fatalf("p50 %.3fms, want ≤ 1ms", st.P50Millis)
	}
	if st.P99Millis <= 20 || st.P99Millis > 50 {
		t.Fatalf("p99 %.3fms, want in (20, 50]", st.P99Millis)
	}
	if st.MaxMillis != 40 {
		t.Fatalf("max %.3fms, want 40", st.MaxMillis)
	}
	// Concurrent observes do not race (run under -race in CI).
	var h2 latencyHist
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h2.observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := h2.snapshot().Count; got != 4000 {
		t.Fatalf("concurrent count %d, want 4000", got)
	}
}

// Close racing Submit on every backend: each future must resolve (result
// or ErrPoolClosed), nothing deadlocks, and accounting balances. Runs
// under -race in CI.
func TestStreamCloseSubmitRaceAllBackends(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(97, 9700))
	db, qs := batchQueries(rng, 4)
	for _, kind := range []IndexKind{IndexRefNet, IndexCoverTree, IndexMV, IndexLinearScan} {
		mt, err := NewMatcher(lev, Config{Params: p, Index: kind, MVRefs: 3}, db)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		pool := NewQueryPool(mt, 2, WithQueueDepth(8), WithShedPolicy(ShedRejectNewest))
		var wg sync.WaitGroup
		futures := make(chan *Future[[]Match], 256)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < 32; i++ {
					futures <- pool.Submit(ctx, qs[(g+i)%len(qs)], 0.5)
				}
			}(g)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			pool.Close() // races the submitters
		}()
		wg.Wait()
		close(futures)
		<-done
		ctx := context.Background()
		for f := range futures {
			if _, err := f.Await(ctx); err != nil &&
				!errors.Is(err, ErrPoolClosed) && !errors.Is(err, ErrQueueFull) {
				t.Fatalf("%v: future resolved to %v, want result, ErrPoolClosed or ErrQueueFull", kind, err)
			}
		}
		st := pool.StreamStats()
		if st.Completed+st.Cancelled+st.Rejected+st.Shed+st.Expired+st.Crashed != st.Submitted {
			t.Fatalf("%v: submission accounting leaks: %+v", kind, st)
		}
		if st.InFlight != 0 || st.Pending != 0 {
			t.Fatalf("%v: engine not drained: %+v", kind, st)
		}
	}
}

// Context cancellation racing the worker's claim on every backend: cancel
// fires while jobs sit queued and while they run; every future resolves,
// nothing leaks. Runs under -race in CI.
func TestStreamCancelDuringClaimAllBackends(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(101, 10100))
	db, qs := batchQueries(rng, 4)
	for _, kind := range []IndexKind{IndexRefNet, IndexCoverTree, IndexMV, IndexLinearScan} {
		mt, err := NewMatcher(lev, Config{Params: p, Index: kind, MVRefs: 3}, db)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		pool := NewQueryPool(mt, 2, WithQueueDepth(8))
		var wg sync.WaitGroup
		var unresolved atomic.Int64
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 24; i++ {
					ctx, cancel := context.WithCancel(context.Background())
					f := pool.Submit(ctx, qs[(g+i)%len(qs)], 0.5)
					if i%3 != 0 {
						cancel() // racing the claim
					}
					if _, err := f.Await(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
						unresolved.Add(1)
					}
					cancel()
				}
			}(g)
		}
		wg.Wait()
		if unresolved.Load() != 0 {
			t.Fatalf("%v: %d futures resolved to unexpected errors", kind, unresolved.Load())
		}
		pool.Close()
		st := pool.StreamStats()
		if st.Completed+st.Cancelled+st.Rejected+st.Shed+st.Expired+st.Crashed != st.Submitted {
			t.Fatalf("%v: submission accounting leaks: %+v", kind, st)
		}
		if st.InFlight != 0 || st.Pending != 0 {
			t.Fatalf("%v: engine not drained: %+v", kind, st)
		}
	}
}
