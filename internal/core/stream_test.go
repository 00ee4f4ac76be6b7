package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
)

// Future semantics: Await honours its own context but a completed future
// always reports its result, and Done unblocks selects.
func TestFutureAwait(t *testing.T) {
	f := &Future[int]{done: make(chan struct{})}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Await(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Await on pending future with cancelled ctx: err = %v, want Canceled", err)
	}
	f.complete(7, nil)
	select {
	case <-f.Done():
	default:
		t.Fatal("Done not closed after complete")
	}
	if v, err := f.Await(cancelled); err != nil || v != 7 {
		t.Fatalf("Await on completed future = (%v, %v), want (7, nil)", v, err)
	}
}

// A submission whose context is already cancelled resolves to the context
// error without index work; submissions cancelled later still resolve (to
// either their result or the cancellation), and the engine fully drains.
func TestStreamContextCancellation(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(41, 4100))
	db, qs := batchQueries(rng, 6)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewQueryPool(mt, 2)
	defer pool.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	f := pool.Submit(dead, qs[0], 0.5)
	if _, err := f.Await(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled submit resolved to %v, want Canceled", err)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	futures := make([]*Future[[]Match], 0, 64)
	for r := 0; r < 64; r++ {
		futures = append(futures, pool.Submit(ctx, qs[r%len(qs)], 0.5))
		if r == 20 {
			cancelMid()
		}
	}
	cancelMid()
	var ok, cancelledN int
	for _, f := range futures {
		if _, err := f.Await(context.Background()); err == nil {
			ok++
		} else if errors.Is(err, context.Canceled) {
			cancelledN++
		} else {
			t.Fatalf("unexpected error %v", err)
		}
	}
	if ok+cancelledN != len(futures) {
		t.Fatalf("resolved %d+%d of %d futures", ok, cancelledN, len(futures))
	}
	if cancelledN == 0 {
		t.Fatal("no submission observed the cancellation")
	}
	// The engine drains: in-flight returns to zero.
	deadline := time.Now().Add(5 * time.Second)
	for pool.StreamStats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine did not drain: %+v", pool.StreamStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// Close drains accepted submissions before the workers exit, rejects
// later submissions with ErrPoolClosed, and is idempotent. The batch
// barrier methods keep working on a closed pool.
func TestStreamCloseDrainsAndRejects(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(43, 4300))
	db, qs := batchQueries(rng, 6)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	want := mt.FindAllBatch(qs, 0.5)
	pool := NewQueryPool(mt, 2)
	ctx := context.Background()
	futures := make([]*Future[[]Match], len(qs))
	for i, q := range qs {
		futures[i] = pool.Submit(ctx, q, 0.5)
	}
	pool.Close()
	for i, f := range futures {
		ms, err := f.Await(ctx)
		if err != nil {
			t.Fatalf("accepted submission %d failed after Close: %v", i, err)
		}
		if len(ms) != len(want[i]) {
			t.Fatalf("query %d: %d matches after Close, want %d", i, len(ms), len(want[i]))
		}
	}
	if _, err := pool.Submit(ctx, qs[0], 0.5).Await(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after Close resolved to %v, want ErrPoolClosed", err)
	}
	pool.Close() // idempotent
	got := pool.FindAll(qs, 0.5)
	for i := range qs {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("batch barrier after Close: query %d got %d matches, want %d", i, len(got[i]), len(want[i]))
		}
	}
}

// A pool used purely through the batch-barrier methods closes without
// ever starting the streaming workers, and still rejects submissions
// afterwards.
func TestStreamCloseWithoutUse(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	rng := rand.New(rand.NewPCG(59, 5900))
	db, qs := batchQueries(rng, 3)
	mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewQueryPool(mt, 2)
	pool.FindAll(qs, 0.5) // batch barrier only
	pool.Close()
	st := pool.StreamStats()
	if st.Submitted != 0 || st.Completed != 0 {
		t.Fatalf("batch-only pool shows stream activity: %+v", st)
	}
	ctx := context.Background()
	if _, err := pool.Submit(ctx, qs[0], 0.5).Await(ctx); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after batch-only Close resolved to %v, want ErrPoolClosed", err)
	}
}

// Stress the engine under the race detector: many goroutines submitting
// all four query types while the pool drains, with cancellations and a
// concurrent batch-barrier user mixed in.
func TestStreamStressRace(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(47, 4700))
	db, qs := batchQueries(rng, 8)
	const eps = 0.5
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	want := mt.FindAllBatch(qs, eps)
	pool := NewQueryPool(mt, 3, WithQueueDepth(16))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(qs)
				switch g % 4 {
				case 0:
					ms, err := pool.Submit(ctx, qs[i], eps).Await(ctx)
					if err != nil || len(ms) != len(want[i]) {
						bad.Add(1)
					}
				case 1:
					if _, err := pool.SubmitFilter(ctx, qs[i], eps).Await(ctx); err != nil {
						bad.Add(1)
					}
				case 2:
					cctx, cancel := context.WithCancel(ctx)
					f := pool.SubmitLongest(cctx, qs[i], eps)
					if it%2 == 0 {
						cancel()
					}
					if _, err := f.Await(ctx); err != nil && !errors.Is(err, context.Canceled) {
						bad.Add(1)
					}
					cancel()
				case 3:
					// Batch-barrier calls share the matcher with the stream.
					got := pool.FindAll(qs[:2], eps)
					if len(got[0]) != len(want[0]) {
						bad.Add(1)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d inconsistent results under stress", bad.Load())
	}
	pool.Close()
	st := pool.StreamStats()
	if st.InFlight != 0 || st.Pending != 0 {
		t.Fatalf("engine not drained after Close: %+v", st)
	}
	if st.Completed+st.Cancelled+st.Rejected+st.Shed+st.Expired+st.Crashed != st.Submitted {
		t.Fatalf("submission accounting leaks: %+v", st)
	}
}

// The lazily-built prepared tables must be identical to building every
// window's table up front, and a selective query on a hierarchical backend
// must *not* touch every window — the point of per-slot laziness.
func TestLazyPreparedIdentityAndSparseness(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 5300))
	db, qs := batchQueries(rng, 4)
	p := Params{Lambda: 6, Lambda0: 1}
	const eps = 0.5

	prepares := func(m *dist.Measure[byte]) *atomic.Int64 {
		var n atomic.Int64
		inner := m.Prepare
		m.Prepare = func(w []byte) dist.Prepared[byte] {
			n.Add(1)
			return inner(w)
		}
		return &n
	}

	lazyM := dist.LevenshteinMeasure[byte]()
	lazyCount := prepares(&lazyM)
	lazy, err := NewMatcher(lazyM, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	eagerM := dist.LevenshteinMeasure[byte]()
	eagerCount := prepares(&eagerM)
	eager, err := NewMatcher(eagerM, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	// Force the eager path: build every slot before the first query.
	eager.preparedInit()
	for i := range eager.windows {
		eager.preparedAt(int32(i))
	}
	if got := eagerCount.Load(); got != int64(len(eager.windows)) {
		t.Fatalf("eager build prepared %d windows, want %d", got, len(eager.windows))
	}

	for _, q := range qs {
		lazyHits := lazy.FilterHits(q, eps)
		eagerHits := eager.FilterHits(q, eps)
		if len(lazyHits) != len(eagerHits) {
			t.Fatalf("lazy %d hits, eager %d", len(lazyHits), len(eagerHits))
		}
		for j := range lazyHits {
			if lazyHits[j].Window.String() != eagerHits[j].Window.String() ||
				lazyHits[j].Segment.String() != eagerHits[j].Segment.String() {
				t.Fatalf("hit %d: lazy %v/%v, eager %v/%v", j,
					lazyHits[j].Window, lazyHits[j].Segment, eagerHits[j].Window, eagerHits[j].Segment)
			}
		}
	}
	built := lazyCount.Load()
	if built == 0 {
		t.Fatal("kernel traversal built no prepared tables (did the kernel path run?)")
	}
	if built >= int64(len(lazy.windows)) {
		t.Fatalf("lazy path built %d of %d windows — not lazy", built, len(lazy.windows))
	}
	// Each touched window is prepared exactly once, even after more queries.
	for _, q := range qs {
		lazy.FilterHits(q, eps)
	}
	if again := lazyCount.Load(); again != built {
		t.Fatalf("repeat queries rebuilt prepared tables: %d → %d", built, again)
	}
}
