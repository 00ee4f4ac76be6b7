package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/seq"
)

// batchQueries builds a db plus several queries sharing mutated motifs.
func batchQueries(rng *rand.Rand, numQ int) ([]seq.Sequence[byte], []seq.Sequence[byte]) {
	db, _ := randStrings(rng, 3, 48, 0, 0, false)
	qs := make([]seq.Sequence[byte], numQ)
	for i := range qs {
		_, q := randStrings(rng, 1, 10, 26, 9, i%2 == 0)
		// Plant each query's motif into the shared db too.
		target := db[rng.IntN(len(db))]
		copy(target[rng.IntN(len(target)-9):], q[3:12])
		qs[i] = q
	}
	return db, qs
}

// Every way of running a query counts the same filter plus verify
// evaluations — the *Batch methods, a 4-worker QueryPool burst and the
// queries one at a time — on every index backend, through the kernel paths
// (λ0 = 1) and the probe-by-probe ones (λ0 = 0: the net's DistEvaluator, the
// bounded scan); DESIGN.md §4. No query moves BuildDistanceCalls, and a
// mutation moves nothing else: an append, a retire where the backend has
// one, and an append the index refuses (a window at infinite distance from
// the root) each count as build work only. The answers are held to the
// oracle (internal/store TestProgramsMatchOracle, paths "batch" and "pool*").
func TestBatchCostEqualsSequentialAllBackends(t *testing.T) {
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(8, 800))
	db, qs := batchQueries(rng, 5)
	const eps = 0.5
	opts := NearestOptions{EpsMax: 4, EpsInc: 1}
	each := func(answer func(q seq.Sequence[byte])) func() {
		return func() {
			for _, q := range qs {
				answer(q)
			}
		}
	}
	for _, lam0 := range []int{1, 0} {
		p := Params{Lambda: 6, Lambda0: lam0}
		for _, kind := range allBackends {
			label := fmt.Sprintf("%v λ0=%d", kind, lam0)
			mt, err := NewMatcher(lev, Config{Params: p, Index: kind, MVRefs: 3}, slices.Clone(db))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			pool := NewQueryPool(mt, 4)
			build := mt.BuildDistanceCalls()
			calls := func() int64 { return mt.FilterDistanceCalls() + mt.VerifyDistanceCalls() }
			for _, c := range []struct {
				name string
				ways []func() // batch (where there is one), pool, one at a time
			}{
				{"FilterHits", []func(){
					func() { mt.FilterHitsBatch(qs, eps) },
					func() { pool.FilterHits(qs, eps) },
					each(func(q seq.Sequence[byte]) { mt.FilterHits(q, eps) }),
				}},
				{"FindAll", []func(){
					func() { mt.FindAllBatch(qs, eps) },
					func() { pool.FindAll(qs, eps) },
					each(func(q seq.Sequence[byte]) { mt.FindAll(q, eps) }),
				}},
				{"Longest", []func(){
					func() { mt.LongestBatch(qs, eps) },
					func() { pool.Longest(qs, eps) },
					each(func(q seq.Sequence[byte]) { mt.Longest(q, eps) }),
				}},
				{"Nearest", []func(){
					func() { pool.Nearest(qs, opts) },
					each(func(q seq.Sequence[byte]) { mt.Nearest(q, opts) }),
				}},
			} {
				var counted []int64
				for _, way := range c.ways {
					c0 := calls()
					way()
					counted = append(counted, calls()-c0)
				}
				if counted[0] == 0 || slices.Min(counted) != slices.Max(counted) {
					t.Fatalf("%s %s: counted %v evaluations (batch, pool, one at a time), want the same non-zero count", label, c.name, counted)
				}
			}
			if got := mt.BuildDistanceCalls(); got != build {
				t.Fatalf("%s: queries moved BuildDistanceCalls from %d to %d", label, build, got)
			}
			mutation := func(what string, fn func()) {
				f0, v0, b0 := mt.FilterDistanceCalls(), mt.VerifyDistanceCalls(), mt.BuildDistanceCalls()
				fn()
				if f, v := mt.FilterDistanceCalls(), mt.VerifyDistanceCalls(); f != f0 || v != v0 {
					t.Fatalf("%s %s: filter %d → %d, verify %d → %d; a mutation is build work", label, what, f0, f, v0, v)
				}
				if what == "append" && kind != IndexLinearScan && mt.BuildDistanceCalls() == b0 {
					t.Fatalf("%s: the append computed no distance", label)
				}
			}
			mutation("append", func() {
				if _, _, err := mt.AppendSequence(slices.Clone(qs[0])); err != nil {
					t.Fatalf("%s: append: %v", label, err)
				}
			})
			mutation("retire", func() {
				if _, err := mt.RetireSequence(0); err != nil && !errors.Is(err, ErrRetireUnsupported) {
					t.Fatalf("%s: retire: %v", label, err)
				}
			})
		}
	}

	// The refused append: the net and the cover tree refuse a window at a
	// non-finite distance from the root after pricing that distance.
	fdb := []seq.Sequence[float64]{{1, 2, 3, 4, 5, 6, 7, 8, 9}, {3, 1, 4, 1, 5, 9, 2, 6, 5}}
	far := seq.Sequence[float64]{1e308, 1e308, 1e308, 1e308, 1e308, 1e308}
	for _, kind := range allBackends {
		mt, err := NewMatcher(dist.EuclideanMeasure(dist.AbsDiff), Config{Params: Params{Lambda: 6}, Index: kind, MVRefs: 2}, fdb)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		mt.FindAll(fdb[1][:6], 1)
		f0, v0, b0 := mt.FilterDistanceCalls(), mt.VerifyDistanceCalls(), mt.BuildDistanceCalls()
		refused := func() (r any) {
			defer func() { r = recover() }()
			mt.AppendSequence(far)
			return nil
		}()
		if f, v := mt.FilterDistanceCalls(), mt.VerifyDistanceCalls(); f != f0 || v != v0 {
			t.Fatalf("%v: a refused append moved filter %d → %d, verify %d → %d", kind, f0, f, v0, v)
		}
		if kind == IndexRefNet || kind == IndexCoverTree {
			if refused == nil {
				t.Fatalf("%v: the index took a window at infinite distance from its root", kind)
			}
			if mt.BuildDistanceCalls() == b0 {
				t.Fatalf("%v: the refused append's evaluation is not build work (build %d)", kind, b0)
			}
		}
	}
}

// Drive one matcher from many goroutines (direct queries and pools mixed)
// so `go test -race ./internal/core/` exercises the pooled scratch, the
// pooled refnet query state and the atomic counters under contention.
func TestQueryPoolRace(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(10, 1000))
	db, qs := batchQueries(rng, 8)
	const eps = 0.5
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	want := mt.FindAllBatch(qs, eps)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				pool := NewQueryPool(mt, 3)
				for iter := 0; iter < 5; iter++ {
					pool.FilterHits(qs, eps)
					got := pool.FindAll(qs, eps)
					for i := range qs {
						if len(got[i]) != len(want[i]) {
							t.Errorf("goroutine %d: query %d got %d matches, want %d", g, i, len(got[i]), len(want[i]))
							return
						}
					}
				}
			} else {
				for iter := 0; iter < 5; iter++ {
					for i, q := range qs {
						if got := mt.FindAll(q, eps); len(got) != len(want[i]) {
							t.Errorf("goroutine %d: query %d got %d matches, want %d", g, i, len(got), len(want[i]))
							return
						}
						mt.Nearest(q, NearestOptions{EpsMax: 4, EpsInc: 1})
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// The incremental linear-backend filter must agree with the plain path on
// measures that carry kernels, across λ0 values including zero (which
// routes to the bounded scan instead).
func TestIncrementalFilterMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1100))
	db, q := randStrings(rng, 3, 40, 30, 10, true)
	for _, lam0 := range []int{0, 1, 2} {
		p := Params{Lambda: 8, Lambda0: lam0}
		var passes int64
		withKernel, err := NewMatcher(passCounting(dist.LevenshteinMeasure[byte](), &passes), Config{Params: p, Index: IndexLinearScan}, db)
		if err != nil {
			t.Fatal(err)
		}
		// Strip the capabilities to force the plain path on a second
		// matcher with identical semantics.
		plainMeasure := dist.LevenshteinMeasure[byte]()
		plainMeasure.Prepare = nil
		plainMeasure.Bounded = nil
		plain, err := NewMatcher(plainMeasure, Config{Params: p, Index: IndexLinearScan}, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0, 1, 2.5} {
			got := withKernel.FilterHits(q, eps)
			want := plain.FilterHits(q, eps)
			if len(got) != len(want) {
				t.Fatalf("λ0=%d eps=%v: incremental %d hits, plain %d", lam0, eps, len(got), len(want))
			}
			for j := range want {
				if got[j].Window.String() != want[j].Window.String() ||
					got[j].Segment.String() != want[j].Segment.String() {
					t.Fatalf("λ0=%d eps=%v hit %d: incremental %v/%v, plain %v/%v", lam0, eps, j,
						got[j].Window, got[j].Segment, want[j].Window, want[j].Segment)
				}
			}
			// Distance accounting: the plain path counts one evaluation per
			// segment↔window pair, and so does the bounded scan λ0 = 0 routes
			// to; the kernel scan counts the passes it ran — the free-start
			// pass of each window and one per offset that pass could not rule
			// out — which is fewer.
			a0, b0 := withKernel.FilterDistanceCalls(), plain.FilterDistanceCalls()
			passes = 0
			withKernel.FilterHits(q, eps)
			plain.FilterHits(q, eps)
			a, b := withKernel.FilterDistanceCalls()-a0, plain.FilterDistanceCalls()-b0
			switch {
			case lam0 == 0 && a != b:
				t.Fatalf("λ0=0 eps=%v: bounded scan counted %d calls, plain %d", eps, a, b)
			case lam0 > 0 && (a >= b || a != passes):
				t.Fatalf("λ0=%d eps=%v: kernel scan counted %d evaluations, ran %d passes, plain path counted %d", lam0, eps, a, passes, b)
			}
		}
	}
}

// Every *Batch call counts once, with the number of queries it carried
// (/stats reports the tallies).
func TestBatchTallies(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(9, 900))
	db, qs := batchQueries(rng, 4)
	mt, err := NewMatcher(lev, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	if mt.BatchCalls() != 0 || mt.BatchQueries() != 0 {
		t.Fatalf("fresh matcher has tallies: %d/%d", mt.BatchCalls(), mt.BatchQueries())
	}
	mt.FilterHitsBatch(qs, 0.5)
	if mt.BatchCalls() != 1 || mt.BatchQueries() != 4 {
		t.Fatalf("after FilterHitsBatch: calls=%d queries=%d, want 1/4", mt.BatchCalls(), mt.BatchQueries())
	}
	mt.FindAllBatch(qs[:2], 0.5)
	mt.LongestBatch(qs[:3], 0.5)
	if mt.BatchCalls() != 3 || mt.BatchQueries() != 9 {
		t.Fatalf("after FindAllBatch+LongestBatch: calls=%d queries=%d, want 3/9", mt.BatchCalls(), mt.BatchQueries())
	}
}

// fnOnlyMatcher builds a linear-scan matcher over db that prices every
// distance with Levenshtein's Fn after calling probe on the pair: no kernel,
// no bounded evaluation.
func fnOnlyMatcher(t *testing.T, db []seq.Sequence[byte], probe func(a, b []byte)) *Matcher[byte] {
	t.Helper()
	lev := dist.LevenshteinMeasure[byte]()
	m := dist.Measure[byte]{Name: "levenshtein-probe", Props: lev.Props, Fn: func(a, b []byte) float64 {
		probe(a, b)
		return lev.Fn(a, b)
	}}
	mt, err := NewMatcher(m, Config{Params: Params{Lambda: 6, Lambda0: 1}, Index: IndexLinearScan}, db)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// settleGoroutines fails t unless the goroutine count falls back to before
// within a few seconds.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the call", runtime.NumGoroutine(), before)
		}
	}
}

// Each *Batch method answers its queries on more than one goroutine: the
// first distance call waits (up to two seconds, so a serial loop fails
// rather than hangs) for a second call to be in flight at once.
func TestBatchRunsConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	db, qs := batchQueries(rand.New(rand.NewPCG(12, 1200)), 4)
	var inFlight atomic.Int32
	var settled, overlapped atomic.Bool
	mt := fnOnlyMatcher(t, db, func(_, _ []byte) {
		if settled.Load() {
			return
		}
		inFlight.Add(1)
		defer inFlight.Add(-1)
		for deadline := time.Now().Add(2 * time.Second); !overlapped.Load() && time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
			if inFlight.Load() >= 2 {
				overlapped.Store(true)
			}
		}
		settled.Store(true)
	})
	for name, batch := range map[string]func(){
		"FilterHitsBatch": func() { mt.FilterHitsBatch(qs, 0.5) },
		"FindAllBatch":    func() { mt.FindAllBatch(qs, 0.5) },
		"LongestBatch":    func() { mt.LongestBatch(qs, 0.5) },
	} {
		settled.Store(false)
		overlapped.Store(false)
		batch()
		if !overlapped.Load() {
			t.Errorf("%s: no two distance calls of a %d-query batch were in flight at once", name, len(qs))
		}
	}
}

// A query that panics inside a batch re-raises its panic value on the
// caller of FindAllBatch and of QueryPool.FindAll, and no goroutine of the
// call outlives it.
func TestBatchPanicReraises(t *testing.T) {
	db, qs := batchQueries(rand.New(rand.NewPCG(13, 1300)), 6)
	qs[3] = slices.Clone(qs[3])
	qs[3][5] = '!' // the database alphabet is ABCD
	const poison = "poisoned query"
	mt := fnOnlyMatcher(t, db, func(a, b []byte) {
		if slices.Contains(a, '!') || slices.Contains(b, '!') {
			panic(poison)
		}
	})
	pool := NewQueryPool(mt, 3)
	for name, call := range map[string]func(){
		"FindAllBatch":      func() { mt.FindAllBatch(qs, 0.5) },
		"QueryPool.FindAll": func() { pool.FindAll(qs, 0.5) },
	} {
		before := runtime.NumGoroutine()
		got := func() (r any) {
			defer func() { r = recover() }()
			call()
			return nil
		}()
		if got != poison {
			t.Errorf("%s: the caller recovered %v, want %q", name, got, poison)
		}
		settleGoroutines(t, before)
	}
}

// A one-query batch answers on the caller's goroutine and starts none, on
// the *Batch methods and on the pool's barrier methods alike.
func TestBatchOneQueryOnCaller(t *testing.T) {
	db, qs := batchQueries(rand.New(rand.NewPCG(14, 1400)), 1)
	// goroutine reads the running goroutine's number off its stack header.
	goroutine := func() string {
		buf := make([]byte, 64)
		return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	}
	caller := goroutine()
	var calls, elsewhere atomic.Int32
	mt := fnOnlyMatcher(t, db, func(_, _ []byte) {
		calls.Add(1)
		if goroutine() != caller {
			elsewhere.Add(1)
		}
	})
	pool := NewQueryPool(mt, 4)
	for name, call := range map[string]func(){
		"FilterHitsBatch":   func() { mt.FilterHitsBatch(qs, 0.5) },
		"FindAllBatch":      func() { mt.FindAllBatch(qs, 0.5) },
		"LongestBatch":      func() { mt.LongestBatch(qs, 0.5) },
		"QueryPool.FindAll": func() { pool.FindAll(qs, 0.5) },
		"QueryPool.Nearest": func() { pool.Nearest(qs, NearestOptions{EpsMax: 2, EpsInc: 1}) },
	} {
		calls.Store(0)
		elsewhere.Store(0)
		call()
		if n := elsewhere.Load(); n > 0 || calls.Load() == 0 {
			t.Errorf("%s: %d of %d distance calls of a one-query batch ran off the caller's goroutine", name, n, calls.Load())
		}
	}
}
