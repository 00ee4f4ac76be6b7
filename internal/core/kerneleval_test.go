package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

// The kernel-fed refnet traversal must issue measurably fewer filter
// distance evaluations than per-probe evaluation — the tentpole claim:
// probes sharing a query offset are priced by one streamed kernel pass, so
// counted evaluations drop below one per probe — while returning exactly
// the per-probe results.
func TestRefnetKernelTraversalFewerFilterCalls(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2100))
	db, qs := batchQueries(rng, 6)
	p := Params{Lambda: 8, Lambda0: 2}

	kernel, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline evaluates every probe independently: strip both the
	// kernel and the bounded capability so each traversal evaluation is one
	// plain distance call.
	plainMeasure := dist.LevenshteinMeasure[byte]()
	plainMeasure.Prepare = nil
	plainMeasure.Bounded = nil
	plain, err := NewMatcher(plainMeasure, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}

	for _, eps := range []float64{0.5, 1, 2} {
		kc0, pc0 := kernel.FilterDistanceCalls(), plain.FilterDistanceCalls()
		got := kernel.FilterHitsBatch(qs, eps)
		want := plain.FilterHitsBatch(qs, eps)
		for i := range qs {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("eps=%v query %d: kernel %d hits, per-probe %d", eps, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j].Window.String() != want[i][j].Window.String() ||
					got[i][j].Segment.String() != want[i][j].Segment.String() {
					t.Fatalf("eps=%v query %d hit %d: kernel %v/%v, per-probe %v/%v", eps, i, j,
						got[i][j].Window, got[i][j].Segment, want[i][j].Window, want[i][j].Segment)
				}
			}
		}
		kc, pc := kernel.FilterDistanceCalls()-kc0, plain.FilterDistanceCalls()-pc0
		if kc == 0 || pc == 0 {
			t.Fatalf("eps=%v: vacuous counts (kernel %d, per-probe %d)", eps, kc, pc)
		}
		if kc >= pc {
			t.Fatalf("eps=%v: kernel traversal counted %d filter evaluations, per-probe %d — no reduction", eps, kc, pc)
		}
	}

	// A ceiling beside the ratio. On the benchmark's protein index (500
	// windows, λ = 40, λ0 = 1) an exact-match filter — ε = 0, where a
	// childless window can only be hit by an identical segment — ran some
	// 7 500 kernel passes a query while every node was charged its level's
	// worst case, of the scan's 13 000, and 2 570 once the net pruned with
	// each node's measured cover radius. With the free-start pre-pass ruling
	// out most offset runs at a node it runs 1 045, pre-passes included. The
	// ceiling sits between the last two.
	ds := data.Proteins(500, 20, 1)
	mt, err := NewMatcher(dist.LevenshteinFastMeasure(),
		Config{Params: Params{Lambda: 40, Lambda0: 1}, Index: IndexRefNet}, ds.Sequences)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 40
	for i := 0; i < queries; i++ {
		mt.FilterHits(data.RandomQuery(ds, 45, 0.1, data.MutateAA, uint64(i+1)), 0)
	}
	if per := float64(mt.FilterDistanceCalls()) / queries; per >= 1800 {
		t.Fatalf("ε=0 filter on PROTEINS 500 ran %.0f kernel passes per query, want fewer than 1800", per)
	} else {
		t.Logf("ε=0 filter on PROTEINS 500: %.0f kernel passes per query", per)
	}

	// And one for Type III at the benchmark's setting (EpsMax 8, EpsInc 1).
	// A filter run per probed radius and per verification round cost some
	// 34 600 evaluations an op, filter and verification together; one
	// MinDist and rounds that evaluate no (segment, window) pair twice cost
	// 7 843; under the pre-pass, 2 923.
	before := mt.FilterDistanceCalls() + mt.VerifyDistanceCalls()
	for i := 0; i < queries; i++ {
		mt.Nearest(data.RandomQuery(ds, 45, 0.1, data.MutateAA, uint64(i+1)), NearestOptions{EpsMax: 8, EpsInc: 1})
	}
	if per := float64(mt.FilterDistanceCalls()+mt.VerifyDistanceCalls()-before) / queries; per >= 5000 {
		t.Fatalf("Type III on PROTEINS 500 counted %.0f evaluations per op, want fewer than 5000", per)
	} else {
		t.Logf("Type III on PROTEINS 500: %.0f counted evaluations per op", per)
	}
}

// orderCheckingEval wraps the kernel evaluator and fails the test when a
// batch does not arrive ordered by (offset group, length) — the order
// EvalBatch's run walk depends on now that it sorts nothing.
type orderCheckingEval[E any] struct {
	t     *testing.T
	inner *kernelEvaluator[E]
	calls int
	multi int // batches holding more than one probe
}

func (e *orderCheckingEval[E]) Exact() bool { return e.inner.Exact() }

func (e *orderCheckingEval[E]) EvalBatch(item seq.Window[E], idxs []int32, bound float64, out []float64) {
	e.calls++
	if len(idxs) > 1 {
		e.multi++
	}
	for k := 1; k < len(idxs); k++ {
		a, b := e.inner.probes[idxs[k-1]], e.inner.probes[idxs[k]]
		if a.Start > b.Start || (a.Start == b.Start && len(a.Data) >= len(b.Data)) {
			e.t.Fatalf("EvalBatch got probe (start %d, len %d) before (start %d, len %d)",
				a.Start, len(a.Data), b.Start, len(b.Data))
		}
	}
	e.inner.EvalBatch(item, idxs, bound, out)
}

// The traversal must hand every node its probes already grouped by offset,
// shortest first: filterHits lays the probes out offset-major once per
// query, and the net keeps every pending list a subsequence of that order.
func TestKernelEvalBatchesArriveOrdered(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 2400))
	db, qs := batchQueries(rng, 4)
	p := Params{Lambda: 8, Lambda0: 2}
	mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	for _, q := range qs {
		for _, eps := range []float64{0, 1, 2} {
			segs := seq.AppendSegmentsFor(sc.segs[:0], q, p.Lambda, p.Lambda0)
			pos := sc.offsetMajorProbes(segs, len(q))
			seen := make([]bool, len(segs))
			for i, s := range segs {
				pr := sc.probes[pos[i]]
				if seen[pos[i]] || pr.Start != s.Start || len(pr.Data) != len(s.Data) {
					t.Fatalf("pos is not the inverse of the probe layout at segment %d", i)
				}
				seen[pos[i]] = true
			}
			sc.keval.open(mt, q, sc)
			ev := &orderCheckingEval[byte]{t: t, inner: &sc.keval}
			session := mt.index.(*netBackend[byte]).net.OpenSession(sc.probes, ev)
			results := session.Range(eps)
			session.Close()
			if ev.calls == 0 || ev.multi == 0 {
				t.Fatalf("eps=%v: vacuous (%d batches, %d with several probes)", eps, ev.calls, ev.multi)
			}
			// Through pos the results are the segment-major hits FilterHits
			// returns.
			want := mt.FilterHits(q, eps)
			k := 0
			for i, s := range segs {
				for _, w := range results[pos[i]] {
					if k >= len(want) || want[k].Window.String() != w.String() || want[k].Segment.String() != s.String() {
						t.Fatalf("eps=%v: hit %d differs from FilterHits", eps, k)
					}
					k++
				}
			}
			if k != len(want) {
				t.Fatalf("eps=%v: %d hits through pos, FilterHits has %d", eps, k, len(want))
			}
		}
	}
}

// The single-query filter must take the same kernel traversal as the batch
// (FilterHits opens a kernel-fed session on the refnet backend), with the
// same counted reduction.
func TestRefnetKernelSingleQueryFewerFilterCalls(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 2200))
	db, qs := batchQueries(rng, 2)
	p := Params{Lambda: 8, Lambda0: 1}
	kernel, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	plainMeasure := dist.LevenshteinMeasure[byte]()
	plainMeasure.Prepare = nil
	plainMeasure.Bounded = nil
	plain, err := NewMatcher(plainMeasure, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1.5
	for _, q := range qs {
		got := kernel.FilterHits(q, eps)
		want := plain.FilterHits(q, eps)
		if len(got) != len(want) {
			t.Fatalf("kernel %d hits, per-probe %d", len(got), len(want))
		}
	}
	if kc, pc := kernel.FilterDistanceCalls(), plain.FilterDistanceCalls(); kc == 0 || kc >= pc {
		t.Fatalf("kernel counted %d filter evaluations, per-probe %d", kc, pc)
	}
}

// The shared prepared tables must be built exactly once per matcher and
// handed to every concurrent worker — per-worker state must not duplicate
// the immutable window preprocessing (the O(windows) memory claim).
func TestPreparedTablesSharedAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 2300))
	db, qs := batchQueries(rng, 6)
	p := Params{Lambda: 8, Lambda0: 1}
	mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				mt.FilterHitsBatch(qs, 1)
			}
		}()
	}
	wg.Wait()
	mt.preparedInit()
	if len(mt.prepared) != len(mt.windows) {
		t.Fatalf("prepared tables cover %d windows, want %d", len(mt.prepared), len(mt.windows))
	}
	for i, w := range mt.windows {
		pi := mt.preparedFor(w)
		if pi != mt.preparedAt(int32(i)) {
			t.Fatalf("window %d resolves to a different Prepared than the shared slot", i)
		}
		if pi.WindowLen() != len(w.Data) {
			t.Fatalf("window %d: Prepared length %d, window length %d", i, pi.WindowLen(), len(w.Data))
		}
	}
	// Slots are built once: resolving a window again returns the identical
	// Prepared, and a second init keeps the same slot array.
	slots := &mt.prepared[0]
	for i, w := range mt.windows {
		if mt.preparedFor(w) != mt.preparedAt(int32(i)) {
			t.Fatalf("window %d: second resolution built a new Prepared", i)
		}
	}
	mt.preparedInit()
	if &mt.prepared[0] != slots {
		t.Fatal("preparedInit rebuilt the slot array")
	}
}
