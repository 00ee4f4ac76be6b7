package core

import (
	"math/rand/v2"
	"sync"
	"testing"

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
		kernel.ResetFilterCalls()
		plain.ResetFilterCalls()
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
		kc, pc := kernel.FilterDistanceCalls(), plain.FilterDistanceCalls()
		if kc == 0 || pc == 0 {
			t.Fatalf("eps=%v: vacuous counts (kernel %d, per-probe %d)", eps, kc, pc)
		}
		if kc >= pc {
			t.Fatalf("eps=%v: kernel traversal counted %d filter evaluations, per-probe %d — no reduction", eps, kc, pc)
		}
	}
}

// The single-query filter must take the same kernel traversal as the batch
// (FilterHits routes through BatchRangeEval on the refnet backend), with
// the same counted reduction.
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
	kernel.ResetFilterCalls()
	plain.ResetFilterCalls()
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

// The kernel evaluator must price mixed groups correctly even when probes
// arrive interleaved and partially decided: compare a refnet kernel
// traversal against the brute linear filter on a measure with distinct
// per-length distances (ERP, whose prefix distances vary smoothly).
func TestKernelTraversalERPMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 2900))
	mkSeq := func(n int) seq.Sequence[float64] {
		s := make(seq.Sequence[float64], n)
		for i := range s {
			s[i] = rng.Float64() * 4
		}
		return s
	}
	db := []seq.Sequence[float64]{mkSeq(60), mkSeq(60), mkSeq(60)}
	q := mkSeq(24)
	p := Params{Lambda: 8, Lambda0: 2}
	m := dist.ERPMeasure(dist.AbsDiff, 0)
	net, err := NewMatcher(m, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewMatcher(m, Config{Params: p, Index: IndexLinearScan}, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 1.5, 3} {
		got := net.FilterHits(q, eps)
		want := lin.FilterHits(q, eps)
		gotSet := map[string]bool{}
		for _, h := range got {
			gotSet[h.Window.String()+h.Segment.String()] = true
		}
		if len(got) != len(want) {
			t.Fatalf("eps=%v: refnet kernel %d hits, linear %d", eps, len(got), len(want))
		}
		for _, h := range want {
			if !gotSet[h.Window.String()+h.Segment.String()] {
				t.Fatalf("eps=%v: linear hit %v/%v missing from refnet kernel results", eps, h.Window, h.Segment)
			}
		}
	}
}
