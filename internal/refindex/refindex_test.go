package refindex

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/metric"
)

func absDist(a, b float64) float64 { return math.Abs(a - b) }

func sortedScan(items []float64, q, eps float64) []float64 {
	var out []float64
	for _, v := range items {
		if absDist(q, v) <= eps {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

func buildUniform(t *testing.T, n, k int) (*Index[float64], []float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(41, 42))
	items := make([]float64, n)
	for i := range items {
		items[i] = rng.Float64() * 1000
	}
	idx, err := Build(items, k, absDist, Options{Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, items
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]float64{1}, 0, absDist, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Build(nil, 3, absDist, Options{}); err == nil {
		t.Error("empty items accepted")
	}
	// k larger than the dataset is clamped, not an error.
	idx, err := Build([]float64{1, 2}, 10, absDist, Options{})
	if err != nil {
		t.Fatalf("clamped k: %v", err)
	}
	if idx.K() > 2 {
		t.Errorf("K = %d, want ≤ 2", idx.K())
	}
}

func TestRangeMatchesLinearScan(t *testing.T) {
	idx, items := buildUniform(t, 500, 5)
	rng := rand.New(rand.NewPCG(43, 44))
	for _, eps := range []float64{0, 1, 10, 100, 1500} {
		for trial := 0; trial < 20; trial++ {
			q := rng.Float64() * 1000
			got := idx.Range(q, eps)
			sort.Float64s(got)
			want := sortedScan(items, q, eps)
			if len(got) != len(want) {
				t.Fatalf("eps=%v q=%v: got %d, want %d", eps, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("eps=%v q=%v: result sets differ", eps, q)
				}
			}
		}
	}
}

func TestMoreReferencesPruneMore(t *testing.T) {
	// With the same data, MV-20's bounds must decide at least as many
	// items as MV-2's, i.e. it computes no more ITEM distances (each
	// query additionally pays k reference distances up front — the very
	// overhead that makes MV-50 lose at large ranges in Figure 8).
	rng := rand.New(rand.NewPCG(45, 46))
	items := make([]float64, 1000)
	for i := range items {
		items[i] = rng.Float64() * 1000
	}
	const numQueries = 10
	itemCalls := func(k int) int64 {
		counter := metric.NewCounter(absDist)
		idx, err := Build(items, k, counter.Distance, Options{Seed: 7})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		counter.Reset()
		for q := 0.0; q < 1000; q += 1000 / numQueries {
			idx.Range(q, 5)
		}
		return counter.Calls() - int64(k*numQueries)
	}
	few, many := itemCalls(2), itemCalls(20)
	if many > few {
		t.Errorf("MV-20 computed %d item distances, MV-2 computed %d; more references should not prune less", many, few)
	}
}

func TestTableBytes(t *testing.T) {
	idx, _ := buildUniform(t, 100, 5)
	if got := idx.TableBytes(); got != 100*5*8 {
		t.Errorf("TableBytes = %d, want %d", got, 100*5*8)
	}
	if idx.Len() != 100 {
		t.Errorf("Len = %d", idx.Len())
	}
	if len(idx.References()) != 5 {
		t.Errorf("References = %d", len(idx.References()))
	}
}

func TestQueryCostIsBounded(t *testing.T) {
	// Each range query costs at most k + n distance computations.
	rng := rand.New(rand.NewPCG(47, 48))
	items := make([]float64, 400)
	for i := range items {
		items[i] = rng.Float64() * 100
	}
	counter := metric.NewCounter(absDist)
	idx, err := Build(items, 5, counter.Distance, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counter.Reset()
	idx.Range(50, 1)
	if calls := counter.Calls(); calls > int64(len(items)+5) {
		t.Errorf("query cost %d exceeds n+k", calls)
	}
	// And pruning should beat the naive n for a small radius.
	if calls := counter.Calls(); calls >= int64(len(items)) {
		t.Errorf("query computed %d distances; no pruning at all", calls)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	items := make([]float64, 200)
	rng := rand.New(rand.NewPCG(49, 50))
	for i := range items {
		items[i] = rng.Float64() * 100
	}
	a, err := Build(items, 4, absDist, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(items, 4, absDist, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.References() {
		if a.References()[i] != b.References()[i] {
			t.Fatal("same seed produced different references")
		}
	}
}

// Pool workers query one MV index at the same time; Range must be a pure
// read. Run under -race (the CI list) for the decisive check.
func TestConcurrentReadQueries(t *testing.T) {
	idx, items := buildUniform(t, 500, 5)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 1))
			for i := 0; i < 50; i++ {
				q, eps := r.Float64()*1000, r.Float64()*50
				got := idx.Range(q, eps)
				sort.Float64s(got)
				if !slices.Equal(got, sortedScan(items, q, eps)) {
					errs <- "range mismatch under concurrency"
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
