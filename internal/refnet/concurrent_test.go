package refnet

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// Read-only queries on a built net are documented as safe for concurrent
// use (no mutation happens during Range or a session's MinDist). Exercise
// that contract; run with -race for a decisive check.
func TestConcurrentReadQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	n := New(absDist)
	var items []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		items = append(items, v)
		n.Insert(v)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 1))
			for i := 0; i < 50; i++ {
				q := r.Float64() * 100
				eps := r.Float64() * 10
				got := sortedRange(n, q, eps)
				want := sortedScan(items, q, eps)
				if !equalFloats(got, want) {
					errs <- "range mismatch under concurrency"
					return
				}
				least := math.Inf(1)
				for _, v := range items {
					least = min(least, absDist(q, v))
				}
				if minDist(n, q, eps+least) != least {
					errs <- "MinDist mismatch under concurrency"
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
