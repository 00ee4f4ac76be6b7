package core

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// VerifyDistanceCalls counts one evaluation per pass — a pass is one DP over
// its start pair's longest candidate, however many ends it prices — and,
// for a measure without an incremental kernel, one per Fn call the adapter
// kernel makes, which is one per distinct candidate: no call the per-pair
// enumeration did not make.
func TestVerifyDistanceCallsCountsPasses(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	rng := rand.New(rand.NewPCG(4, 1100))
	db, q := randStrings(rng, 3, 60, 20, 8, false)
	const eps = 1

	// distinct counts the start pairs and the candidates of the hits'
	// regions: the (qs, qe, xs, xe) of a region's box with both lengths at
	// least λ and at most λ0 apart.
	distinct := func(v *verifier[byte], hits []Hit[byte]) (starts, pairs int) {
		seenStart, seenPair := map[[3]int]bool{}, map[[5]int]bool{}
		for _, h := range hits {
			r := v.hitRegion(q, h)
			for qs := r.qsMin; qs <= r.qsMax; qs++ {
				for qe := r.qeMin; qe <= r.qeMax; qe++ {
					for xs := r.xsMin; xs <= r.xsMax; xs++ {
						for xe := r.xeMin; xe <= r.xeMax; xe++ {
							if ql, xl := qe-qs, xe-xs; ql >= p.Lambda && xl >= p.Lambda && max(ql-xl, xl-ql) <= p.Lambda0 {
								seenStart[[3]int{r.seqID, qs, xs}] = true
								seenPair[[5]int{r.seqID, qs, qe, xs, xe}] = true
							}
						}
					}
				}
			}
		}
		return len(seenStart), len(seenPair)
	}

	mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	hits := mt.FilterHits(q, eps)
	starts, pairs := distinct(mt.verifier, hits)
	if starts == 0 || starts == pairs {
		t.Fatalf("degenerate case: %d start pairs over %d candidates", starts, pairs)
	}
	var c cost
	mt.verifier.verifyAll(q, hits, eps, &c)
	if got := c.verify; got != int64(starts) {
		t.Errorf("kernel measure: verifyAll counted %d, want one per pass = %d (candidates: %d)", got, starts, pairs)
	}

	var fnCalls atomic.Int64
	lev := dist.Levenshtein[byte]()
	plain := dist.Measure[byte]{
		Name:  "levenshtein-plain",
		Fn:    func(a, b []byte) float64 { fnCalls.Add(1); return lev(a, b) },
		Props: dist.Properties{Consistent: true, Metric: true},
	}
	mt, err = NewMatcher(plain, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	hits = mt.FilterHits(q, eps)
	_, pairs = distinct(mt.verifier, hits)
	c = cost{}
	fnBefore := fnCalls.Load()
	mt.verifier.verifyAll(q, hits, eps, &c)
	got, fn := c.verify, fnCalls.Load()-fnBefore
	if got != fn || got != int64(pairs) {
		t.Errorf("adapter: verifyAll counted %d over %d Fn calls, want one per candidate = %d", got, fn, pairs)
	}
}

// Matcher queries are documented as safe for concurrent use; exercise
// that with parallel queries over a shared matcher (run with -race in CI
// to make this decisive).
func TestMatcherConcurrentQueries(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(7, 2100))
	db, _ := randStrings(rng, 3, 40, 20, 8, true)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]seq.Sequence[byte], 8)
	for i := range queries {
		_, queries[i] = randStrings(rng, 1, 30, 20, 7, true)
	}
	ref := make([][]Match, len(queries))
	for i, q := range queries {
		ref[i] = mt.FindAll(q, 1.5)
	}
	done := make(chan error, len(queries))
	for i, q := range queries {
		go func(i int, q seq.Sequence[byte]) {
			got := mt.FindAll(q, 1.5)
			if len(got) != len(ref[i]) {
				done <- errMismatch
				return
			}
			for j := range got {
				if got[j] != ref[i][j] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(i, q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query result differs from sequential" }
