package core

import (
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

var benchMatches int

// BenchmarkNetFilterProteins times the layer the fig. 8 setting pays in:
// FindAll at ε = 2 on the reference net TestSessionWalkPinned pins (500
// protein windows under levenshtein-fast, λ = 40, λ0 = 1), over the same 40
// mutated 45-character queries in turn. The net's filter is most of a query
// there; filter-evals/op is the filter's counted kernel passes per query,
// which a change that only speeds the passes up must leave where it was.
// ns/op is one query.
//
//	go test -run '^$' -bench NetFilterProteins ./internal/core
func BenchmarkNetFilterProteins(b *testing.B) {
	ds := data.Proteins(500, 20, 1)
	mt, err := NewMatcher(dist.LevenshteinFastMeasure(), Config{Params: Params{Lambda: 40, Lambda0: 1}, Index: IndexRefNet}, ds.Sequences)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]seq.Sequence[byte], 40)
	for i := range qs {
		qs[i] = data.RandomQuery(ds, 45, 0.1, data.MutateAA, uint64(i+1))
	}
	for _, q := range qs { // builds the windows' kernel tables, as a warm server has
		mt.FindAll(q, 2)
	}
	before, n := mt.FilterDistanceCalls(), 0
	for b.Loop() {
		benchMatches += len(mt.FindAll(qs[n%len(qs)], 2))
		n++
	}
	b.ReportMetric(float64(mt.FilterDistanceCalls()-before)/float64(n), "filter-evals/op")
}
