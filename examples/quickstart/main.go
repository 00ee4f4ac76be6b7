// Quickstart: find similar subsequences between a query string and a tiny
// database under the Levenshtein distance, exercising all three query
// types of the paper (range, longest, nearest). The measure is resolved by
// name through the registry — swap the string for any measure
// `subseqctl list` prints (e.g. "weighted-edit", "protein-edit") to rerun
// the same program under a different distance.
package main

import (
	"fmt"
	"log"

	subseq "repro"
	"repro/registry"
)

func main() {
	// A database of three sequences. The second one shares the region
	// "GREENEGGSANDHAM" with the query, up to one substitution.
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("THEQUICKBROWNFOXJUMPSOVERTHELAZYDOG"),
		subseq.Sequence[byte]("XXXXGREENEGGSANDHAMXXXXXXXXXXXXXXXX"),
		subseq.Sequence[byte]("LOREMIPSUMDOLORSITAMETCONSECTETURAD"),
	}
	query := subseq.Sequence[byte]("IDONOTLIKEGREENEGGSANDHAMIAMSAM")

	// λ = 8: matches must span at least 8 characters; windows are λ/2 = 4.
	// λ0 = 1: matched subsequences may differ in length by at most 1.
	measure, err := registry.Measure[byte]("levenshtein")
	if err != nil {
		log.Fatal(err)
	}
	matcher, err := subseq.NewMatcher(
		measure,
		subseq.Config{Params: subseq.Params{Lambda: 8, Lambda0: 1}},
		db,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d windows from %d sequences\n\n", matcher.NumWindows(), len(db))

	// Type II: the longest similar subsequence pair within distance 1.
	if m, ok := matcher.Longest(query, 1); ok {
		fmt.Printf("longest match within distance 1:\n")
		fmt.Printf("  query   [%d:%d] %q\n", m.QStart, m.QEnd, query[m.QStart:m.QEnd])
		fmt.Printf("  db[%d]   [%d:%d] %q\n", m.SeqID, m.XStart, m.XEnd, db[m.SeqID][m.XStart:m.XEnd])
		fmt.Printf("  distance %.0f\n\n", m.Dist)
	}

	// Type III: the closest pair of subsequences, searched with growing
	// radius up to 6.
	if m, ok := matcher.Nearest(query, subseq.NearestOptions{EpsMax: 6, EpsInc: 1}); ok {
		fmt.Printf("nearest pair: %v\n", m)
		fmt.Printf("  %q ~ %q\n\n", query[m.QStart:m.QEnd], db[m.SeqID][m.XStart:m.XEnd])
	}

	// Type I: every similar pair at distance 0 (exact repeats). The paper
	// notes this query type returns many overlapping results by the
	// consistency property.
	all := matcher.FindAll(query, 0)
	fmt.Printf("type I found %d exact pairs of length ≥ 8 (overlapping variants included)\n", len(all))

	// Accounting: the filter's distance computations vs a naive scan.
	fmt.Printf("\nindex build distance calls: %d\n", matcher.BuildDistanceCalls())
	fmt.Printf("query filter distance calls: %d\n", matcher.FilterDistanceCalls())
	fmt.Printf("verification passes (one DP per start pair): %d\n", matcher.VerifyDistanceCalls())
}
