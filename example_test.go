package subseq_test

import (
	"context"
	"fmt"

	subseq "repro"
)

// Building a matcher and answering a range query (Type I): every pair of
// similar subsequences within the radius, reported as (query span,
// database span, distance).
func ExampleNewMatcher() {
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("XXXXXXXXGREENEGGSANDHAMXXXXXXXXX"),
	}
	q := subseq.Sequence[byte]("IDONOTLIKEGREENEGGSANDHAMIAMSAM")
	matcher, err := subseq.NewMatcher(
		subseq.LevenshteinMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 12, Lambda0: 1}},
		db,
	)
	if err != nil {
		panic(err)
	}
	matches := matcher.FindAll(q, 0)
	longest := matches[0]
	for _, m := range matches {
		if m.QLen() > longest.QLen() {
			longest = m
		}
	}
	fmt.Printf("%d exact pairs; longest %q\n", len(matches), q[longest.QStart:longest.QEnd])
	// Output: 10 exact pairs; longest "GREENEGGSANDHAM"
}

// Answering a batch of queries on a worker pool: result i of each pool
// method is exactly the sequential answer for query i.
func ExampleNewQueryPool() {
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("AAAABBBBCCCCDDDDEEEEFFFF"),
		subseq.Sequence[byte]("XXXXCCCCDDDDEEEEYYYYZZZZ"),
	}
	matcher, err := subseq.NewMatcher(
		subseq.LevenshteinMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 8, Lambda0: 1}},
		db,
	)
	if err != nil {
		panic(err)
	}
	queries := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("PPPPCCCCDDDDEEEEQQQQ"),
		subseq.Sequence[byte]("MMMMAAAABBBBCCCCNNNN"),
	}
	pool := subseq.NewQueryPool(matcher, 2)
	matches, found := pool.Longest(queries, 0)
	for i := range queries {
		fmt.Printf("query %d: found=%v span=%d\n", i, found[i], matches[i].QLen())
	}
	// Output:
	// query 0: found=true span=12
	// query 1: found=true span=12
}

// Streaming queries through a pool: each submission returns a Future
// immediately, an idle worker answers it with a traversal of its own, and
// every future resolves to exactly the sequential answer. This is the
// serving shape behind `subseqctl serve`.
func ExampleQueryPool_Submit() {
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("AAAABBBBCCCCDDDDEEEEFFFF"),
		subseq.Sequence[byte]("XXXXCCCCDDDDEEEEYYYYZZZZ"),
	}
	matcher, err := subseq.NewMatcher(
		subseq.LevenshteinMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 8, Lambda0: 1}},
		db,
	)
	if err != nil {
		panic(err)
	}
	pool := subseq.NewQueryPool(matcher, 2, subseq.WithQueueDepth(64))
	defer pool.Close()

	ctx := context.Background()
	queries := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("PPPPCCCCDDDDEEEEQQQQ"),
		subseq.Sequence[byte]("MMMMAAAABBBBCCCCNNNN"),
	}
	futures := make([]*subseq.Future[[]subseq.Match], len(queries))
	for i, q := range queries {
		futures[i] = pool.Submit(ctx, q, 0) // Type I, streamed
	}
	for i, f := range futures {
		matches, err := f.Await(ctx)
		if err != nil {
			panic(err)
		}
		longest := 0
		for _, m := range matches {
			if m.QLen() > longest {
				longest = m.QLen()
			}
		}
		fmt.Printf("query %d: %d pairs, longest span %d\n", i, len(matches), longest)
	}
	// Output:
	// query 0: 30 pairs, longest span 12
	// query 1: 15 pairs, longest span 12
}

// The longest similar subsequence (query Type II): the query and the
// database sequence disagree globally but share a long local region.
func ExampleMatcher_longest() {
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("NNNNNNNNTHECATSATONTHEMATNNNNNNN"),
	}
	q := subseq.Sequence[byte]("ZZZZTHECATSATONTHEMATZZZZ")
	matcher, err := subseq.NewMatcher(
		subseq.LevenshteinMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 8, Lambda0: 1}},
		db,
	)
	if err != nil {
		panic(err)
	}
	m, _ := matcher.Longest(q, 0)
	fmt.Printf("%s\n", q[m.QStart:m.QEnd])
	// Output: THECATSATONTHEMAT
}

// The reference net as a standalone metric index over scalar data: a range
// query, then a session — a probe set held open on the net — read for the
// least probe-to-item distance and for the items within a radius of each
// probe. This is the shape of the framework's Type III query.
func ExampleRefNet() {
	net := subseq.NewRefNet(subseq.AbsDiff)
	for _, v := range []float64{1, 2, 3, 10, 11, 30} {
		net.Insert(v)
	}
	fmt.Println(len(net.Range(2, 1))) // everything within 1 of 2

	// A nil evaluator prices the probes with the net's own distance.
	s := net.OpenSession([]float64{12, 25}, nil)
	defer s.Close()
	fmt.Println(s.MinDist(10)) // least distance from 12 or 25, if within 10
	hits := s.Range(2)
	fmt.Println(len(hits[0]), len(hits[1]))
	// Output:
	// 3
	// 1
	// 2 0
}

// Vetting a distance's consistency claim (Definition 1 of the paper) on a
// small pair before NewMatcher trusts it: every subsequence of X needs a
// counterpart in Q at no greater distance than δ(Q,X). The discrete Fréchet
// distance passes; a distance that punishes short inputs does not, and the
// witness names the subsequence X[XStart:XEnd) that breaks it.
func ExampleFindInconsistency() {
	q := []float64{1, 2, 3, 4, 5}
	x := []float64{1, 2, 2, 4, 5}
	dfd := subseq.DiscreteFrechetMeasure(subseq.AbsDiff).Fn
	_, bad := subseq.FindInconsistency(dfd, q, x, 1e-9)
	fmt.Println(bad)
	short := func(a, b []float64) float64 { return float64(10 - min(len(a), len(b))) }
	w, bad := subseq.FindInconsistency(short, q, x, 1e-9)
	fmt.Println(bad, w.XStart, w.XEnd, w.Best, w.Base)
	// Output:
	// false
	// true 0 1 9 5
}
