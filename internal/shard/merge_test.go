package shard

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
)

// randomMatches draws n matches with small coordinates so duplicates and
// near-ties occur.
func randomMatches(rng *rand.Rand, n int) []Match {
	ms := make([]Match, n)
	for i := range ms {
		qs := rng.IntN(8)
		xs := rng.IntN(16)
		ms[i] = Match{
			SeqID:  rng.IntN(6),
			QStart: qs, QEnd: qs + 1 + rng.IntN(8),
			XStart: xs, XEnd: xs + 1 + rng.IntN(8),
			Dist: float64(rng.IntN(20)) / 4,
		}
	}
	return ms
}

// sortMatches sorts by the engine's canonical order — the shared
// definition the merge itself imports. Stable, like the merge: coordinate
// duplicates keep their list order.
func sortMatches(ms []Match) {
	slices.SortStableFunc(ms, core.CanonicalCompare)
}

// kWayMerge is the reference MergeMatches is held to: repeatedly take the
// least head under the engine's canonical order, the lowest list first
// among equal heads.
func kWayMerge(lists [][]Match) []Match {
	pos := make([]int, len(lists))
	var out []Match
	for {
		best := -1
		for i, l := range lists {
			if pos[i] < len(l) && (best < 0 || core.CanonicalCompare(l[pos[i]], lists[best][pos[best]]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][pos[best]])
		pos[best]++
	}
}

func TestMergeMatchesEqualsGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.IntN(5)
		lists := make([][]Match, k)
		for i := range lists {
			lists[i] = randomMatches(rng, rng.IntN(12))
			sortMatches(lists[i])
		}
		want := kWayMerge(lists)
		got := MergeMatches(lists)
		if len(want) == 0 {
			if got == nil || len(got) != 0 {
				t.Fatalf("trial %d: empty input merged to %#v, want a non-nil empty list", trial, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merge differs from the k-way reference\n got %v\nwant %v", trial, got, want)
		}
	}
}

func TestMergeMatchesDisjointRangesIsConcatenation(t *testing.T) {
	// The Plan invariant: per-shard lists own disjoint ascending SeqID
	// ranges, so the merge must be the exact concatenation.
	a := []Match{{SeqID: 0, XStart: 5, XEnd: 9, QStart: 0, QEnd: 4, Dist: 1},
		{SeqID: 1, XStart: 0, XEnd: 3, QStart: 1, QEnd: 4, Dist: 0.5}}
	b := []Match{{SeqID: 2, XStart: 2, XEnd: 6, QStart: 0, QEnd: 4, Dist: 2}}
	c := []Match{{SeqID: 4, XStart: 1, XEnd: 5, QStart: 0, QEnd: 4, Dist: 0}}
	got := MergeMatches([][]Match{a, b, c})
	want := append(append(append([]Match{}, a...), b...), c...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge of disjoint ranges reordered:\n got %v\nwant %v", got, want)
	}
}

func TestMergeMatchesEmptyInputs(t *testing.T) {
	if got := MergeMatches(nil); len(got) != 0 {
		t.Fatalf("MergeMatches(nil) = %v", got)
	}
	if got := MergeMatches([][]Match{nil, {}, nil}); len(got) != 0 {
		t.Fatalf("MergeMatches(empties) = %v", got)
	}
}

func TestMergeHitsCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	lists := make([][]Hit, 3)
	var all []Hit
	for i := range lists {
		for j := 0; j < 10; j++ {
			h := Hit{SeqID: rng.IntN(4), WindowStart: rng.IntN(10), SegStart: rng.IntN(10)}
			h.WindowEnd = h.WindowStart + 4
			h.SegEnd = h.SegStart + 2 + rng.IntN(4)
			lists[i] = append(lists[i], h)
			all = append(all, h)
		}
	}
	got := MergeHits(lists)
	SortHits(all)
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("MergeHits differs from canonical sort\n got %v\nwant %v", got, all)
	}
	for i := 1; i < len(got); i++ {
		if compareHits(got[i], got[i-1]) < 0 {
			t.Fatalf("merged hits out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

func TestBestLongestDeterministic(t *testing.T) {
	longer := Match{SeqID: 3, QStart: 0, QEnd: 8, XStart: 0, XEnd: 8, Dist: 2}
	shorterCloser := Match{SeqID: 1, QStart: 0, QEnd: 6, XStart: 0, XEnd: 6, Dist: 0}
	tieLowSeq := Match{SeqID: 0, QStart: 0, QEnd: 8, XStart: 2, XEnd: 10, Dist: 2}

	if got := BestLongest([]*Match{&shorterCloser, &longer}); *got != longer {
		t.Fatalf("BestLongest preferred shorter match: %v", got)
	}
	// Equal QLen and Dist: canonical order (lowest SeqID) decides,
	// independent of argument order.
	for _, cands := range [][]*Match{{&longer, &tieLowSeq}, {&tieLowSeq, &longer}} {
		if got := BestLongest(cands); *got != tieLowSeq {
			t.Fatalf("BestLongest tie-break not canonical: %v", got)
		}
	}
	if got := BestLongest([]*Match{nil, nil}); got != nil {
		t.Fatalf("BestLongest of nils = %v", got)
	}
	if got := BestLongest(nil); got != nil {
		t.Fatalf("BestLongest(nil) = %v", got)
	}
}

func TestBestNearestDeterministic(t *testing.T) {
	near := Match{SeqID: 2, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 0.25}
	far := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 1}
	tie := Match{SeqID: 1, QStart: 0, QEnd: 4, XStart: 9, XEnd: 13, Dist: 0.25}
	if got := BestNearest([]*Match{&far, &near}); *got != near {
		t.Fatalf("BestNearest preferred farther match: %v", got)
	}
	for _, cands := range [][]*Match{{&near, &tie}, {&tie, &near}} {
		if got := BestNearest(cands); *got != tie {
			t.Fatalf("BestNearest tie-break not canonical: %v", got)
		}
	}
}

// The gateway's picks are the engine's orders applied to the candidate
// set: over random candidates with forced ties, BestLongest and BestNearest
// return exactly the minimum under core.LongestBefore / core.NearestBefore,
// whatever the arrival order.
func TestBestUsesEngineOrders(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 21))
	for trial := 0; trial < 200; trial++ {
		ms := randomMatches(rng, 1+rng.IntN(8))
		cands := make([]*Match, len(ms))
		for i := range ms {
			cands[i] = &ms[i]
		}
		for name, c := range map[string]struct {
			pick   func([]*Match) *Match
			before func(a, b Match) bool
		}{
			"longest": {BestLongest, core.LongestBefore},
			"nearest": {BestNearest, core.NearestBefore},
		} {
			want := ms[0]
			for _, m := range ms[1:] {
				if c.before(m, want) {
					want = m
				}
			}
			if got := c.pick(cands); *got != want {
				t.Fatalf("trial %d %s: picked %v, engine order picks %v", trial, name, *got, want)
			}
			slices.Reverse(cands)
			if got := c.pick(cands); c.before(want, *got) {
				t.Fatalf("trial %d %s: reversed arrival picked %v, which %v precedes", trial, name, *got, want)
			}
		}
	}
}

func TestBestByDoesNotAliasInput(t *testing.T) {
	m := Match{SeqID: 1, QStart: 0, QEnd: 4, Dist: 1}
	got := BestNearest([]*Match{&m})
	if got == &m {
		t.Fatal("BestNearest returned the caller's pointer")
	}
	got.Dist = 99
	if m.Dist != 1 {
		t.Fatal("mutating the result mutated the input")
	}
}
