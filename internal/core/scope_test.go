package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// sortedHits renders hits as comparable keys in one order: the backends emit
// filter hits in their own traversal order, so hit lists compare as sets.
func sortedHits[E any](hs []Hit[E]) [][4]int {
	out := make([][4]int, len(hs))
	for i, h := range hs {
		out[i] = [4]int{h.Window.SeqID, h.Window.Start, h.Segment.Start, h.Segment.End()}
	}
	slices.SortFunc(out, func(a, b [4]int) int { return slices.Compare(a[:], b[:]) })
	return out
}

// TestScopedQueriesMatchAMatcherOverThoseSequences: FindAllIn, LongestIn and
// FilterHitsIn over a set of sequence IDs answer exactly what a matcher
// built over those sequences alone answers (the others left empty, so the
// IDs stay), on every backend, on a lived-in matcher (an append and, where
// the backend retires, a retire), for the kernel scan (λ0 > 0) and the
// pairwise path (λ0 = 0). The IDs come unsorted, repeated, retired and out
// of range. A scoped query builds nothing and its evaluations count.
func TestScopedQueriesMatchAMatcherOverThoseSequences(t *testing.T) {
	lev := dist.LevenshteinMeasure[byte]()
	answered := 0
	for _, p := range []Params{{Lambda: 6, Lambda0: 1}, {Lambda: 6, Lambda0: 0}} {
		for _, backend := range allBackends {
			rng := rand.New(rand.NewPCG(53, uint64(backend)))
			db, _ := randStrings(rng, 6, 40, 0, 0, false)
			cfg := Config{Params: p, Index: backend}
			mt, err := NewMatcher(lev, cfg, append([]seq.Sequence[byte](nil), db...))
			if err != nil {
				t.Fatal(err)
			}
			// The copy of sequence 2 gives every query on it a second home.
			if _, _, err := mt.AppendSequence(db[2]); err != nil {
				t.Fatal(err)
			}
			if backend != IndexCoverTree {
				if _, err := mt.RetireSequence(4); err != nil {
					t.Fatal(err)
				}
			}
			scopes := [][]int{{6}, {2, 6}, {6, 2, 2}, {0, 4, 99, -1}, {5, 3, 1}, {}, {4}}
			for qi := 0; qi < 6; qi++ {
				src := db[qi%3*2]
				q := append(seq.Sequence[byte](nil), src[5:19]...)
				if qi%2 == 1 {
					q[7] = 'D'
				}
				for _, scope := range scopes {
					only := make([]seq.Sequence[byte], len(mt.DB()))
					for _, id := range scope {
						if id >= 0 && id < len(only) {
							only[id] = mt.DB()[id]
						}
					}
					ref, err := NewMatcher(lev, cfg, only)
					if err != nil && backend == IndexMV {
						continue // MV needs a window to build over
					} else if err != nil {
						t.Fatal(err)
					}
					label := func(kind string) string {
						return backend.String() + " λ0=" + string(rune('0'+p.Lambda0)) + " " + kind
					}
					const eps = 2.0
					built, filtered := mt.BuildDistanceCalls(), mt.FilterDistanceCalls()
					want := ref.FindAll(q, eps)
					sameMatches(t, label("findall"), mt.FindAllIn(q, eps, scope), want)
					answered += min(len(want), 1)
					gm, gok := mt.LongestIn(q, eps, scope)
					wm, wok := ref.Longest(q, eps)
					if gok != wok || gm != wm {
						t.Fatalf("%s %v: LongestIn %v/%v, want %v/%v", label("longest"), scope, gm, gok, wm, wok)
					}
					if got, want := sortedHits(mt.FilterHitsIn(q, eps, scope)), sortedHits(ref.FilterHits(q, eps)); !slices.Equal(got, want) {
						t.Fatalf("%s %v: FilterHitsIn %v, want %v", label("filter"), scope, got, want)
					}
					if mt.BuildDistanceCalls() != built {
						t.Fatalf("%s: a scoped query computed build distances", label("build"))
					}
					if len(ref.FilterHits(q, 1e9)) > 0 && mt.FilterDistanceCalls() == filtered {
						t.Fatalf("%s %v: scoped queries counted no filter evaluations", label("accounting"), scope)
					}
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("no scoped findall found a match: the check compared empty answers only")
	}
}

// The pool's SubmitFunc runs a scoped query like any other: the future
// resolves to the matcher call's own answer.
func TestSubmitFuncRunsScopedQueries(t *testing.T) {
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(7, 53))
	db, q := randStrings(rng, 4, 40, 16, 8, false)
	mt, err := NewMatcher(lev, Config{Params: Params{Lambda: 6, Lambda0: 1}}, db)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewQueryPool(mt, 2)
	defer pool.Close()
	for id := range db {
		got, err := SubmitFunc(pool, t.Context(), func(mt *Matcher[byte]) []Match {
			return mt.FindAllIn(q, 1, []int{id})
		}).Await(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "pooled FindAllIn", got, mt.FindAllIn(q, 1, []int{id}))
	}
}
