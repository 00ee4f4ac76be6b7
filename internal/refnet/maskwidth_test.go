package refnet

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// A session keeps one bit per probe in masks of ⌈P/64⌉ words. Probe counts
// on either side of a word boundary must read exactly as a linear scan does,
// for every probe — the last one of a partial word included — under an exact
// and a bounded evaluator (stormEval also fails on a pair priced twice or on
// idxs out of order). The widths run up and then down again, so a session
// the pool hands back after a wider one is read too.
func TestSessionMaskWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewPCG(3203, 64))
	n := New(manhattan, WithBase(0.75))
	var items []stormPt
	for i := 0; i < 300; i++ {
		it := stormPt{i, float64(rng.IntN(40)), float64(rng.IntN(40))}
		items = append(items, it)
		n.Insert(it)
	}
	scan := func(q stormPt, eps float64) []int {
		var want []stormPt
		for _, it := range items {
			if manhattan(q, it) <= eps {
				want = append(want, it)
			}
		}
		return ids(want)
	}
	widths := []int{1, 63, 64, 65, 128, 130}
	for _, p := range append(widths, 128, 65, 64, 63, 1) {
		// Every third probe, and the last, sits on an item, so the high bits
		// of a partial word carry hits.
		qs := make([]stormPt, p)
		for i := range qs {
			qs[i] = stormPt{-1 - i, float64(rng.IntN(40)), float64(rng.IntN(40))}
			if i%3 == 0 || i == p-1 {
				qs[i] = items[rng.IntN(len(items))]
			}
		}
		least := math.Inf(1)
		for _, q := range qs {
			for _, it := range items {
				least = min(least, manhattan(q, it))
			}
		}
		for _, bounded := range []bool{false, true} {
			ev := &stormEval{t: t, dist: manhattan, qs: qs, bounded: bounded, known: map[[2]int]bool{}}
			s := n.OpenSession(qs, ev)
			if got := s.MinDist(least + 2); got != least {
				t.Fatalf("P=%d bounded=%v: MinDist = %v, linear scan %v", p, bounded, got, least)
			}
			lastHits := 0
			for _, eps := range []float64{0, 2, 5} {
				got := s.Range(eps)
				if len(got) != p {
					t.Fatalf("P=%d: Range returned %d result lists", p, len(got))
				}
				for i, q := range qs {
					if w := scan(q, eps); !slices.Equal(ids(got[i]), w) {
						t.Fatalf("P=%d bounded=%v Range(%v) probe %d = ids %v, linear scan %v",
							p, bounded, eps, i, ids(got[i]), w)
					}
				}
				lastHits += len(got[p-1])
			}
			s.Close()
			if lastHits == 0 {
				t.Fatalf("P=%d: vacuous, the last probe found nothing", p)
			}
		}
	}
}
