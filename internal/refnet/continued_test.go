package refnet

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// Range reads at rising radii continue one traversal from the frontier the
// last read left. Seeded read programs run on one session — MinDist, then
// Range at a rising, an equal, a falling and again rising radii, integers
// and halves — with P = 1, 63, 64, 65 and 130 probes under an exact and a
// bounded evaluator. Every Range must give, for every probe, the set a fresh
// session's Range and a linear scan give (no item twice), and the program
// must count no more evaluations than the same reads each walked afresh on
// one session (a Range at a negative radius between two reads leaves nothing
// to continue; what it prices is not counted).
func TestSessionContinuedReads(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 7))
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
	var continued, fresh, grew, programs int
	for _, p := range []int{1, 63, 64, 65, 130} {
		for prog := 0; prog < 4; prog++ {
			qs := make([]stormPt, p)
			for i := range qs {
				qs[i] = stormPt{-1 - i, float64(rng.IntN(40)), float64(rng.IntN(40))}
				if i%3 == 0 {
					qs[i] = items[rng.IntN(len(items))]
				}
			}
			half := float64(rng.IntN(2)) / 2
			r := float64(rng.IntN(3))
			radii := []float64{r, r + 1 + half, r + 1 + half, r + half, r + 2, r + 4 + half, r + 7}
			for _, bounded := range []bool{false, true} {
				ev := &stormEval{t: t, dist: manhattan, qs: qs, bounded: bounded, known: map[[2]int]bool{}}
				s := n.OpenSession(qs, ev)
				s.MinDist(radii[len(radii)-1])
				last := 0
				for k, eps := range radii {
					got := s.Range(eps)
					fs := n.OpenSession(qs, nil)
					alone := fs.Range(eps)
					fs.Close()
					hits := 0
					for i, q := range qs {
						hits += len(got[i])
						w := scan(q, eps)
						if !slices.Equal(ids(got[i]), w) || !slices.Equal(ids(alone[i]), w) {
							t.Fatalf("P=%d bounded=%v program %v, read %d: Range(%v) probe %d = ids %v, a fresh session's %v, linear scan %v",
								p, bounded, radii, k, eps, i, ids(got[i]), ids(alone[i]), w)
						}
					}
					if k > 0 && radii[k] > radii[k-1] && hits > last {
						grew++
					}
					last = hits
				}
				s.Close()
				continued += ev.priced

				// The same program, every Range walked from the root.
				rv := &stormEval{t: t, dist: manhattan, qs: qs, bounded: bounded, known: map[[2]int]bool{}}
				rs := n.OpenSession(qs, rv)
				rs.MinDist(radii[len(radii)-1])
				for _, eps := range radii {
					before := rv.priced
					for _, l := range rs.Range(-1) {
						if len(l) != 0 {
							t.Fatalf("Range(-1) returned %v", ids(l))
						}
					}
					rv.priced = before
					rs.Range(eps)
				}
				rs.Close()
				if ev.priced > rv.priced {
					t.Fatalf("P=%d bounded=%v program %v: continued reads priced %d, each read afresh %d",
						p, bounded, radii, ev.priced, rv.priced)
				}
				fresh += rv.priced
				programs++
			}
		}
	}
	t.Logf("%d programs: %d evaluations continued, %d walked afresh; %d continued reads found more", programs, continued, fresh, grew)
	if grew == 0 || continued >= fresh {
		t.Fatalf("vacuous: %d continued reads found more, %d evaluations continued against %d afresh", grew, continued, fresh)
	}
}
