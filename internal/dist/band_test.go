package dist

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/seq"
)

// bandFeed names how a banded pass is fed.
type bandFeed uint8

const (
	// bandPlain feeds elements: Feed, or FeedFree.
	bandPlain bandFeed = iota
	// bandRowNaN feeds rows priced over Span alone, NaN elsewhere: a read
	// outside the span that decides a cell turns it over the radius.
	bandRowNaN
	// bandRowZero is bandRowNaN with 0 elsewhere: such a read would pull a
	// cell under its exact value.
	bandRowZero
	bandFeeds
)

func (f bandFeed) String() string { return [...]string{"Feed", "FeedRow/NaN", "FeedRow/0"}[f] }

// bandedAsUnbanded holds a banded reading got to the unbanded one want at
// radius r: the same bits when want ≤ r, else over r and no greater than
// want.
func bandedAsUnbanded(got, want, r float64) bool {
	if want <= r {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return got > r && got <= want
}

// sameBand rewinds ref and k, both bound to p's window, bands k at r and
// feeds q to both, ref unbanded through Feed (FeedFree when free) and k as
// feed says. After every feed it holds every cell of k, its Feed result and
// its Floor to ref's (bandedAsUnbanded), and every Floor decision at a
// radius r' ≤ r — r itself and every cell value of ref's row up to r, where
// a tie is decided — to ref's: that covers a radius that shrinks during
// the pass, as Type III's does.
func sameBand[E any](t *testing.T, what string, p Prepared[E], ref, k Kernel[E], q []E, r float64, feed bandFeed, free bool) {
	t.Helper()
	n := p.WindowLen()
	cr := p.(CostRower[E])
	ref.Reset()
	k.Reset()
	rk := k.(RowKernel[E])
	rk.Within(r)
	row := make([]float64, n)
	fail := func(i int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (|w|=%d, r %v, %v, free %v) after %d feeds: "+format+" (q %v)",
			append([]any{what, n, r, feed, free, i}, append(args, q)...)...)
	}
	for i, x := range q {
		var got, want float64
		if free {
			want = ref.(FreeStartKernel[E]).FeedFree(x)
		} else {
			want = ref.Feed(x)
		}
		switch feed {
		case bandPlain:
			if free {
				got = rk.FeedFree(x)
			} else {
				got = k.Feed(x)
			}
		default:
			fill := math.NaN()
			if feed == bandRowZero {
				fill = 0
			}
			for j := range row {
				row[j] = fill
			}
			lo, hi := rk.Span()
			cr.CostSpan(x, row, lo, hi)
			if free {
				got = rk.FeedFreeRow(row, cr.Indel(x))
			} else {
				got = rk.FeedRow(row, cr.Indel(x))
			}
		}
		if !bandedAsUnbanded(got, want, r) {
			fail(i+1, "banded feed returned %v, unbanded %v", got, want)
		}
		for j := 0; j <= n; j++ {
			if g, w := k.At(j), ref.At(j); !bandedAsUnbanded(g, w, r) {
				fail(i+1, "banded At(%d) = %v, unbanded %v", j, g, w)
			}
		}
		fg, fw := k.Floor(), ref.Floor()
		if !bandedAsUnbanded(fg, fw, r) {
			fail(i+1, "banded Floor %v, unbanded %v", fg, fw)
		}
		for j := 0; j <= n+1; j++ {
			rr := r
			if j <= n {
				if rr = ref.At(j); rr > r {
					continue
				}
			}
			if (fg > rr) != (fw > rr) {
				fail(i+1, "Floor > %v decided %v banded, %v unbanded (floors %v, %v)", rr, fg > rr, fw > rr, fg, fw)
			}
		}
	}
}

// cellsOf returns every cell value, sorted, of the unbanded table of q
// against p's window.
func cellsOf[E any](p Prepared[E], q []E, free bool) []float64 {
	k := p.NewState().(FreeStartKernel[E])
	var vals []float64
	for _, x := range q {
		if free {
			k.FeedFree(x)
		} else {
			k.Feed(x)
		}
		for j := 0; j <= p.WindowLen(); j++ {
			vals = append(vals, k.At(j))
		}
	}
	slices.Sort(vals)
	return vals
}

// radiiOf returns radii for a pass of q against p's window: 0, +Inf and a
// spread of the unbanded table's own cell values, where ties with a cell are.
func radiiOf[E any](p Prepared[E], q []E, free bool) []float64 {
	vals := cellsOf(p, q, free)
	rs := []float64{0, math.Inf(1)}
	for i := 0; i < len(vals); i += max(1, len(vals)/6) {
		rs = append(rs, vals[i])
	}
	return rs
}

// nearby is w with about one element in four replaced by a random one and
// up to a quarter cut from its start: a query that matches w closely, whose
// band runs near the diagonal, as a verifier's passes over true candidates
// do.
func nearby[E any](rng *rand.Rand, w []E, gen func(*rand.Rand, int) []E) []E {
	q := slices.Clone(w)
	for i := range q {
		if rng.IntN(4) == 0 {
			q[i] = gen(rng, 1)[0]
		}
	}
	if len(q) > 0 {
		q = q[rng.IntN(len(q)/4+1):]
	}
	return q
}

// checkBand holds banded passes to unbanded ones at every radius radiiOf
// draws, through every way to feed them, in both modes, on states minted,
// rewound, rebound and bound to tables reprepared in place.
func checkBand[E any](t *testing.T, m Measure[E], gen func(*rand.Rand, int) []E, wLens []int, qLen int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(71, uint64(len(wLens))))
	var owned Prepared[E]
	var ref, k, oref, ok Kernel[E]
	for _, n := range wLens {
		w := gen(rng, n)
		p := m.Prepare(w)
		ref, k = BindKernel(ref, p), BindKernel(k, p)
		owned = m.Reprepare(owned, w)
		oref, ok = BindKernel(oref, owned), BindKernel(ok, owned)
		for _, q := range [][]E{gen(rng, qLen), nearby(rng, w, gen)} {
			for _, free := range []bool{false, true} {
				for _, r := range radiiOf(p, q, free) {
					for feed := range bandFeeds {
						sameBand(t, m.Name, p, ref, k, q, r, feed, free)
						sameBand(t, m.Name+" reprepared", owned, oref, ok, q, r, feed, free)
					}
				}
			}
		}
	}
}

// A banded pass (RowKernel.Within), which the verifier runs at its radius, reads
// every cell within the radius by its bits and decides every Floor test
// under it as the unbanded pass, on every edit-row measure in the catalog.
func TestBandMatchesUnbanded(t *testing.T) {
	lens := append(slices.Clone(shortLens), 24)
	checkBand(t, ERPMeasure(AbsDiff, 0), levels, lens, 14)
	checkBand(t, ERPMeasure(Point2Dist, seq.Point2{}), points, lens, 14)
	checkBand(t, LevenshteinMeasure[byte](), letters("AB"), lens, 14)
	checkBand(t, LevenshteinMeasure[float64](), levels, lens, 14)
	checkBand(t, WeightedEditMeasure(), letters("ABC"), lens, 14)
	checkBand(t, ProteinEditMeasure(), letters(aminoAcids+"BZ"), lens, 14)
}

// The band holds until the next Reset or Rebind: after either the state is
// unbanded again, every cell and Floor equal to a fresh state's by bits.
func TestBandEndsAtResetAndRebind(t *testing.T) {
	m := ERPMeasure(Point2Dist, seq.Point2{})
	rng := rand.New(rand.NewPCG(73, 7300))
	w, w2 := points(rng, 9), points(rng, 7)
	q := nearby(rng, w, points)
	check := func(what string, k Kernel[seq.Point2], p Prepared[seq.Point2]) {
		t.Helper()
		if lo, hi := k.(RowKernel[seq.Point2]).Span(); lo != 0 || hi != p.WindowLen() {
			t.Fatalf("%s: Span [%d, %d), want the whole row [0, %d)", what, lo, hi, p.WindowLen())
		}
		fresh := p.NewState()
		for i, x := range q {
			k.Feed(x)
			fresh.Feed(x)
			for j := 0; j <= p.WindowLen(); j++ {
				if g, w := k.At(j), fresh.At(j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: At(%d) after %d feeds = %v, fresh state %v", what, j, i+1, g, w)
				}
			}
			if g, w := k.Floor(), fresh.Floor(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: Floor after %d feeds = %v, fresh state %v", what, i+1, g, w)
			}
		}
	}
	p := m.Prepare(w)
	k := p.NewState()
	band := func() {
		k.(RowKernel[seq.Point2]).Within(0.5)
		k.Feed(q[0])
		if k.At(p.WindowLen()) <= 0.5 {
			t.Fatalf("vacuous: the banded pass has its last cell within its radius")
		}
	}
	band()
	k.Reset()
	check("after Reset", k, p)
	k.Reset()
	band()
	p2 := m.Prepare(w2)
	if BindKernel(k, p2) != k {
		t.Fatal("the state was not rebound in place")
	}
	check("after Rebind", k, p2)
}

// FuzzBandMatchesUnbanded is TestBandMatchesUnbanded over inputs nobody
// chose: the measure, the mode, the way of feeding and whether the window
// is reprepared in place are drawn from which; the radii are rb/4, the
// unbanded table's cell that rb picks (a tie) and 0.
func FuzzBandMatchesUnbanded(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(2), uint8(12))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(32), uint8(3))
	f.Add([]byte{8, 9, 16, 17, 24, 23, 30, 32}, []byte{8, 8, 16, 16, 24, 24, 32, 32}, uint8(67), uint8(40))
	f.Add([]byte{1, 2, 3, 4, 250, 5, 6}, []byte{1, 2, 3, 4, 5, 6}, uint8(4+8+16), uint8(9))
	f.Fuzz(func(t *testing.T, q, w []byte, which, rb uint8) {
		if len(q) > 48 {
			q = q[:48]
		}
		if len(w) > 64 {
			w = w[:64]
		}
		free, reprepare, feed := which&8 != 0, which&16 != 0, bandFeed(which>>5)%bandFeeds
		switch which % 6 {
		case 0:
			fuzzBand(t, LevenshteinMeasure[byte](), q, w, free, reprepare, feed, rb)
		case 1:
			fuzzBand(t, WeightedEditMeasure(), q, w, free, reprepare, feed, rb)
		case 2:
			fuzzBand(t, ProteinEditMeasure(), q, w, free, reprepare, feed, rb)
		case 3:
			fuzzBand(t, ERPMeasure(Point2Dist, seq.Point2{}), bytePoints(q), bytePoints(w), free, reprepare, feed, rb)
		case 4:
			fuzzBand(t, ERPMeasure(AbsDiff, 0), byteLevels(q), byteLevels(w), free, reprepare, feed, rb)
		case 5:
			fuzzBand(t, LevenshteinMeasure[float64](), byteLevels(q), byteLevels(w), free, reprepare, feed, rb)
		}
	})
}

func fuzzBand[E any](t *testing.T, m Measure[E], q, w []E, free, reprepare bool, feed bandFeed, rb uint8) {
	p := m.Prepare(w)
	if reprepare {
		// Tables rebuilt in place from a longer window's.
		p = m.Reprepare(m.Prepare(append(append([]E(nil), w...), q...)), w)
	}
	rs := []float64{float64(rb) / 4, 0}
	if cells := cellsOf(p, q, free); len(cells) > 0 {
		rs = append(rs, cells[int(rb)%len(cells)])
	}
	ref, k := p.NewState(), p.NewState()
	for _, r := range rs {
		sameBand(t, m.Name, p, ref, k, q, r, feed, free)
	}
}
