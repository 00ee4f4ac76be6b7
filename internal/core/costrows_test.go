package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// groundLog is a call-counting ground distance for ERP over float64 levels
// whose every database and query element is distinct, so a call names its
// operands: a query row and a database element, or one of them and the gap.
type groundLog struct {
	calls int
	pairs map[[2]float64]int // query element × database element
	qrows map[float64]bool   // query elements fed against the gap
}

func (g *groundLog) reset() {
	g.calls = 0
	g.pairs, g.qrows = map[[2]float64]int{}, map[float64]bool{}
}

func (g *groundLog) ground(a, b float64) float64 {
	g.calls++
	if g.pairs != nil && b != 0 {
		g.pairs[[2]float64{a, b}]++
	}
	return math.Abs(a - b)
}

// walks makes n random walks of length m and queries cut from them with a
// little noise: every element distinct, and none 0 (ERP's gap element).
func walks(rng *rand.Rand, n, m, queries, qlen int) (db, qs []seq.Sequence[float64]) {
	for range n {
		s, v := make(seq.Sequence[float64], m), 1.0
		for i := range s {
			v += rng.Float64() - 0.5
			s[i] = v
		}
		db = append(db, s)
	}
	for range queries {
		src := db[rng.IntN(n)]
		a := rng.IntN(len(src) - qlen)
		q := make(seq.Sequence[float64], qlen)
		for i := range q {
			q[i] = src[a+i] + (rng.Float64()-0.5)*0.05
		}
		qs = append(qs, q)
	}
	return db, qs
}

// The filter and the verifier price each ground cost once per window
// binding: however many passes read a query row against a bound window —
// the free-start pass and the exact passes of a node or of a window of the
// linear scan, the verifier's passes that keep one database binding — the
// row is priced once. Under ERP that is at most (rows fed + 1) × (window
// length + 1) ground calls a binding: a substitution per window element and
// an indel per row, and the window's own gap costs. The answers are those of
// the same matcher with no kernel at all, by their bits.
func TestCostRowsPriceOncePerBinding(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 6100))
	db, qs := walks(rng, 3, 160, 6, 40)
	p := Params{Lambda: 16, Lambda0: 2}
	l := p.WindowLen()
	const eps = 1.5
	for _, index := range []IndexKind{IndexRefNet, IndexLinearScan} {
		var g groundLog
		mt, err := NewMatcher(dist.ERPMeasure(g.ground, 0), Config{Params: p, Index: index}, db)
		if err != nil {
			t.Fatal(err)
		}
		plainMeasure := dist.ERPMeasure(dist.AbsDiff, 0)
		plainMeasure.Prepare, plainMeasure.Bounded = nil, nil
		plain, err := NewMatcher(plainMeasure, Config{Params: p, Index: index}, db)
		if err != nil {
			t.Fatal(err)
		}
		win := map[float64]int{} // database element → its window
		for i, w := range mt.windows {
			for _, y := range w.Data {
				win[y] = i
			}
		}
		var matches, refed, banded, skipped int
		for qi, q := range qs {
			mt.FindAll(q, eps) // builds the windows' tables the query touches

			// The filter binds every window it prices once.
			g.reset()
			hits := mt.FilterHits(q, eps)
			rows := map[int]map[float64]bool{} // window → query rows fed against it
			for pair := range g.pairs {
				w := win[pair[1]]
				if rows[w] == nil {
					rows[w] = map[float64]bool{}
				}
				rows[w][pair[0]] = true
			}
			filterBound := 0
			for _, r := range rows {
				filterBound += len(r) * (l + 1)
			}
			if g.calls > filterBound {
				t.Fatalf("%v query %d: the filter made %d ground calls, over %d bindings × rows fed × (window length + 1) = %d",
					index, qi, g.calls, len(rows), filterBound)
			}
			filterCalls := g.calls

			// The verifier's bindings are its scan's: a start group binds
			// its widest window, or keeps the last binding when that starts
			// at the same database position and is no narrower. Over each,
			// the rows fed are the union of its passes' and its pre-pass's.
			g.pairs = nil
			g.calls = 0
			got := mt.FindAll(q, eps)
			verifyCalls := g.calls - filterCalls
			vsc := mt.verifier.getScratch()
			for _, h := range hits {
				vsc.regs = append(vsc.regs, mt.verifier.hitRegion(q, h))
			}
			verifyBound := 0
			bound := pass{seqID: -1}
			fed := map[int]bool{}
			flush := func() {
				verifyBound += (len(fed) + 1) * (int(bound.cols) + 1)
				clear(fed)
			}
			for _, group := range startGroups(mt.verifier.passes(vsc.regs, vsc)) {
				if gb := groupBinding(group); bound.seqID != gb.seqID || bound.xs != gb.xs || bound.cols < gb.cols {
					if bound.seqID >= 0 {
						flush()
					}
					bound = gb
				}
				if lo, hi := groupStretch(group); len(group) > 1 {
					for pos := lo; pos < hi; pos++ {
						fed[pos] = true
					}
				}
				for _, ps := range group {
					for i := range int(ps.rows) {
						if fed[int(ps.qs)+i] {
							refed++
						}
						fed[int(ps.qs)+i] = true
					}
				}
			}
			if bound.seqID >= 0 {
				flush()
			}
			bandBound, skips := verifierBandBound(mt.verifier, vsc, q, eps)
			mt.verifier.putScratch(vsc)
			if verifyCalls > verifyBound {
				t.Fatalf("%v query %d: the verifier made %d ground calls, over Σ (rows fed + 1) × (window length + 1) = %d",
					index, qi, verifyCalls, verifyBound)
			}
			if verifyCalls != bandBound {
				t.Fatalf("%v query %d: the verifier made %d ground calls, not Σ (columns its bands reach + rows fed + window length) = %d",
					index, qi, verifyCalls, bandBound)
			}
			skipped += skips
			if bandBound < verifyBound {
				banded++
			}

			want := plain.FindAll(q, eps)
			if len(got) != len(want) {
				t.Fatalf("%v query %d: %d matches, %d without a kernel", index, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%v query %d match %d: %v, without a kernel %v", index, qi, i, got[i], want[i])
				}
			}
			matches += len(got)
		}
		// The bound only bites where passes share rows.
		if matches == 0 || refed == 0 {
			t.Fatalf("%v: vacuous (%d matches, %d rows fed twice in a verifier binding)", index, matches, refed)
		}
		if banded == 0 {
			t.Fatalf("%v: vacuous (the bands' bound is under the unbanded one on no query)", index)
		}
		if skipped == 0 {
			t.Fatalf("%v: vacuous (no start group's pre-pass ruled its passes out)", index)
		}
	}
}

// startGroups cuts passes into the verifier's start groups: runs of
// neighbours over one database start.
func startGroups(passes []pass) [][]pass {
	var out [][]pass
	for len(passes) > 0 {
		n := 1
		for n < len(passes) && passes[n].seqID == passes[0].seqID && passes[n].xs == passes[0].xs {
			n++
		}
		out, passes = append(out, passes[:n]), passes[n:]
	}
	return out
}

// groupBinding is the binding a start group asks for: its database start
// and its widest window.
func groupBinding(group []pass) pass {
	b := pass{seqID: group[0].seqID, xs: group[0].xs}
	for _, ps := range group {
		b.cols = max(b.cols, ps.cols)
	}
	return b
}

// groupStretch is the query stretch [lo, hi) a start group's pre-pass feeds:
// from its least query start to the last row any of its passes feeds.
func groupStretch(group []pass) (lo, hi int) {
	lo = math.MaxInt
	for _, ps := range group {
		lo, hi = min(lo, int(ps.qs)), max(hi, int(ps.qs+ps.rows))
	}
	return lo, hi
}

// verifierBandBound replays the Type I verifier's schedule over sc.regs at
// radius eps on exact ERP tables (dist.AbsDiff, the counting ground's
// values) and counts the ground calls its banded passes and pre-passes
// make; it also returns how many start groups their pre-pass ruled out. A
// pass that feeds query position pos as its row i reads the substitution
// costs of the columns from row i−1's first cell within eps to the one
// after its last (dist.RowKernel.Within), and stops after the first row
// with no cell within eps. A group of two or more passes first runs its
// pre-pass over groupStretch, fed through FeedFree up to its largest query
// start and through Feed after, and read as the passes read: it stops at
// the first cell within eps that some pass of the group would read — the
// group's passes then run — or once its Floor is over eps or its rows run
// out, and the group is skipped. Over one binding, costRows prices per row
// the hull of the columns the passes reach there and the row's indel cost
// once, and the binding's window its gap costs: Σ over bindings of cols +
// Σ over the rows fed of (hull + 1).
func verifierBandBound(v *verifier[float64], sc *verifyScratch[float64], q []float64, eps float64) (total, skipped int) {
	lam, lam0 := v.p.Lambda, v.p.Lambda0
	exact := dist.ERPMeasure(dist.AbsDiff, 0)
	bound := pass{seqID: -1}
	reach := map[int][2]int{} // query position → hull of the columns reached
	flush := func() {
		total += int(bound.cols)
		for _, h := range reach {
			total += h[1] - h[0] + 1
		}
		clear(reach)
	}
	var k dist.FreeStartKernel[float64]
	// feed records the columns the banded row that feeds pos reads, from
	// the cells within eps of the row before, and feeds pos to k.
	feed := func(pos int, free bool) {
		n := int(bound.cols)
		lo, hi := n+1, -1
		for j := 0; j <= n; j++ {
			if k.At(j) <= eps {
				lo, hi = min(lo, j), j
			}
		}
		h, seen := reach[pos]
		if span := [2]int{lo, min(hi+1, n)}; span[0] < span[1] {
			if !seen || h[0] == h[1] {
				h = span
			} else {
				h = [2]int{min(h[0], span[0]), max(h[1], span[1])}
			}
		}
		reach[pos] = h
		if free {
			k.FeedFree(q[pos])
		} else {
			k.Feed(q[pos])
		}
	}
	for _, group := range startGroups(v.passes(sc.regs, sc)) {
		if gb := groupBinding(group); bound.seqID != gb.seqID || bound.xs != gb.xs || bound.cols < gb.cols {
			if bound.seqID >= 0 {
				flush()
			}
			bound = gb
			k = dist.BindFreeStart(k, exact.Prepare(v.db[gb.seqID][gb.xs:gb.xs+gb.cols]))
		}
		if len(group) > 1 {
			lo, hi := groupStretch(group)
			qsHi := int(group[len(group)-1].qs) // passes lists a group by qs
			live := false
			k.Reset()
			for pos := lo; pos < hi && !live; pos++ {
				feed(pos, pos < qsHi)
				qe := pos + 1
				for _, ps := range group {
					i := qe - int(ps.qs)
					if i < lam || i > int(ps.rows) {
						continue
					}
					for j := max(i-lam0, lam); j <= min(i+lam0, int(ps.cols)) && !live; j++ {
						live = k.At(j) <= eps && anyHolds(sc.regs, sc.members[ps.lo:ps.hi], qe, int(ps.xs)+j)
					}
				}
				if !live && k.Floor() > eps {
					break
				}
			}
			if !live {
				skipped++
				continue
			}
		}
		for _, ps := range group {
			k.Reset()
			for i := 1; i <= int(ps.rows); i++ {
				feed(int(ps.qs)+i-1, false)
				if k.Floor() > eps {
					break
				}
			}
		}
	}
	if bound.seqID >= 0 {
		flush()
	}
	return total, skipped
}

// A binding's rows are priced once and read back; the next binding prices
// its own, also when the epoch wraps and the stamps restart.
func TestCostRowsRebindAcrossEpochWrap(t *testing.T) {
	var g groundLog
	m := dist.ERPMeasure(g.ground, 0)
	q := []float64{0.5, 1.5, 2.5}
	var rows costRows[float64]
	for _, epoch := range []uint32{0, math.MaxUint32 - 1} {
		rows.epoch = epoch
		for _, w := range [][]float64{{1, 2}, {3, 4, 5}} {
			p := m.Prepare(w)
			rows.bind(p, q)
			rk := rows.reader(p.NewState())
			if rk == nil {
				t.Fatal("ERP kernel takes no cost rows")
			}
			g.calls = 0
			for range 2 {
				for pos := range q {
					rk.FeedRow(rows.at(pos))
				}
			}
			if want := len(q) * (len(w) + 1); g.calls != want {
				t.Fatalf("epoch %d, |w| = %d: %d ground calls over two passes, want %d", epoch, len(w), g.calls, want)
			}
			for pos, x := range q {
				row, dx := rows.at(pos)
				for j, y := range w {
					if row[j] != math.Abs(x-y) {
						t.Fatalf("epoch %d: row %d [%d] = %v, want %v", epoch, pos, j, row[j], math.Abs(x-y))
					}
				}
				if dx != math.Abs(x) {
					t.Fatalf("epoch %d: row %d indel %v, want %v", epoch, pos, dx, math.Abs(x))
				}
			}
		}
	}
}

// A banded pass asks for spans of a row (cols): each column is priced once
// in a binding however the spans overlap, a span apart from the priced
// ones is joined to them across the gap, the indel cost is priced once
// per row, and the next binding — also across an epoch wrap — prices its
// own.
func TestCostRowsPriceSpansOnce(t *testing.T) {
	var g groundLog
	m := dist.ERPMeasure(g.ground, 0)
	q := []float64{0.5, 1.5}
	w := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var rows costRows[float64]
	for _, epoch := range []uint32{0, math.MaxUint32} {
		rows.epoch = epoch
		rows.bind(m.Prepare(w), q)
		for _, step := range []struct{ lo, hi, calls int }{
			{2, 4, 1 + 2}, // the indel cost and columns 2, 3
			{3, 6, 2},     // 4, 5
			{2, 6, 0},
			{0, 1, 2}, // 0 and, joining the spans, 1
			{7, 7, 0},
			{7, 8, 2}, // 6 and 7
		} {
			g.calls = 0
			row, dx := rows.cols(1, step.lo, step.hi)
			if g.calls != step.calls {
				t.Fatalf("epoch %d: cols(1, %d, %d) made %d ground calls, want %d", epoch, step.lo, step.hi, g.calls, step.calls)
			}
			if dx != math.Abs(q[1]) {
				t.Fatalf("epoch %d: indel %v, want %v", epoch, dx, math.Abs(q[1]))
			}
			for j := step.lo; j < step.hi; j++ {
				if row[j] != math.Abs(q[1]-w[j]) {
					t.Fatalf("epoch %d: cols(1, %d, %d)[%d] = %v, want %v", epoch, step.lo, step.hi, j, row[j], math.Abs(q[1]-w[j]))
				}
			}
		}
		g.calls = 0
		if rows.cols(0, 0, 0); g.calls != 1 {
			t.Fatalf("epoch %d: an empty span of a fresh row made %d ground calls, want its indel cost alone", epoch, g.calls)
		}
	}
}
