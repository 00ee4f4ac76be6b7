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
		var matches, refed int
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

			// The verifier's bindings are its scan's: a pass keeps the last
			// one when it starts at the same database position and is no
			// wider. Over each, the rows fed are the union of its passes'.
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
			for _, ps := range mt.verifier.passes(vsc.regs, vsc) {
				if bound.seqID != ps.seqID || bound.xs != ps.xs || bound.cols < ps.cols {
					if bound.seqID >= 0 {
						flush()
					}
					bound = ps
				}
				for i := range int(ps.rows) {
					if fed[int(ps.qs)+i] {
						refed++
					}
					fed[int(ps.qs)+i] = true
				}
			}
			if bound.seqID >= 0 {
				flush()
			}
			mt.verifier.putScratch(vsc)
			if verifyCalls > verifyBound {
				t.Fatalf("%v query %d: the verifier made %d ground calls, over Σ (rows fed + 1) × (window length + 1) = %d",
					index, qi, verifyCalls, verifyBound)
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
	}
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
