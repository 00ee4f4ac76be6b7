package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/seq"
)

// A start range is what the verifier's group pre-pass runs: a rewound state
// fed q[:k] through FeedFree and q[k:] through Feed, so that after q[:e]
// cell j is the least d(q[s:e], w[:j]) over the starts 0 ≤ s ≤ min(e, k).

// startLeast holds, after each fed prefix e, the least cell over the starts
// a start-range pass admits: least[e][j].
type startLeast [][]float64

// newStartLeast returns the table for no start yet: every cell +Inf.
func newStartLeast(qLen, n int) startLeast {
	least := make(startLeast, qLen+1)
	for e := range least {
		least[e] = make([]float64, n+1)
		for j := range least[e] {
			least[e][j] = math.Inf(1)
		}
	}
	return least
}

// radii returns the radii a banded start-range pass is run at: 0 and a
// spread of the table's own cells, where ties with a cell are.
func (least startLeast) radii() []float64 {
	var vals []float64
	for _, row := range least {
		for _, v := range row {
			if !math.IsInf(v, 1) {
				vals = append(vals, v)
			}
		}
	}
	slices.Sort(vals)
	rs := []float64{0}
	for i := 0; i < len(vals); i += max(1, len(vals)/5) {
		rs = append(rs, vals[i])
	}
	return rs
}

// sameStartRange rewinds k, bands it at r unless r is +Inf, feeds it q[:free]
// through FeedFree and the rest through Feed, and holds it to least after
// every feed: the fed value is At(len(w)); every cell carries least's bits
// when least's is within r, and reads over r and no greater otherwise
// (bandedAsUnbanded, bits alone at +Inf); and Floor is at most every cell
// within r of this row and every later one.
func sameStartRange[E any](t *testing.T, what string, k FreeStartKernel[E], q []E, free int, r float64, least startLeast) {
	t.Helper()
	n := len(least[0]) - 1
	// later[e] is the least cell of rows e and after.
	later := make([]float64, len(q)+2)
	later[len(q)+1] = math.Inf(1)
	for e := len(q); e >= 0; e-- {
		later[e] = min(later[e+1], slices.Min(least[e]))
	}
	k.Reset()
	if !math.IsInf(r, 1) {
		k.(RowKernel[E]).Within(r)
	}
	fail := func(e int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (|w|=%d, %d free of %d, r %v) after %d feeds: "+format+" (q %v)",
			append([]any{what, n, free, len(q), r, e}, append(args, q)...)...)
	}
	for e := 0; e <= len(q); e++ {
		if e > 0 {
			var fed float64
			if e <= free {
				fed = k.FeedFree(q[e-1])
			} else {
				fed = k.Feed(q[e-1])
			}
			if math.Float64bits(fed) != math.Float64bits(k.At(n)) {
				fail(e, "fed %v, At(len(w)) = %v", fed, k.At(n))
			}
		}
		for j, want := range least[e] {
			if got := k.At(j); !bandedAsUnbanded(got, want, r) {
				fail(e, "At(%d) = %v (bits %x), least over starts %v (bits %x)", j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if f := k.Floor(); later[e] <= r && f > later[e] {
			fail(e, "Floor %v exceeds a cell %v of this row or a later one", f, later[e])
		}
	}
}

// checkStartRange holds start-range passes of k (bound to w) to the least Fn
// over their starts, for every number of free rows from none (a plain pass)
// to all of q (a free-start pass), unbanded and, on a kernel that takes cost
// rows, banded at radii drawn from the table.
func checkStartRange[E any](t *testing.T, what string, m Measure[E], k FreeStartKernel[E], q, w []E) {
	t.Helper()
	least := newStartLeast(len(q), len(w))
	_, bands := k.(RowKernel[E])
	for free := 0; free <= len(q); free++ {
		// Admit start free: every row from it on.
		for e := free; e <= len(q); e++ {
			for j := range least[e] {
				least[e][j] = min(least[e][j], m.Fn(q[free:e], w[:j]))
			}
		}
		sameStartRange(t, m.Name+" "+what, k, q, free, math.Inf(1), least)
		if bands {
			for _, r := range least.radii() {
				sameStartRange(t, m.Name+" "+what+" banded", k, q, free, r, least)
			}
		}
	}
}

// FuzzStartRangeMatchesLeast is checkStartRange over inputs nobody chose:
// the measure and the number of free rows are drawn from which and k, the
// radius of a banded pass from rb (rb/4, or the table's cell rb picks). The
// least over starts is read off one plain edit-row pass per start, which
// TestKernelTablesMatchFn holds to Fn bit for bit, so that the fuzzer spends
// its time on inputs rather than on Fn tables; levenshtein-fast is held to
// generic Levenshtein's passes.
func FuzzStartRangeMatchesLeast(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(0), uint8(3), uint8(4))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(9), uint8(6), uint8(0))
	f.Add([]byte{8, 9, 16, 17, 24, 23, 30, 32}, []byte{8, 8, 16, 16, 24, 24, 32, 32}, uint8(4), uint8(2), uint8(40))
	f.Fuzz(func(t *testing.T, q, w []byte, which, k, rb uint8) {
		if len(q) > 40 {
			q = q[:40]
		}
		if len(w) > 160 {
			w = w[:160]
		}
		switch which % 7 {
		case 0:
			fuzzStartRange(t, LevenshteinFastMeasure(), LevenshteinMeasure[byte](), q, w, k, rb)
		case 1:
			fuzzStartRange(t, LevenshteinMeasure[byte](), LevenshteinMeasure[byte](), q, w[:min(len(w), 64)], k, rb)
		case 2:
			fuzzStartRange(t, WeightedEditMeasure(), WeightedEditMeasure(), q, w[:min(len(w), 64)], k, rb)
		case 3:
			fuzzStartRange(t, ProteinEditMeasure(), ProteinEditMeasure(), q, w[:min(len(w), 64)], k, rb)
		case 4:
			erp := ERPMeasure(Point2Dist, seq.Point2{})
			fuzzStartRange(t, erp, erp, bytePoints(q), bytePoints(w[:min(len(w), 64)]), k, rb)
		case 5:
			erp := ERPMeasure(AbsDiff, 0)
			fuzzStartRange(t, erp, erp, byteLevels(q), byteLevels(w[:min(len(w), 64)]), k, rb)
		case 6:
			lev := LevenshteinMeasure[float64]()
			fuzzStartRange(t, lev, lev, byteLevels(q), byteLevels(w[:min(len(w), 64)]), k, rb)
		}
	})
}

func fuzzStartRange[E any](t *testing.T, m, ref Measure[E], q, w []E, k, rb uint8) {
	free := int(k) % (len(q) + 1)
	least := newStartLeast(len(q), len(w))
	plain := ref.NewKernel(w)
	for s := 0; s <= free; s++ {
		plain.Reset()
		for e := s; e <= len(q); e++ {
			if e > s {
				plain.Feed(q[e-1])
			}
			for j := range least[e] {
				least[e][j] = min(least[e][j], plain.At(j))
			}
		}
	}
	state := BindFreeStart(nil, m.Prepare(w))
	what := fmt.Sprintf("%s (q %v, w %v)", m.Name, q, w)
	sameStartRange(t, what, state, q, free, math.Inf(1), least)
	if _, bands := state.(RowKernel[E]); bands {
		rs := least.radii()
		sameStartRange(t, what+" banded", state, q, free, float64(rb)/4, least)
		sameStartRange(t, what+" banded", state, q, free, rs[int(rb)%len(rs)], least)
	}
}
