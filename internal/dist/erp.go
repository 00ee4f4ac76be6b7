package dist

import "repro/internal/seq"

// ERP returns Edit distance with Real Penalty (Chen & Ng, VLDB 2004) under
// ground distance g with gap element gap: an edit distance whose
// substitution cost is g(aᵢ,bⱼ) and whose insertion/deletion cost is the
// ground distance to the fixed gap element. Because every operation is
// priced by a metric ground distance against a fixed reference point, ERP is
// a metric — the property that lets the paper index it — while still
// tolerating local time shifts like DTW. It is also consistent: restricting
// an optimal alignment to a subsequence's columns yields a valid cheaper
// alignment (aligning entirely with gaps when no element of the other side
// participates).
//
// ERP of an empty sequence against s is the total gap cost Σ g(sᵢ, gap).
func ERP[E any](g Ground[E], gap E) Func[E] {
	return func(a, b []E) float64 {
		n, m := len(a), len(b)
		prev, cur, gb := erpRows(g, gap, b)
		for i := 1; i <= n; i++ {
			ai := a[i-1]
			ga := g(ai, gap)
			cur[0] = prev[0] + ga
			for j := 1; j <= m; j++ {
				best := prev[j-1] + g(ai, b[j-1]) // substitute
				if v := prev[j] + ga; v < best {  // gap b
					best = v
				}
				if v := cur[j-1] + gb[j-1]; v < best { // gap a
					best = v
				}
				cur[j] = best
			}
			prev, cur = cur, prev
		}
		return prev[m]
	}
}

// erpRows makes the working set of a two-row ERP evaluation against b in
// one allocation: the empty-prefix row (b's cumulative gap cost), a scratch
// row, and b's per-element gap costs — priced here once instead of once per
// DP cell.
func erpRows[E any](g Ground[E], gap E, b []E) (prev, cur, gb []float64) {
	m := len(b)
	buf := make([]float64, 3*m+2)
	prev, cur, gb = buf[:m+1], buf[m+1:2*m+2], buf[2*m+2:]
	for j, e := range b {
		gb[j] = g(e, gap)
		prev[j+1] = prev[j] + gb[j]
	}
	return prev, cur, gb
}

// ERPMeasure is ERP bundled with its properties: a consistent metric,
// accepted by every index backend, with the row-reuse incremental kernel
// and its banded bounded evaluation. Substitutions are priced by the ground
// distance, indels by the ground distance to the gap element (so the
// kernel's base row is ERP's cumulative gap column).
func ERPMeasure[E any](g Ground[E], gap E) Measure[E] {
	indel := func(e E) float64 { return g(e, gap) }
	return Measure[E]{
		Name:    "erp",
		Fn:      ERP(g, gap),
		Props:   Properties{Consistent: true, Metric: true, LockStep: false},
		Prepare: func(w []E) Prepared[E] { return newEditRowPrepared(w, g, indel) },
		Bounded: editRowBounded(g, indel),
	}
}

func init() {
	const desc = "edit distance with real penalty (warping metric, fixed gap element)"
	RegisterBuiltin(ERPMeasure(AbsDiff, 0), desc)
	RegisterBuiltin(ERPMeasure(Point2Dist, seq.Point2{}), desc)
}
