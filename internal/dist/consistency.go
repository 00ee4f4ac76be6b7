package dist

// Definition 1 of the paper: a distance measure δ is CONSISTENT if for any
// sequences Q and X and any (contiguous, non-empty) subsequence SX of X
// there exists a contiguous, possibly empty subsequence SQ of Q with
// δ(SQ, SX) ≤ δ(Q, X). Consistency is the sole property the framework's
// window filter needs for losslessness (Lemma 2): a match pair within ε
// guarantees every window inside the database subsequence has a query
// segment within ε. The empty counterpart matters for gap-priced distances:
// ERP may align a whole stretch of X against gaps, in which case the
// cheapest counterpart of that stretch is the empty sequence.
//
// FindInconsistency checks the property exhaustively on one concrete pair —
// O(|X|²·|Q|²) distance evaluations — so it is a test and diagnostic tool
// for vetting a Measure's Props.Consistent claim on small inputs, not
// production-path code.

// Inconsistency is a witness against Definition 1: the subsequence
// x[XStart:XEnd) whose best counterpart in q, at distance Best, exceeds the
// base distance δ(q, x) by more than the tolerance.
type Inconsistency struct {
	// XStart, XEnd delimit the offending subsequence of x.
	XStart, XEnd int
	// Best is the minimum of d(sq, x[XStart:XEnd)) over all contiguous
	// subsequences sq of q, including the empty one.
	Best float64
	// Base is d(q, x), the bound Best was required to meet.
	Base float64
}

// FindInconsistency exhaustively searches the pair (q, x) for a violation of
// Definition 1, returning a witness and true if one exists. tol absorbs
// floating-point noise in the comparison (Best ≤ Base + tol passes).
func FindInconsistency[E any](d Func[E], q, x []E, tol float64) (Inconsistency, bool) {
	base := d(q, x)
	for xs := 0; xs < len(x); xs++ {
		for xe := xs + 1; xe <= len(x); xe++ {
			sx := x[xs:xe]
			best := d(q[:0], sx) // the empty counterpart
			for qs := 0; qs <= len(q) && !(best <= base+tol); qs++ {
				for qe := qs + 1; qe <= len(q); qe++ {
					if v := d(q[qs:qe], sx); v < best {
						best = v
					}
				}
			}
			if !(best <= base+tol) { // also catches NaN
				return Inconsistency{XStart: xs, XEnd: xe, Best: best, Base: base}, true
			}
		}
	}
	return Inconsistency{Base: base}, false
}
