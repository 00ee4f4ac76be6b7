package core

import (
	"slices"

	"repro/internal/dist"
	"repro/internal/seq"
)

// BruteForce answers the three query types by exhaustively evaluating all
// O(|Q|²|X|²) subsequence pairs — the baseline the framework's filtering
// replaces, behind the Lemma 3 containment tests. With no candidate regions
// it is not the framework's exact answer. Only feasible for small inputs.
type BruteForce[E any] struct {
	fn dist.Func[E]
	p  Params
	db []seq.Sequence[E]
}

// NewBruteForce builds an exhaustive all-pairs matcher with a Matcher's
// length constraints and distance.
func NewBruteForce[E any](m dist.Measure[E], p Params, db []seq.Sequence[E]) (*BruteForce[E], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &BruteForce[E]{fn: m.Fn, p: p, db: db}, nil
}

// forEachPair enumerates every subsequence pair satisfying the length
// constraints, with both lengths capped at maxLen (0 = uncapped).
func (b *BruteForce[E]) forEachPair(q seq.Sequence[E], maxLen int, fn func(seqID, qs, qe, xs, xe int)) {
	lam, lam0 := b.p.Lambda, b.p.Lambda0
	for seqID, x := range b.db {
		for xs := 0; xs <= len(x)-lam; xs++ {
			xeMax := len(x)
			if maxLen > 0 && xs+maxLen < xeMax {
				xeMax = xs + maxLen
			}
			for xe := xs + lam; xe <= xeMax; xe++ {
				xlen := xe - xs
				for qs := 0; qs <= len(q)-lam; qs++ {
					qeLo := qs + xlen - lam0
					if qeLo < qs+lam {
						qeLo = qs + lam
					}
					qeHi := qs + xlen + lam0
					if qeHi > len(q) {
						qeHi = len(q)
					}
					if maxLen > 0 && qs+maxLen < qeHi {
						qeHi = qs + maxLen
					}
					for qe := qeLo; qe <= qeHi; qe++ {
						fn(seqID, qs, qe, xs, xe)
					}
				}
			}
		}
	}
}

// FindAll returns every similar pair with both subsequence lengths at most
// maxLen (0 = uncapped), sorted like Matcher.FindAll.
func (b *BruteForce[E]) FindAll(q seq.Sequence[E], eps float64, maxLen int) []Match {
	var out []Match
	b.forEachPair(q, maxLen, func(seqID, qs, qe, xs, xe int) {
		if d := b.fn(q[qs:qe], b.db[seqID][xs:xe]); d <= eps {
			out = append(out, Match{SeqID: seqID, QStart: qs, QEnd: qe, XStart: xs, XEnd: xe, Dist: d})
		}
	})
	slices.SortFunc(out, CanonicalCompare)
	return out
}

// Longest returns a similar pair maximising |SQ|, exhaustively.
func (b *BruteForce[E]) Longest(q seq.Sequence[E], eps float64) (Match, bool) {
	var best Match
	found := false
	b.forEachPair(q, 0, func(seqID, qs, qe, xs, xe int) {
		if found && qe-qs <= best.QLen() {
			return
		}
		if d := b.fn(q[qs:qe], b.db[seqID][xs:xe]); d <= eps {
			best = Match{SeqID: seqID, QStart: qs, QEnd: qe, XStart: xs, XEnd: xe, Dist: d}
			found = true
		}
	})
	return best, found
}

// Nearest returns a pair minimising the distance subject to the length
// constraints, exhaustively. Both lengths are capped at maxLen (0 =
// uncapped) to keep the search space bounded.
func (b *BruteForce[E]) Nearest(q seq.Sequence[E], maxLen int) (Match, bool) {
	var best Match
	found := false
	b.forEachPair(q, maxLen, func(seqID, qs, qe, xs, xe int) {
		d := b.fn(q[qs:qe], b.db[seqID][xs:xe])
		if !found || d < best.Dist {
			best = Match{SeqID: seqID, QStart: qs, QEnd: qe, XStart: xs, XEnd: xe, Dist: d}
			found = true
		}
	})
	return best, found
}
