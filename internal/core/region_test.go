package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// forEachPair enumerates the candidate pairs of one region that satisfy the
// length constraints. It is the per-candidate enumeration the verifier ran
// before it priced candidates by start pair, kept here as the reference the
// pass scan is checked against (TestVerifierMatchesPerPairReference).
func forEachPair(p Params, r region, fn func(qs, qe, xs, xe int)) {
	lam, lam0 := p.Lambda, p.Lambda0
	for xs := r.xsMin; xs <= r.xsMax; xs++ {
		for xe := r.xeMin; xe <= r.xeMax; xe++ {
			xlen := xe - xs
			if xlen < lam {
				continue
			}
			for qs := r.qsMin; qs <= r.qsMax; qs++ {
				// |qlen − xlen| ≤ λ0 restricts qe to a narrow band.
				qeLo := max(qs+xlen-lam0, r.qeMin, qs+lam)
				qeHi := min(qs+xlen+lam0, r.qeMax)
				for qe := qeLo; qe <= qeHi; qe++ {
					fn(qs, qe, xs, xe)
				}
			}
		}
	}
}

// forEachPair anchors the reference; this property test pins it against an
// independent brute-force enumeration of the same region specification.
func TestForEachPairMatchesBruteEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	for trial := 0; trial < 200; trial++ {
		p := Params{Lambda: 2 + rng.IntN(6), Lambda0: 0}
		if l := p.WindowLen(); l > 1 {
			p.Lambda0 = rng.IntN(l)
		}
		r := region{
			seqID: 0,
			qsMin: rng.IntN(5), qeMin: 5 + rng.IntN(5),
			xsMin: rng.IntN(5), xeMin: 5 + rng.IntN(5),
		}
		r.qsMax = r.qsMin + rng.IntN(4)
		r.qeMax = r.qeMin + rng.IntN(4)
		r.xsMax = r.xsMin + rng.IntN(4)
		r.xeMax = r.xeMin + rng.IntN(4)

		type pk struct{ qs, qe, xs, xe int }
		got := map[pk]bool{}
		forEachPair(p, r, func(qs, qe, xs, xe int) {
			if got[pk{qs, qe, xs, xe}] {
				t.Fatalf("trial %d: pair emitted twice", trial)
			}
			got[pk{qs, qe, xs, xe}] = true
		})

		want := map[pk]bool{}
		for qs := r.qsMin; qs <= r.qsMax; qs++ {
			for qe := r.qeMin; qe <= r.qeMax; qe++ {
				for xs := r.xsMin; xs <= r.xsMax; xs++ {
					for xe := r.xeMin; xe <= r.xeMax; xe++ {
						ql, xl := qe-qs, xe-xs
						if ql < p.Lambda || xl < p.Lambda {
							continue
						}
						if d := ql - xl; d > p.Lambda0 || -d > p.Lambda0 {
							continue
						}
						want[pk{qs, qe, xs, xe}] = true
					}
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (λ=%d λ0=%d region %+v): %d pairs, want %d",
				trial, p.Lambda, p.Lambda0, r, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: pair %+v missing", trial, k)
			}
		}
	}
}

// refCandidates prices every distinct candidate of regs with one unbounded
// Fn call each — the verifier as it was before passes: per-region
// enumeration, a seen-set across regions, a full evaluation per pair.
func refCandidates[E any](v *verifier[E], q seq.Sequence[E], regs []region) []Match {
	type pairKey struct{ seqID, qs, qe, xs, xe int }
	seen := map[pairKey]bool{}
	var out []Match
	for _, r := range regs {
		x := v.db[r.seqID]
		forEachPair(v.p, r, func(qs, qe, xs, xe int) {
			k := pairKey{r.seqID, qs, qe, xs, xe}
			if seen[k] {
				return
			}
			seen[k] = true
			out = append(out, Match{SeqID: r.seqID, QStart: qs, QEnd: qe, XStart: xs, XEnd: xe,
				Dist: v.m.Fn(q[qs:qe], x[xs:xe])})
		})
	}
	return out
}

// refBest is the least candidate within eps under a strict total order.
func refBest(cands []Match, eps float64, before func(a, b Match) bool) (best Match, found bool) {
	for _, m := range cands {
		if m.Dist <= eps && (!found || before(m, best)) {
			best, found = m, true
		}
	}
	return best, found
}

func hitRegions[E any](v *verifier[E], q seq.Sequence[E], hits []Hit[E]) []region {
	var regs []region
	for _, h := range hits {
		regs = append(regs, v.hitRegion(q, h))
	}
	return regs
}

func runRegionsOf[E any](v *verifier[E], q seq.Sequence[E], hits []Hit[E]) []region {
	sc := v.getScratch()
	defer v.putScratch(sc)
	return slices.Clone(v.runRegions(q, hits, sc))
}

// sameMatch compares field for field, the distance by its bits: the kernel
// cells the verifier reads must be the float64 Fn returns, not a value
// near it.
func sameMatch(a, b Match) bool {
	return a.SeqID == b.SeqID && a.QStart == b.QStart && a.QEnd == b.QEnd &&
		a.XStart == b.XStart && a.XEnd == b.XEnd &&
		math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
}

// refStats is what a verifierCase saw, so the callers can assert their
// cases were not vacuous.
type refStats struct {
	matches    int // Type I matches checked
	atEps      int // of those, matches with Dist == eps exactly
	nearestTie int // Type III answers that beat another candidate at the same distance
	maxCols    int // widest window any pass bound
}

// verifierCase builds a matcher over random sequences of elem-drawn
// elements, cuts lightly mutated queries out of them (so the filter hits and
// the verifier has work), and checks all three query types of the pass
// verifier against the per-pair reference at every eps.
func verifierCase[E any](t *testing.T, m dist.Measure[E], cfg Config, seed uint64,
	seqLen, qLen int, elem func(*rand.Rand) E, epss ...float64) refStats {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 4242))
	db := make([]seq.Sequence[E], 3)
	for i := range db {
		db[i] = make(seq.Sequence[E], seqLen)
		for j := range db[i] {
			db[i][j] = elem(rng)
		}
	}
	mt, err := NewMatcher(m, cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	v := mt.verifier
	var st refStats
	for trial := 0; trial < 4; trial++ {
		src := db[rng.IntN(len(db))]
		at := rng.IntN(seqLen - qLen + 1)
		q := slices.Clone(src[at : at+qLen])
		for i := 0; i < qLen/12; i++ {
			q[rng.IntN(qLen)] = elem(rng)
		}
		for _, eps := range epss {
			hits := mt.FilterHits(q, eps)

			regs := hitRegions(v, q, hits)
			sc := v.getScratch()
			for _, p := range v.passes(regs, sc) {
				st.maxCols = max(st.maxCols, int(p.cols))
			}
			v.putScratch(sc)
			var want []Match
			for _, c := range refCandidates(v, q, regs) {
				if c.Dist <= eps {
					want = append(want, c)
				}
			}
			slices.SortFunc(want, CanonicalCompare)
			got := v.verifyAll(q, hits, eps)
			if len(got) != len(want) {
				t.Fatalf("trial %d eps %v: FindAll %d matches, reference %d", trial, eps, len(got), len(want))
			}
			for i := range got {
				if !sameMatch(got[i], want[i]) {
					t.Fatalf("trial %d eps %v: match %d = %v (bits %x), reference %v (bits %x)", trial, eps, i,
						got[i], math.Float64bits(got[i].Dist), want[i], math.Float64bits(want[i].Dist))
				}
				if got[i].Dist == eps {
					st.atEps++
				}
			}
			st.matches += len(got)

			regs = runRegionsOf(v, q, hits)
			cands := refCandidates(v, q, regs)
			wantL, okL := refBest(cands, eps, LongestBefore)
			if gotL, ok := v.verifyLongest(q, hits, eps); ok != okL || !sameMatch(gotL, wantL) {
				t.Fatalf("trial %d eps %v: Longest = %v/%v, reference %v/%v", trial, eps, gotL, ok, wantL, okL)
			}
			wantN, okN := refBest(cands, eps, NearestBefore)
			if gotN, ok := v.verifyNearest(q, hits, eps); ok != okN || !sameMatch(gotN, wantN) {
				t.Fatalf("trial %d eps %v: Nearest = %v/%v, reference %v/%v", trial, eps, gotN, ok, wantN, okN)
			}
			for _, c := range cands {
				if okN && c.Dist == wantN.Dist && c != wantN {
					st.nearestTie++
					break
				}
			}
		}
	}
	if st.matches == 0 {
		t.Fatal("no match verified — the case checks nothing")
	}
	t.Logf("%+v", st)
	return st
}

// The pass verifier must answer exactly as the per-pair enumeration it
// replaced — same candidate set (the union of the region boxes, nothing of
// a pass's bounding box beyond it), same float64 bits in Dist, same
// canonical tie-breaks — through every kernel family and through the Fn
// adapter.
func TestVerifierMatchesPerPairReference(t *testing.T) {
	letter := func(rng *rand.Rand) byte { return "ABCD"[rng.IntN(4)] }
	residue := func(rng *rand.Rand) byte { return "ACDEFGHIKLMNPQRSTVWY"[rng.IntN(20)] }
	level := func(rng *rand.Rand) float64 { return float64(rng.IntN(5)) }
	point := func(rng *rand.Rand) seq.Point2 {
		return seq.Point2{X: float64(rng.IntN(4)) + rng.Float64()/8, Y: float64(rng.IntN(4))}
	}
	shift := Config{Params: Params{Lambda: 8, Lambda0: 1}, Index: IndexLinearScan}
	lock := Config{Params: Params{Lambda: 8}, Index: IndexLinearScan}

	// Windows past 64 bytes put levenshtein-fast on its block kernel.
	long := Config{Params: Params{Lambda: 60, Lambda0: 2}, Index: IndexLinearScan}

	t.Run("levenshtein", func(t *testing.T) {
		st := verifierCase(t, dist.LevenshteinMeasure[byte](), shift, 1, 60, 26, letter, 0, 1)
		if st.atEps == 0 {
			t.Error("no match at d == eps exactly; the boundary is untested")
		}
		if st.nearestTie == 0 {
			t.Error("no Type III tie at equal distance; the canonical tie-break is untested")
		}
	})
	t.Run("levenshtein/refnet", func(t *testing.T) {
		verifierCase(t, dist.LevenshteinMeasure[byte](), Config{Params: Params{Lambda: 8, Lambda0: 2}}, 2, 60, 26, letter, 1)
	})
	t.Run("erp/point2", func(t *testing.T) {
		verifierCase(t, dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), shift, 3, 60, 26, point, 0.5, 2)
	})
	t.Run("erp/float64", func(t *testing.T) {
		if st := verifierCase(t, dist.ERPMeasure(dist.AbsDiff, 0), shift, 4, 60, 26, level, 1, 3); st.atEps == 0 {
			t.Error("no match at d == eps exactly; the boundary is untested")
		}
	})
	t.Run("protein-edit", func(t *testing.T) {
		verifierCase(t, dist.ProteinEditMeasure(), shift, 5, 60, 26, residue, 0.5, 2)
	})
	t.Run("weighted-edit", func(t *testing.T) {
		verifierCase(t, dist.WeightedEditMeasure(), shift, 6, 60, 26, letter, 1, 1.5)
	})
	t.Run("euclidean", func(t *testing.T) {
		verifierCase(t, dist.EuclideanMeasure(dist.AbsDiff), lock, 7, 60, 26, level, 0, 2)
	})
	t.Run("hamming", func(t *testing.T) {
		verifierCase(t, dist.HammingMeasure[byte](), lock, 8, 60, 26, letter, 0, 1)
	})
	t.Run("dtw", func(t *testing.T) {
		verifierCase(t, dist.DTWMeasure(dist.AbsDiff), shift, 9, 48, 20, level, 0, 1)
	})
	t.Run("dfd", func(t *testing.T) {
		verifierCase(t, dist.DiscreteFrechetMeasure(dist.AbsDiff), shift, 10, 48, 20, level, 0, 1)
	})
	t.Run("levenshtein-fast/word", func(t *testing.T) {
		verifierCase(t, dist.LevenshteinFastMeasure(), shift, 12, 60, 26, residue, 1, 2)
	})
	t.Run("levenshtein-fast/block", func(t *testing.T) {
		if st := verifierCase(t, dist.LevenshteinFastMeasure(), long, 11, 160, 80, residue, 5); st.maxCols <= 64 {
			t.Errorf("widest bound window %d ≤ 64 — the block kernel never ran", st.maxCols)
		}
	})
}

// VerifyDistanceCalls counts one evaluation per pass — a pass is one DP over
// its start pair's longest candidate, however many ends it prices — and,
// for a measure without an incremental kernel, one per Fn call the adapter
// kernel makes, which is one per distinct candidate: no call the per-pair
// enumeration did not make.
func TestVerifyDistanceCallsCountsPasses(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	rng := rand.New(rand.NewPCG(4, 1100))
	db, q := randStrings(rng, 3, 60, 20, 8, false)
	const eps = 1

	type startKey struct{ seqID, qs, xs int }
	distinct := func(v *verifier[byte], hits []Hit[byte]) (starts, pairs int) {
		seen := map[startKey]bool{}
		for _, c := range refCandidates(v, q, hitRegions(v, q, hits)) {
			seen[startKey{c.SeqID, c.QStart, c.XStart}] = true
			pairs++
		}
		return len(seen), pairs
	}

	mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	hits := mt.FilterHits(q, eps)
	starts, pairs := distinct(mt.verifier, hits)
	if starts == 0 || starts == pairs {
		t.Fatalf("degenerate case: %d start pairs over %d candidates", starts, pairs)
	}
	before := mt.VerifyDistanceCalls()
	mt.verifier.verifyAll(q, hits, eps)
	if got := mt.VerifyDistanceCalls() - before; got != int64(starts) {
		t.Errorf("kernel measure: VerifyDistanceCalls advanced by %d, want one per pass = %d (candidates: %d)", got, starts, pairs)
	}

	var fnCalls atomic.Int64
	lev := dist.Levenshtein[byte]()
	plain := dist.Measure[byte]{
		Name:  "levenshtein-plain",
		Fn:    func(a, b []byte) float64 { fnCalls.Add(1); return lev(a, b) },
		Props: dist.Properties{Consistent: true, Metric: true},
	}
	mt, err = NewMatcher(plain, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	hits = mt.FilterHits(q, eps)
	_, pairs = distinct(mt.verifier, hits)
	before, fnBefore := mt.VerifyDistanceCalls(), fnCalls.Load()
	mt.verifier.verifyAll(q, hits, eps)
	got, fn := mt.VerifyDistanceCalls()-before, fnCalls.Load()-fnBefore
	if got != fn || got != int64(pairs) {
		t.Errorf("adapter: VerifyDistanceCalls advanced by %d over %d Fn calls, want one per candidate = %d", got, fn, pairs)
	}
}

// Matcher queries are documented as safe for concurrent use; exercise
// that with parallel queries over a shared matcher (run with -race in CI
// to make this decisive).
func TestMatcherConcurrentQueries(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(7, 2100))
	db, _ := randStrings(rng, 3, 40, 20, 8, true)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]seq.Sequence[byte], 8)
	for i := range queries {
		_, queries[i] = randStrings(rng, 1, 30, 20, 7, true)
	}
	ref := make([][]Match, len(queries))
	for i, q := range queries {
		ref[i] = mt.FindAll(q, 1.5)
	}
	done := make(chan error, len(queries))
	for i, q := range queries {
		go func(i int, q seq.Sequence[byte]) {
			got := mt.FindAll(q, 1.5)
			if len(got) != len(ref[i]) {
				done <- errMismatch
				return
			}
			for j := range got {
				if got[j] != ref[i][j] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(i, q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query result differs from sequential" }
