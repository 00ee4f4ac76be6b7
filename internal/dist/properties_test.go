package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/seq"
)

// This file vets every constructor's Props claims with property-based tests:
// metric axioms (non-negativity, identity, symmetry, triangle inequality) on
// random inputs for every measure whose Props.Metric is true, and
// Definition-1 consistency via FindInconsistency for every measure whose
// Props.Consistent is true. A measure constructor may not ship a capability
// its function does not have — these tests are the enforcement.

// gen produces a random sequence of length n over the measure's alphabet.
type suite[E any] struct {
	m   Measure[E]
	gen func(rng *rand.Rand, n int) []E
}

func byteGen(alphabet string) func(rng *rand.Rand, n int) []byte {
	return func(rng *rand.Rand, n int) []byte { return randBytes(rng, n, alphabet) }
}

func floatGen(rng *rand.Rand, n int) []float64 { return randWalk(rng, n) }

func pointGen(rng *rand.Rand, n int) []seq.Point2 {
	s := make([]seq.Point2, n)
	for i := range s {
		s[i] = seq.Point2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	return s
}

func byteSuites() []suite[byte] {
	return []suite[byte]{
		{HammingMeasure[byte](), byteGen("AB")},
		{LevenshteinMeasure[byte](), byteGen("ABC")},
		{LevenshteinFastMeasure(), byteGen("ABC")},
		{ProteinEditMeasure(), byteGen("ACDEFGHIKLMNPQRSTVWY")},
		{WeightedEditMeasure(), byteGen("ABC")},
	}
}

func floatSuites() []suite[float64] {
	return []suite[float64]{
		{EuclideanMeasure(AbsDiff), floatGen},
		{DTWMeasure(AbsDiff), floatGen},
		{ERPMeasure(AbsDiff, 0), floatGen},
		{DiscreteFrechetMeasure(AbsDiff), floatGen},
		{HammingMeasure[float64](), floatGen},
		{LevenshteinMeasure[float64](), floatGen},
	}
}

func pointSuites() []suite[seq.Point2] {
	return []suite[seq.Point2]{
		{ERPMeasure(Point2Dist, seq.Point2{}), pointGen},
		{DiscreteFrechetMeasure(Point2Dist), pointGen},
		{EuclideanMeasure(Point2Dist), pointGen},
		{DTWMeasure(Point2Dist), pointGen},
	}
}

// checkMetricAxioms draws random triples and verifies the axioms. Lock-step
// measures are exercised on equal lengths (their domain); warping measures
// on mixed lengths including the empty sequence.
func checkMetricAxioms[E any](t *testing.T, s suite[E], seed uint64) {
	t.Helper()
	if !s.m.Props.Metric {
		t.Fatalf("%s: checkMetricAxioms on a non-metric measure", s.m.Name)
	}
	rng := rand.New(rand.NewPCG(seed, 11))
	const tol = 1e-9
	for trial := 0; trial < 150; trial++ {
		var na, nb, nc int
		if s.m.Props.LockStep {
			na = 1 + rng.IntN(8)
			nb, nc = na, na
		} else {
			na, nb, nc = rng.IntN(9), rng.IntN(9), rng.IntN(9)
		}
		a, b, c := s.gen(rng, na), s.gen(rng, nb), s.gen(rng, nc)
		dab, dba := s.m.Fn(a, b), s.m.Fn(b, a)
		if dab < 0 {
			t.Fatalf("%s: negative distance %v", s.m.Name, dab)
		}
		if dab != dba && !(math.Abs(dab-dba) <= tol) {
			t.Fatalf("%s: asymmetric: d(a,b)=%v d(b,a)=%v", s.m.Name, dab, dba)
		}
		if daa := s.m.Fn(a, a); !(daa <= tol) {
			t.Fatalf("%s: d(a,a) = %v", s.m.Name, daa)
		}
		dac, dbc := s.m.Fn(a, c), s.m.Fn(b, c)
		// Inf-safe triangle check: an infinite right-hand side bounds
		// everything.
		if dac > dab+dbc+tol {
			t.Fatalf("%s: triangle violated: d(a,c)=%v > d(a,b)+d(b,c)=%v+%v\na=%v\nb=%v\nc=%v",
				s.m.Name, dac, dab, dbc, a, b, c)
		}
	}
}

// checkConsistency verifies Definition 1 via FindInconsistency on random
// pairs, plus structured pairs (x a corrupted copy of q) where the base
// distance is small and the property has real bite.
func checkConsistency[E any](t *testing.T, s suite[E], seed uint64) {
	t.Helper()
	if !s.m.Props.Consistent {
		t.Fatalf("%s: checkConsistency on a non-consistent measure", s.m.Name)
	}
	rng := rand.New(rand.NewPCG(seed, 13))
	const tol = 1e-9
	for trial := 0; trial < 40; trial++ {
		var nq, nx int
		if s.m.Props.LockStep {
			nq = 2 + rng.IntN(5)
			nx = nq
		} else {
			nq, nx = 1+rng.IntN(6), 1+rng.IntN(6)
		}
		q := s.gen(rng, nq)
		var x []E
		if trial%2 == 0 {
			x = s.gen(rng, nx)
		} else {
			// A corrupted copy: small base distance stresses the bound.
			x = append([]E(nil), q...)
			x[rng.IntN(len(x))] = s.gen(rng, 1)[0]
		}
		if w, bad := FindInconsistency(s.m.Fn, q, x, tol); bad {
			t.Fatalf("%s: inconsistent on trial %d: SX = x[%d:%d), best %v > base %v\nq=%v\nx=%v",
				s.m.Name, trial, w.XStart, w.XEnd, w.Best, w.Base, q, x)
		}
	}
}

func TestMetricAxiomsAllMetricMeasures(t *testing.T) {
	for i, s := range byteSuites() {
		t.Run(s.m.Name+"/byte", func(t *testing.T) { checkMetricAxioms(t, s, uint64(100+i)) })
	}
	for i, s := range floatSuites() {
		if !s.m.Props.Metric {
			continue // DTW: vetted as non-metric elsewhere
		}
		t.Run(s.m.Name+"/float64", func(t *testing.T) { checkMetricAxioms(t, s, uint64(200+i)) })
	}
	for i, s := range pointSuites() {
		if !s.m.Props.Metric {
			continue
		}
		t.Run(s.m.Name+"/point2", func(t *testing.T) { checkMetricAxioms(t, s, uint64(300+i)) })
	}
}

func TestConsistencyAllConsistentMeasures(t *testing.T) {
	for i, s := range byteSuites() {
		t.Run(s.m.Name+"/byte", func(t *testing.T) { checkConsistency(t, s, uint64(400+i)) })
	}
	for i, s := range floatSuites() {
		t.Run(s.m.Name+"/float64", func(t *testing.T) { checkConsistency(t, s, uint64(500+i)) })
	}
	for i, s := range pointSuites() {
		t.Run(s.m.Name+"/point2", func(t *testing.T) { checkConsistency(t, s, uint64(600+i)) })
	}
}

// DTW must actually exhibit the triangle violation its Props.Metric = false
// declares — otherwise it could be upgraded to the indexed backends.
func TestDTWIsNotAMetric(t *testing.T) {
	dtw := DTW(AbsDiff)
	rng := rand.New(rand.NewPCG(700, 17))
	for trial := 0; trial < 20000; trial++ {
		a := randWalk(rng, 1+rng.IntN(5))
		b := randWalk(rng, 1+rng.IntN(5))
		c := randWalk(rng, 1+rng.IntN(5))
		if dtw(a, c) > dtw(a, b)+dtw(b, c)+1e-9 {
			return // violation found, as documented
		}
	}
	t.Error("no DTW triangle violation found in 20000 random trials; is Props.Metric = false still right?")
}

// The checker itself must catch a genuinely inconsistent distance: one that
// punishes short sequences, so every short SX is far from every SQ even when
// the full pair is close.
func TestFindInconsistencyCatchesBrokenDistance(t *testing.T) {
	broken := func(a, b []byte) float64 {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		d := 10 - n
		if d < 0 {
			d = 0
		}
		return float64(d)
	}
	q := []byte("ABABAB")
	x := []byte("ABABAB")
	w, bad := FindInconsistency(broken, q, x, 1e-9)
	if !bad {
		t.Fatal("broken distance passed the consistency check")
	}
	if w.XEnd-w.XStart >= len(x) {
		t.Errorf("witness %+v should be a proper subsequence", w)
	}
	if w.Best <= w.Base {
		t.Errorf("witness not a violation: best %v ≤ base %v", w.Best, w.Base)
	}
	// And the tolerance must absorb the violation when large enough.
	if _, bad := FindInconsistency(broken, q, x, 100); bad {
		t.Error("tolerance 100 should absorb a violation of at most 9")
	}
}

// Consistency pinned on concrete pairs mirroring the public examples:
// FindInconsistency finds no witness.
func TestConsistentOnExamples(t *testing.T) {
	if w, bad := FindInconsistency(DiscreteFrechet(AbsDiff), []float64{1, 2, 3, 4}, []float64{2, 2, 4, 4}, 1e-9); bad {
		t.Errorf("DFD inconsistent on the documented example: %+v", w)
	}
	// The ERP case that needs the empty counterpart: x's tail aligns with
	// gaps, so its cheapest counterpart in q is the empty sequence.
	if _, bad := FindInconsistency(ERP(AbsDiff, 0), []float64{100}, []float64{100, 1}, 1e-9); bad {
		t.Error("ERP inconsistent on the gap-tail example")
	}
}
