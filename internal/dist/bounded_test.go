package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/seq"
)

// FuzzEditRowBoundedMatchesFn holds the bounded form of every edit-row
// measure to its Fn on inputs nobody chose: at the fuzzed radius, at Fn's
// value (a tie) and just under it, a result within the radius is Fn's bits
// and any other is over the radius (bandedAsUnbanded). which picks the
// measure; ERP runs over coarse levels, a third of them the gap element, so
// an indel can cost 0.
func FuzzEditRowBoundedMatchesFn(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(2), 2.0)
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(0), 3.5)
	f.Add([]byte{0, 0, 3, 0, 4, 1, 0, 2}, []byte{1, 0, 0, 2, 0, 0}, uint8(3), 1.0)
	f.Add([]byte{8, 9, 16, 17, 24, 23, 30, 32}, []byte{8, 8, 16, 16, 24, 24, 32, 32}, uint8(4), 0.0)
	f.Add([]byte("GATTACA"), []byte("TACAGATTACA"), uint8(1), math.Inf(1))
	f.Fuzz(func(t *testing.T, a, b []byte, which uint8, eps float64) {
		if math.IsNaN(eps) {
			return
		}
		const most = 70
		a, b = a[:min(len(a), most)], b[:min(len(b), most)]
		switch which % 5 {
		case 0:
			fuzzBounded(t, LevenshteinMeasure[byte](), a, b, eps)
		case 1:
			fuzzBounded(t, WeightedEditMeasure(), a, b, eps)
		case 2:
			fuzzBounded(t, ProteinEditMeasure(), a, b, eps)
		case 3:
			fuzzBounded(t, ERPMeasure(AbsDiff, 0), coarseLevels(a), coarseLevels(b), eps)
		case 4:
			fuzzBounded(t, ERPMeasure(Point2Dist, seq.Point2{}), bytePoints(a), bytePoints(b), eps)
		}
	})
}

// coarseLevels reads b as levels -1, 0 and 1.
func coarseLevels(b []byte) []float64 {
	s := make([]float64, len(b))
	for i, c := range b {
		s[i] = float64(c%3) - 1
	}
	return s
}

func fuzzBounded[E any](t *testing.T, m Measure[E], a, b []E, eps float64) {
	t.Helper()
	want := m.Fn(a, b)
	for _, r := range []float64{eps, want, math.Nextafter(want, math.Inf(-1))} {
		if got := m.Bounded(a, b, r); !bandedAsUnbanded(got, want, r) {
			t.Fatalf("%s: Bounded(%v, %v, %v) = %v, Fn %v", m.Name, a, b, r, got, want)
		}
	}
}

// An edit-row measure's bounded form allocates one buffer per call, whether
// it runs to the end or abandons.
func TestEditRowBoundedAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 50))
	bytes := letters(aminoAcids)
	allocs := func(name string, bounded func(eps float64) float64) {
		t.Helper()
		for _, eps := range []float64{0, 2, 8, math.Inf(1)} {
			if n := testing.AllocsPerRun(50, func() { bounded(eps) }); n > 1 {
				t.Errorf("%s at eps %v: %v allocations per call, want at most 1", name, eps, n)
			}
		}
	}
	for _, m := range []Measure[byte]{LevenshteinMeasure[byte](), WeightedEditMeasure(), ProteinEditMeasure()} {
		a, b := bytes(rng, 20), bytes(rng, 20)
		allocs(m.Name, func(eps float64) float64 { return m.Bounded(a, b, eps) })
	}
	erp := ERPMeasure(AbsDiff, 0)
	a, b := levels(rng, 20), levels(rng, 20)
	allocs("erp/float64", func(eps float64) float64 { return erp.Bounded(a, b, eps) })
	erp2 := ERPMeasure(Point2Dist, seq.Point2{})
	p, q := points(rng, 20), points(rng, 20)
	allocs("erp/point2", func(eps float64) float64 { return erp2.Bounded(p, q, eps) })
}
