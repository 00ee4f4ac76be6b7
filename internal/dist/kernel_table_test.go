package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/seq"
)

// checkTable feeds q into k (bound to w, rewound) and checks, after every
// row, the whole read side of the Kernel contract against Fn: At(j) carries
// the float64 bits of Fn(q[:i], w[:j]) at every j, Feed returns At(len(w)),
// and Floor is at most every cell of every later row. With adapter set, k is
// the Fn adapter, whose Feed prices nothing.
func checkTable[E any](t *testing.T, what string, m Measure[E], k Kernel[E], q, w []E, adapter bool) {
	t.Helper()
	table := make([][]float64, len(q)+1)
	for i := range table {
		table[i] = make([]float64, len(w)+1)
		for j := range table[i] {
			table[i][j] = m.Fn(q[:i], w[:j])
		}
	}
	for i := 0; i <= len(q); i++ {
		if i > 0 {
			fed := k.Feed(q[i-1])
			switch {
			case adapter && !math.IsNaN(fed):
				t.Fatalf("%s %s: adapter Feed = %v at row %d, want NaN (nothing priced)", m.Name, what, fed, i)
			case !adapter && math.Float64bits(fed) != math.Float64bits(k.At(len(w))):
				t.Fatalf("%s %s: Feed = %v at row %d, At(len(w)) = %v", m.Name, what, fed, i, k.At(len(w)))
			}
		}
		for j := 0; j <= len(w); j++ {
			if got, want := k.At(j), table[i][j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %s (|w|=%d): At(%d) after %d feeds = %v (bits %x), Fn = %v (bits %x)",
					m.Name, what, len(w), j, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		floor := k.Floor()
		if adapter && floor != 0 {
			t.Fatalf("%s %s: adapter Floor = %v, want 0", m.Name, what, floor)
		}
		for _, later := range table[i+1:] {
			for j, cell := range later {
				if floor > cell {
					t.Fatalf("%s %s (|w|=%d): Floor after %d feeds = %v exceeds later cell [%d] = %v",
						m.Name, what, len(w), i, floor, j, cell)
				}
			}
		}
	}
}

// checkKernelTables runs checkTable over window lengths wLens through every
// way a kernel comes to be bound to a window: freshly minted, rewound by
// Reset, rebound to another window's tables (Rebind), and rebound to tables
// rebuilt in place (Reprepare) — the verifier's per-pass path, which walks
// the lengths in order and so grows and shrinks the tables and, for Myers,
// crosses between the word and block forms.
func checkKernelTables[E any](t *testing.T, m Measure[E], gen func(*rand.Rand, int) []E, wLens []int, qLen int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(41, uint64(len(wLens))))
	adapter := m.Prepare == nil
	var owned Prepared[E]
	var reused Kernel[E]
	for _, n := range wLens {
		w, q := gen(rng, n), gen(rng, qLen)
		if !adapter {
			k := m.NewKernel(w)
			checkTable(t, "fresh", m, k, q, w, false)
			k.Reset()
			checkTable(t, "after Reset", m, k, gen(rng, qLen), w, false)
			w2 := gen(rng, n)
			if rb := BindKernel(k, m.Prepare(w2)); rb != k {
				t.Fatalf("%s: state not rebound in place to a same-length window", m.Name)
			}
			checkTable(t, "after Rebind", m, k, q, w2, false)
		}
		owned = m.Reprepare(owned, w)
		if owned.WindowLen() != n {
			t.Fatalf("%s: Reprepare bound %d elements, want %d", m.Name, owned.WindowLen(), n)
		}
		reused = BindKernel(reused, owned)
		checkTable(t, "after Reprepare", m, reused, q, w, adapter)
		reused.Reset()
		checkTable(t, "after Reprepare+Reset", m, reused, gen(rng, qLen), w, adapter)
	}
}

// Every built-in kernel family must honour the read side of the Kernel
// contract bit for bit: the verifier reports At's value as a match's Dist,
// and answers are compared by their bytes across every serving topology.
func TestKernelTablesMatchFn(t *testing.T) {
	letters := func(alphabet string) func(*rand.Rand, int) []byte {
		return func(rng *rand.Rand, n int) []byte { return randBytes(rng, n, alphabet) }
	}
	aa := letters("ACDEFGHIKLMNPQRSTVWY")
	levels := func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()*8 - 4
		}
		return s
	}
	points := func(rng *rand.Rand, n int) []seq.Point2 {
		s := make([]seq.Point2, n)
		for i := range s {
			s[i] = seq.Point2{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4}
		}
		return s
	}
	short := []int{0, 1, 2, 9, 17, 5}
	// Myers: both sides of each word boundary, then back down so Reprepare
	// shrinks a block table to a single word.
	words := []int{1, 63, 64, 65, 128, 129, 64, 1}

	checkKernelTables(t, LevenshteinMeasure[byte](), letters("AB"), short, 12)
	checkKernelTables(t, LevenshteinMeasure[float64](), levels, short, 12)
	checkKernelTables(t, LevenshteinFastMeasure(), aa, short, 12)
	checkKernelTables(t, LevenshteinFastMeasure(), letters("AB"), words, 140)
	checkKernelTables(t, LevenshteinFastMeasure(), aa, words, 70)
	checkKernelTables(t, ProteinEditMeasure(), aa, short, 12)
	checkKernelTables(t, WeightedEditMeasure(), letters("ABC"), short, 12)
	checkKernelTables(t, ERPMeasure(AbsDiff, 0), levels, short, 12)
	checkKernelTables(t, ERPMeasure(Point2Dist, seq.Point2{}), points, short, 12)
	checkKernelTables(t, EuclideanMeasure(AbsDiff), levels, short, 12)
	checkKernelTables(t, EuclideanMeasure(Point2Dist), points, short, 12)
	checkKernelTables(t, HammingMeasure[byte](), letters("AB"), short, 12)

	// Measures without Prepare read through the Fn adapter.
	checkKernelTables(t, DTWMeasure(AbsDiff), levels, short, 12)
	checkKernelTables(t, DiscreteFrechetMeasure(Point2Dist), points, short, 12)
}
