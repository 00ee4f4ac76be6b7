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
// Random inputs of the kernel-contract tests.
func letters(alphabet string) func(*rand.Rand, int) []byte {
	return func(rng *rand.Rand, n int) []byte { return randBytes(rng, n, alphabet) }
}

func levels(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()*8 - 4
	}
	return s
}

func points(rng *rand.Rand, n int) []seq.Point2 {
	s := make([]seq.Point2, n)
	for i := range s {
		s[i] = seq.Point2{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4}
	}
	return s
}

const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// Window lengths the contract tests walk in order: short ones, and for Myers
// both sides of each word boundary, then back down so Reprepare shrinks a
// block table to a single word.
var (
	shortLens = []int{0, 1, 2, 9, 17, 5}
	wordLens  = []int{1, 63, 64, 65, 128, 129, 64, 1}
)

func TestKernelTablesMatchFn(t *testing.T) {
	aa, short, words := letters(aminoAcids), shortLens, wordLens

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

// checkFreeStart holds the free-start mode of k (bound to w) to its meaning:
// rewound and fed q[lo:e] through FeedFree, At(j) carries the float64 bits of
// the least Fn(q[s:e], w[:j]) over lo ≤ s ≤ e — the empty segment s = e
// included — at every lo, e and j, and FeedFree returns At(len(w)). Every lo
// starts from a state a plain Feed has dirtied, so Reset is what rewinds it.
func checkFreeStart[E any](t *testing.T, what string, m Measure[E], k FreeStartKernel[E], q, w []E) {
	t.Helper()
	// least[e][j] is that minimum for the current lo, lowered start by start.
	least := make([][]float64, len(q)+1)
	for e := range least {
		least[e] = make([]float64, len(w)+1)
		for j := range least[e] {
			least[e][j] = math.Inf(1)
		}
	}
	for lo := len(q); lo >= 0; lo-- {
		for e := lo; e <= len(q); e++ {
			for j := range least[e] {
				if v := m.Fn(q[lo:e], w[:j]); v < least[e][j] {
					least[e][j] = v
				}
			}
		}
		if len(q) > 0 {
			k.Feed(q[0])
		}
		k.Reset()
		for e := lo; e <= len(q); e++ {
			if e > lo {
				if fed := k.FeedFree(q[e-1]); math.Float64bits(fed) != math.Float64bits(k.At(len(w))) {
					t.Fatalf("%s %s: FeedFree = %v after q[%d:%d], At(len(w)) = %v", m.Name, what, fed, lo, e, k.At(len(w)))
				}
			}
			for j, want := range least[e] {
				if got := k.At(j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s (|w|=%d): free-start At(%d) after q[%d:%d] = %v (bits %x), least Fn over starts = %v (bits %x)",
						m.Name, what, len(w), j, lo, e, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// checkFreeStartBindings runs checkFreeStart through the ways a state comes
// to be bound, as checkKernelTables does: minted, rebound to another window's
// tables, and rebound to tables rebuilt in place.
func checkFreeStartBindings[E any](t *testing.T, m Measure[E], gen func(*rand.Rand, int) []E, wLens []int, qLen int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(43, uint64(len(wLens))))
	var owned Prepared[E]
	var reused FreeStartKernel[E]
	for _, n := range wLens {
		w, w2, q := gen(rng, n), gen(rng, n), gen(rng, qLen)
		k := BindFreeStart(nil, m.Prepare(w))
		if k == nil {
			t.Fatalf("%s: kernel over %d elements has no free-start mode", m.Name, n)
		}
		checkFreeStart(t, "fresh", m, k, q, w)
		if BindFreeStart(k, m.Prepare(w2)) != k {
			t.Fatalf("%s: state not rebound in place to a same-length window", m.Name)
		}
		checkFreeStart(t, "after Rebind", m, k, q, w2)
		owned = m.Reprepare(owned, w)
		if reused = BindFreeStart(reused, owned); reused == nil {
			t.Fatalf("%s: kernel over reprepared tables has no free-start mode", m.Name)
		}
		checkFreeStart(t, "after Reprepare", m, reused, q, w)
	}
}

// The free-start pass is a proof the filter prunes on: its value must be the
// least Fn over starts exactly — a bound that is only close would let a
// pre-pass and an exact pass disagree about a pair at the radius.
func TestKernelFreeStartMatchesBruteMin(t *testing.T) {
	aa := letters(aminoAcids)
	checkFreeStartBindings(t, LevenshteinMeasure[byte](), letters("AB"), shortLens, 12)
	checkFreeStartBindings(t, LevenshteinMeasure[float64](), levels, shortLens, 12)
	checkFreeStartBindings(t, LevenshteinFastMeasure(), aa, shortLens, 12)
	checkFreeStartBindings(t, LevenshteinFastMeasure(), letters("AB"), wordLens, 40)
	checkFreeStartBindings(t, LevenshteinFastMeasure(), aa, wordLens, 24)
	checkFreeStartBindings(t, ProteinEditMeasure(), aa, shortLens, 12)
	checkFreeStartBindings(t, WeightedEditMeasure(), letters("ABC"), shortLens, 12)
	checkFreeStartBindings(t, ERPMeasure(AbsDiff, 0), levels, shortLens, 12)
	checkFreeStartBindings(t, ERPMeasure(Point2Dist, seq.Point2{}), points, shortLens, 12)

	// A lock-step measure has no start to free, and the Fn adapter prices
	// nothing on a feed: neither may claim the mode.
	if k := BindFreeStart(nil, EuclideanMeasure(AbsDiff).Prepare(levels(rand.New(rand.NewPCG(1, 1)), 4))); k != nil {
		t.Fatalf("euclidean kernel claims a free-start mode: %T", k)
	}
	if k := BindFreeStart(nil, HammingMeasure[byte]().Prepare([]byte("ABBA"))); k != nil {
		t.Fatalf("hamming kernel claims a free-start mode: %T", k)
	}
	if k := BindFreeStart(nil, DTWMeasure(AbsDiff).Reprepare(nil, []float64{1, 2})); k != nil {
		t.Fatalf("the Fn adapter claims a free-start mode: %T", k)
	}
}

// FuzzFreeStartLowerBound states the one property the filter leans on, over
// inputs nobody chose: after q[lo:e] the free-start value is at most
// Fn(q[s:e], w) for every start s in lo..e, whatever the measure, the window
// (one word, several, empty) and the start the pass began at. The committed
// corpus under testdata/fuzz/FuzzFreeStartLowerBound runs as seeds under a
// plain go test.
func FuzzFreeStartLowerBound(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(0), uint8(0))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, q, w []byte, which, lo uint8) {
		if len(q) > 48 {
			q = q[:48]
		}
		if len(w) > 160 {
			w = w[:160]
		}
		from := int(lo) % (len(q) + 1)
		switch which % 5 {
		case 0:
			freeStartLowerBound(t, LevenshteinFastMeasure(), q, w, from)
		case 1:
			freeStartLowerBound(t, LevenshteinMeasure[byte](), q, w, from)
		case 2:
			freeStartLowerBound(t, WeightedEditMeasure(), q, w, from)
		case 3:
			freeStartLowerBound(t, ProteinEditMeasure(), q, w, from)
		case 4:
			freeStartLowerBound(t, ERPMeasure(Point2Dist, seq.Point2{}), bytePoints(q), bytePoints(w), from/2)
		}
	})
}

// bytePoints reads b as planar points, two signed bytes each.
func bytePoints(b []byte) []seq.Point2 {
	ps := make([]seq.Point2, len(b)/2)
	for i := range ps {
		ps[i] = seq.Point2{X: float64(int8(b[2*i])) / 8, Y: float64(int8(b[2*i+1])) / 8}
	}
	return ps
}

func freeStartLowerBound[E any](t *testing.T, m Measure[E], q, w []E, lo int) {
	k := BindFreeStart(nil, m.Prepare(w))
	if k == nil {
		t.Fatalf("%s: no free-start mode over %d elements", m.Name, len(w))
	}
	for e := lo; e <= len(q); e++ {
		got := k.At(len(w))
		if e > lo {
			got = k.FeedFree(q[e-1])
		}
		for s := lo; s <= e; s++ {
			if d := m.Fn(q[s:e], w); got > d {
				t.Fatalf("%s: free-start value %v after q[%d:%d] exceeds Fn(q[%d:%d], w) = %v (q %v, w %v)",
					m.Name, got, lo, e, s, e, d, q, w)
			}
		}
	}
}
