package dist

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// almostEqual tolerates float accumulation differences between the direct
// and incremental/bounded evaluation orders.
func almostEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) == math.IsInf(b, 1)
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := math.Abs(a) + math.Abs(b)
	return diff <= 1e-9*(1+scale)
}

// checkKernelAgainstFn drives the measure's incremental kernel over random
// byte prefixes and windows, asserting that every Feed result equals
// Fn(prefix, w), including across Resets (which must preserve the bound
// window and its preprocessing). Odd trials exercise the rebind path (one
// state carried from window to window via BindKernel), even trials mint a
// fresh state per window.
func checkKernelAgainstFn(t *testing.T, m Measure[byte], alphabet string, maxW, maxQ int) {
	t.Helper()
	if m.Prepare == nil {
		t.Fatalf("%s: no incremental kernel", m.Name)
	}
	rng := rand.New(rand.NewPCG(7, uint64(maxW)))
	var rebound Kernel[byte]
	for trial := 0; trial < 60; trial++ {
		w := randBytes(rng, rng.IntN(maxW+1), alphabet)
		var k Kernel[byte]
		if trial%2 == 0 {
			k = m.NewKernel(w)
		} else {
			rebound = BindKernel(rebound, m.Prepare(w))
			k = rebound
		}
		for pass := 0; pass < 3; pass++ {
			q := randBytes(rng, 1+rng.IntN(maxQ), alphabet)
			for n := 1; n <= len(q); n++ {
				got := k.Feed(q[n-1])
				want := m.Fn(q[:n], w)
				if !almostEqual(got, want) {
					t.Fatalf("%s trial %d pass %d: kernel(%q[:%d], %q) = %v, Fn = %v",
						m.Name, trial, pass, q, n, w, got, want)
				}
			}
			k.Reset()
		}
	}
}

func TestIncrementalKernelsMatchFn(t *testing.T) {
	aa := "ACDEFGHIKLMNPQRSTVWY"
	byteGround := func(a, b byte) float64 { return math.Abs(float64(a) - float64(b)) }
	cases := []struct {
		m          Measure[byte]
		maxW, maxQ int
	}{
		{LevenshteinMeasure[byte](), 24, 30},
		{LevenshteinFastMeasure(), 24, 30},
		{LevenshteinFastMeasure(), 90, 110},  // block-kernel path
		{LevenshteinFastMeasure(), 150, 170}, // deep multi-word kernel
		{ProteinEditMeasure(), 24, 30},
		{WeightedEditMeasure(), 24, 30},
		{ERPMeasure(byteGround, 'G'), 18, 24},
		{EuclideanMeasure(byteGround), 20, 26},
		{HammingMeasure[byte](), 20, 26},
	}
	for _, c := range cases {
		checkKernelAgainstFn(t, c.m, aa, c.maxW, c.maxQ)
	}
}

// The bounded evaluation must return the exact distance at or under eps and
// anything strictly greater than eps otherwise, for every measure that
// claims the capability. The edit-row measures' bounded form is their
// kernel's banded pass, which keeps a result at or under eps by Fn's bits
// (bandedAsUnbanded); the others are held to almostEqual.
func TestBoundedMatchesFn(t *testing.T) {
	aa := "ACDEFGHIKLMNPQRSTVWY"
	byteGround := func(a, b byte) float64 { return math.Abs(float64(a) - float64(b)) }
	measures := []Measure[byte]{
		LevenshteinMeasure[byte](),
		LevenshteinFastMeasure(),
		ProteinEditMeasure(),
		WeightedEditMeasure(),
		ERPMeasure(byteGround, 'G'),
		EuclideanMeasure(byteGround),
		HammingMeasure[byte](),
		DiscreteFrechetMeasure(byteGround),
		DTWMeasure(byteGround),
	}
	rng := rand.New(rand.NewPCG(11, 13))
	for _, m := range measures {
		if m.Bounded == nil {
			t.Fatalf("%s: no bounded evaluation", m.Name)
		}
		editRow := slices.Contains([]string{"levenshtein", "weighted-edit", "protein-edit", "erp"}, m.Name)
		for trial := 0; trial < 400; trial++ {
			na := rng.IntN(40)
			nb := na
			if !m.Props.LockStep {
				nb = rng.IntN(40)
			}
			a := randBytes(rng, na, aa)
			b := randBytes(rng, nb, aa)
			want := m.Fn(a, b)
			var eps float64
			switch rng.IntN(6) {
			case 0:
				eps = want * (0.5 + rng.Float64()) // straddles the true value
			case 1:
				eps = rng.Float64() * 10
			case 2:
				eps = want
			case 3:
				eps = 0
			case 4:
				eps = -rng.Float64() - math.SmallestNonzeroFloat64
			default:
				eps = math.Inf(1)
			}
			if math.IsInf(want, 1) && !math.IsInf(eps, 1) {
				eps = rng.Float64() * 100
			}
			got := m.Bounded(a, b, eps)
			switch {
			case editRow:
				if !bandedAsUnbanded(got, want, eps) {
					t.Fatalf("%s trial %d: Bounded(%q,%q,eps=%v) = %v, Fn %v: not Fn's bits within eps, nor over eps and no greater",
						m.Name, trial, a, b, eps, got, want)
				}
			case want <= eps:
				if !almostEqual(got, want) {
					t.Fatalf("%s trial %d: Bounded(%q,%q,eps=%v) = %v, want exact %v",
						m.Name, trial, a, b, eps, got, want)
				}
			case got <= eps:
				t.Fatalf("%s trial %d: Bounded(%q,%q,eps=%v) = %v ≤ eps but true distance %v > eps",
					m.Name, trial, a, b, eps, got, want)
			}
		}
	}
}

// The banded block path: past 64 bytes levenshteinFastBounded switches to
// the banded multi-word recurrence, which must satisfy the BoundedFunc
// contract against the byte DP across word boundaries and eps regimes
// (straddling the true value, tiny, exact-on-the-boundary, and huge —
// the last degenerating to the unbanded block path).
func TestLevenshteinFastBoundedLongPatterns(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	alphabets := []string{"AB", "ACDEFGHIKLMNPQRSTVWY"}
	for trial := 0; trial < 600; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		var na, nb int
		switch trial % 4 {
		case 0: // first word boundary
			na, nb = 62+rng.IntN(8), 62+rng.IntN(8)
		case 1: // second word boundary
			na, nb = 124+rng.IntN(10), 124+rng.IntN(10)
		case 2: // deep multi-word, similar lengths
			na = 150 + rng.IntN(80)
			nb = na + rng.IntN(21) - 10
		default: // very different lengths (length-difference cutoff)
			na, nb = 70+rng.IntN(60), 70+rng.IntN(160)
		}
		a := randBytes(rng, na, alpha)
		b := randBytes(rng, max(nb, 0), alpha)
		want := LevenshteinBytes(a, b)
		var eps float64
		switch rng.IntN(4) {
		case 0:
			eps = want + float64(rng.IntN(7)) - 3
		case 1:
			eps = float64(rng.IntN(10))
		case 2:
			eps = want
		default:
			eps = 1e9
		}
		got := levenshteinFastBounded(a, b, eps)
		if want <= eps {
			if got != want {
				t.Fatalf("trial %d (len %d vs %d, eps=%v): bounded = %v, want exact %v",
					trial, len(a), len(b), eps, got, want)
			}
		} else if got <= eps {
			t.Fatalf("trial %d (len %d vs %d, eps=%v): bounded = %v ≤ eps but true distance %v > eps",
				trial, len(a), len(b), eps, got, want)
		}
	}
}

// A Prepared's tables must be shared by every state it mints: the states
// carry only the cheap mutable half. This is the O(windows) memory claim —
// per-worker state does not duplicate the immutable window preprocessing.
func TestPreparedSharesTablesAcrossStates(t *testing.T) {
	aa := "ACDEFGHIKLMNPQRSTVWY"
	rng := rand.New(rand.NewPCG(31, 37))
	w := randBytes(rng, 150, aa)

	// Block Myers: the 256·⌈m/64⌉-word peq table lives on the Prepared.
	bp, ok := myersPrepare(w).(*myersBlockPrepared)
	if !ok {
		t.Fatalf("myersPrepare(150B) = %T, want *myersBlockPrepared", myersPrepare(w))
	}
	s1 := bp.NewState().(*myersBlockState)
	s2 := bp.NewState().(*myersBlockState)
	if s1.p != s2.p || &s1.p.peq[0] != &s2.p.peq[0] {
		t.Fatal("block states do not share the prepared peq table")
	}
	if &s1.pv[0] == &s2.pv[0] {
		t.Fatal("block states share mutable delta words")
	}
	if stateWords, tableWords := 2*len(s1.pv), len(bp.peq); stateWords*8 >= tableWords {
		t.Fatalf("state (%d words) not small next to the shared table (%d words)", stateWords, tableWords)
	}

	// Edit-row family: the base row lives on the Prepared.
	ep := levenshteinPrepare[byte](w).(*editRowPrepared[byte])
	e1 := ep.NewState().(*editRowState[byte])
	e2 := ep.NewState().(*editRowState[byte])
	if e1.p != e2.p || &e1.p.base[0] != &e2.p.base[0] {
		t.Fatal("edit-row states do not share the prepared base row")
	}
	if &e1.row[0] == &e2.row[0] {
		t.Fatal("edit-row states share the mutable row")
	}

	// Minting a state must not rebuild the preprocessing: a block state is
	// the struct plus its two delta slices.
	allocs := testing.AllocsPerRun(100, func() { kernelSink = bp.NewState() })
	if allocs > 3 {
		t.Fatalf("block NewState allocates %v objects per run, want ≤ 3", allocs)
	}
	// Rebinding an existing state allocates nothing at all.
	st := bp.NewState()
	bp2 := myersPrepare(randBytes(rng, 140, aa))
	allocs = testing.AllocsPerRun(100, func() {
		st = BindKernel(st, bp)
		st = BindKernel(st, bp2)
	})
	if allocs != 0 {
		t.Fatalf("BindKernel rebind allocates %v objects per run, want 0", allocs)
	}

	// Cross-family rebinds must refuse and fall back to a fresh state.
	if myersPrepare([]byte("A")).NewState().(*myersState64).Rebind(bp) {
		t.Fatal("single-word state rebound to a block Prepared")
	}
}

var kernelSink Kernel[byte]

// Bounded with an infinite radius must degenerate to the exact distance —
// the configuration the linear-scan filter uses when callers pass huge
// radii.
func TestBoundedUnboundedRadiusIsExact(t *testing.T) {
	aa := "ACDEFGHIKLMNPQRSTVWY"
	rng := rand.New(rand.NewPCG(17, 19))
	m := LevenshteinMeasure[byte]()
	for trial := 0; trial < 100; trial++ {
		a := randBytes(rng, rng.IntN(50), aa)
		b := randBytes(rng, rng.IntN(50), aa)
		if got, want := m.Bounded(a, b, math.Inf(1)), m.Fn(a, b); got != want {
			t.Fatalf("trial %d: Bounded(inf) = %v, Fn = %v", trial, got, want)
		}
	}
}
