package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/seq"
)

// sameRun feeds q to two states over one window of n elements: ref one
// element a call, k through Run and RunFree in the stretches cuts lays out.
// The first free elements go through FeedFree and RunFree (the start-range
// shape: a free-start prefix, then exact feeds); free is 0 for a state
// without the mode. cuts are the stretch ends, ascending, the last len(q);
// a stretch may be empty or straddle free, and is then fed as two calls.
// Every value Run writes must carry the bits of the call it stands for, and
// after every stretch At(j) at every 0 ≤ j ≤ n and Floor must too.
func sameRun[E any](t *testing.T, what string, ref, k Kernel[E], n int, q []E, free int, cuts []int) {
	t.Helper()
	lo := 0
	for _, hi := range cuts {
		for _, part := range [][2]int{{lo, min(hi, free)}, {max(lo, free), hi}} {
			a, b := part[0], part[1]
			if a > b || (a == b && a != lo) {
				continue
			}
			out := make([]float64, b-a+1) // one spare: Run writes len(x) values only
			out[b-a] = -1
			if a < free {
				RunFree(k.(FreeStartKernel[E]), q[a:b], out)
			} else {
				Run(k, q[a:b], out)
			}
			if out[b-a] != -1 {
				t.Fatalf("%s: stretch q[%d:%d] wrote past its end", what, a, b)
			}
			for i := a; i < b; i++ {
				var want float64
				if i < free {
					want = ref.(FreeStartKernel[E]).FeedFree(q[i])
				} else {
					want = ref.Feed(q[i])
				}
				if got := out[i-a]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: stretch q[%d:%d] (free to %d), value %d = %v, per-element %v", what, a, b, free, i, got, want)
				}
			}
		}
		for j := 0; j <= n; j++ {
			if got, want := k.At(j), ref.At(j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: after q[:%d] (free to %d), At(%d) = %v, per-element %v", what, hi, free, j, got, want)
			}
		}
		if got, want := k.Floor(), ref.Floor(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: after q[:%d] (free to %d), Floor = %v, per-element %v", what, hi, free, got, want)
		}
		lo = hi
	}
}

// runShapes are the stretch layouts every state is run through over q: the
// empty stretch, then one element, then the rest at once (over 64 elements
// when q is that long); one stretch for all of q; and random cuts.
func runShapes(rng *rand.Rand, qLen int) [][]int {
	shapes := [][]int{{0, min(1, qLen), qLen}, {qLen}}
	cuts := []int{}
	for at := 0; at < qLen && len(cuts) < 8; {
		at = min(qLen, at+rng.IntN(qLen/2+2)) // an empty stretch now and then
		cuts = append(cuts, at)
	}
	return append(shapes, append(cuts, qLen))
}

// checkRun holds Run and RunFree to the per-element loop for states minted
// by mk (two at a time: ref and the state under test), rewound between
// shapes, at free-start prefixes 0, 1, a random one and all of q when the
// state has the mode.
func checkRun[E any](t *testing.T, what string, mk func() Kernel[E], n int, q []E, rng *rand.Rand) {
	t.Helper()
	frees := []int{0}
	if _, ok := mk().(FreeStartKernel[E]); ok {
		frees = append(frees, min(1, len(q)), rng.IntN(len(q)+1), len(q))
	}
	for _, free := range frees {
		for _, cuts := range runShapes(rng, len(q)) {
			ref, k := mk(), mk()
			sameRun(t, fmt.Sprintf("%s |q|=%d cuts %v", what, len(q), cuts), ref, k, n, q, free, cuts)
			// A rewound state runs the same again.
			ref.Reset()
			k.Reset()
			sameRun(t, fmt.Sprintf("%s |q|=%d cuts %v after Reset", what, len(q), cuts), ref, k, n, q, free, cuts)
		}
	}
}

// checkRunPrepared is checkRun over states of m's kernel bound to windows
// of every length in wLens, for queries of 0, 1 and qLen elements.
func checkRunPrepared[E any](t *testing.T, m Measure[E], gen func(*rand.Rand, int) []E, wLens []int, qLen int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(51, uint64(qLen)))
	for _, n := range wLens {
		w := gen(rng, n)
		p := m.Reprepare(nil, w)
		for _, ql := range []int{0, 1, qLen} {
			checkRun(t, fmt.Sprintf("%s |w|=%d", m.Name, n), p.NewState, n, gen(rng, ql), rng)
		}
	}
}

// The filter (internal/core) feeds its exact and free-start passes through
// Run and RunFree; a state that runs them as one loop must give what the
// per-element calls give, and the helpers' fallback must be those calls.
func TestRunMatchesFeed(t *testing.T) {
	aa := letters(aminoAcids)

	// One-word Myers on its own table (the Runner loop) and multi-word
	// Myers (the fallback), both sides of each word boundary.
	checkRunPrepared(t, LevenshteinFastMeasure(), aa, []int{1, 2, 20, 63, 64}, 70)
	checkRunPrepared(t, LevenshteinFastMeasure(), letters("AB"), []int{65, 128, 129}, 140)
	// The edit-row family, lock-step kernels and the Fn adapter.
	checkRunPrepared(t, LevenshteinMeasure[byte](), letters("AB"), shortLens, 70)
	checkRunPrepared(t, ProteinEditMeasure(), aa, shortLens, 70)
	checkRunPrepared(t, ERPMeasure(Point2Dist, seq.Point2{}), points, shortLens, 70)
	checkRunPrepared(t, EuclideanMeasure(AbsDiff), levels, shortLens, 70)
	checkRunPrepared(t, HammingMeasure[byte](), letters("AB"), shortLens, 70)
	checkRunPrepared(t, DTWMeasure(AbsDiff), levels, []int{0, 1, 5}, 12)

	// One-word Myers bound to fields 1 and 2 of a pack of four: the later
	// fields' bits sit above each field and must not reach its values.
	rng := rand.New(rand.NewPCG(51, 4))
	for _, lens := range [][]int{{20, 20, 20, 4}, {1, 13, 30, 20}} {
		ws := make([][]byte, len(lens))
		for f, n := range lens {
			ws[f] = randBytes(rng, n, aminoAcids)
		}
		p := myersPacker{}.Pack(ws)
		for _, f := range []int{1, 2} {
			mk := func() Kernel[byte] { return p.Bind(nil, f) }
			for _, ql := range []int{0, 1, 70} {
				checkRun(t, fmt.Sprintf("field %d of %v", f, lens), mk, lens[f], randBytes(rng, ql, aminoAcids), rng)
			}
		}
	}

	// The states that run as one loop do implement Runner.
	if _, ok := LevenshteinFastMeasure().NewKernel([]byte("ACD")).(Runner[byte]); !ok {
		t.Fatal("the one-word Myers state is not a Runner")
	}
}

// FuzzRunMatchesFeed is TestRunMatchesFeed over inputs nobody chose: the
// kernel family is drawn from which, and cut sets the free-start prefix
// and the stretch length (cut%17+1 elements).
func FuzzRunMatchesFeed(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(0), uint8(3))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, q, w []byte, which, cut uint8) {
		if len(q) > 140 {
			q = q[:140]
		}
		if len(w) > 160 {
			w = w[:160]
		}
		free := int(cut) % (len(q) + 1)
		var cuts []int
		for at := 0; at < len(q); at += int(cut)%17 + 1 {
			cuts = append(cuts, at)
		}
		cuts = append(cuts, len(q))
		switch which % 7 {
		case 0: // one-word Myers, own table or multi-word
			if len(w) == 0 {
				w = []byte{'A'}
			}
			fuzzRun(t, LevenshteinFastMeasure(), q, w, free, cuts)
		case 1: // one-word Myers at a field with windows below and above it
			w = w[:min(len(w), 30)]
			if len(w) == 0 {
				w = []byte{'A'}
			}
			p := myersPacker{}.Pack([][]byte{[]byte("ACD"), w, w})
			sameRun(t, "field 1", p.Bind(nil, 1), p.Bind(nil, 1), len(w), q, free, cuts)
		case 2:
			fuzzRun(t, LevenshteinMeasure[byte](), q, w, free, cuts)
		case 3:
			fuzzRun(t, ERPMeasure(Point2Dist, seq.Point2{}), bytePoints(q), bytePoints(w), free/2, halve(cuts))
		case 4:
			fuzzRun(t, ProteinEditMeasure(), q, w, free, cuts)
		case 5:
			fuzzRun(t, EuclideanMeasure(AbsDiff), byteLevels(q), byteLevels(w), 0, cuts)
		case 6:
			fuzzRun(t, HammingMeasure[byte](), q, w, 0, cuts)
		}
	})
}

func fuzzRun[E any](t *testing.T, m Measure[E], q, w []E, free int, cuts []int) {
	p := m.Reprepare(nil, w)
	if _, ok := p.NewState().(FreeStartKernel[E]); !ok {
		free = 0
	}
	sameRun(t, m.Name, p.NewState(), p.NewState(), len(w), q, free, cuts)
}

// halve maps stretch ends over bytes to ends over the points bytePoints
// reads two bytes to.
func halve(cuts []int) []int {
	out := make([]int, len(cuts))
	for i, c := range cuts {
		out[i] = c / 2
	}
	return out
}

// rowStretch prices q[lo:hi] against cr's window of n elements as RunRows
// reads it: the rows back to back, n apart, and their indel costs.
func rowStretch[E any](cr CostRower[E], q []E, n int) (c, dx []float64) {
	c, dx = make([]float64, len(q)*n), make([]float64, len(q))
	for i, x := range q {
		dx[i] = costRow(cr, x, c[i*n:(i+1)*n])
	}
	return c, dx
}

// sameRunRows rewinds ref and k, bands both at r when r ≥ 0, and feeds q
// to ref a row a call (FeedFreeRow for the first free rows, FeedRow after)
// and to k through RunFreeRows and RunRows in the stretches cuts lays out,
// as sameRun does. Every value the stretch calls write must carry the bits
// of the call it stands for, and after every stretch At(j) at every
// 0 ≤ j ≤ n and Floor must too.
func sameRunRows[E any](t *testing.T, what string, cr CostRower[E], ref, k RowKernel[E], n int, q []E, free int, cuts []int, r float64) {
	t.Helper()
	ref.Reset()
	k.Reset()
	if r >= 0 {
		ref.Within(r)
		k.Within(r)
	}
	c, dx := rowStretch(cr, q, n)
	lo := 0
	for _, hi := range cuts {
		for _, part := range [][2]int{{lo, min(hi, free)}, {max(lo, free), hi}} {
			a, b := part[0], part[1]
			if a > b || (a == b && a != lo) {
				continue
			}
			out := make([]float64, b-a+1) // one spare: the call writes len(out) values only
			out[b-a] = -1
			if a < free {
				k.RunFreeRows(c[a*n:b*n], dx[a:b], out[:b-a])
			} else {
				k.RunRows(c[a*n:b*n], dx[a:b], out[:b-a])
			}
			if out[b-a] != -1 {
				t.Fatalf("%s: stretch q[%d:%d] wrote past its end", what, a, b)
			}
			for i := a; i < b; i++ {
				var want float64
				if i < free {
					want = ref.FeedFreeRow(c[i*n:(i+1)*n], dx[i])
				} else {
					want = ref.FeedRow(c[i*n:(i+1)*n], dx[i])
				}
				if got := out[i-a]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: stretch q[%d:%d] (free to %d), row %d = %v, a row a call %v", what, a, b, free, i, got, want)
				}
			}
		}
		for j := 0; j <= n; j++ {
			if got, want := k.At(j), ref.At(j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: after q[:%d] (free to %d), At(%d) = %v, a row a call %v", what, hi, free, j, got, want)
			}
		}
		if got, want := k.Floor(), ref.Floor(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: after q[:%d] (free to %d), Floor = %v, a row a call %v", what, hi, free, got, want)
		}
		lo = hi
	}
}

// rowShapes are the stretch layouts q is run through: stretches of 0, 1,
// 2, 3, 4, 5 … rows in turn, and all of q at once.
func rowShapes(qLen int) [][]int {
	var grow []int
	for at, step := 0, 0; at < qLen; step++ {
		at = min(qLen, at+step)
		grow = append(grow, at)
	}
	return [][]int{append(grow, qLen), {qLen}}
}

// checkRunRows holds RunRows and RunFreeRows to the row-a-call loop for m's
// kernel over windows of every length in wLens, through every way a state
// comes to be bound (minted, rewound, Rebind, Reprepare), unbanded and
// banded, at free-start prefixes 0, 1, a random one and all of q.
func checkRunRows[E any](t *testing.T, m Measure[E], gen func(*rand.Rand, int) []E, wLens []int, qLen int, r float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(55, uint64(qLen)))
	var owned Prepared[E]
	var oref, ok RowKernel[E]
	for _, n := range wLens {
		w, w2 := gen(rng, n), gen(rng, n)
		cr, ref, k := rowKernels(t, m, m.Prepare(w), nil, nil)
		for _, ql := range []int{0, 1, 2, 3, qLen} {
			q := gen(rng, ql)
			for _, free := range []int{0, min(1, ql), rng.IntN(ql + 1), ql} {
				for _, cuts := range rowShapes(ql) {
					for _, band := range []float64{-1, r} {
						what := fmt.Sprintf("%s |w|=%d |q|=%d cuts %v band %v", m.Name, n, ql, cuts, band)
						sameRunRows(t, what+" fresh", cr, ref, k, n, q, free, cuts, band)
						// Reset rewinds what the last stretch left.
						sameRunRows(t, what+" after Reset", cr, ref, k, n, q, free, cuts, band)
					}
				}
			}
		}
		q := gen(rng, qLen)
		cr, ref, k = rowKernels(t, m, m.Prepare(w2), ref, k)
		sameRunRows(t, m.Name+" after Rebind", cr, ref, k, n, q, 1, rowShapes(qLen)[0], -1)
		owned = m.Reprepare(owned, w)
		cr, oref, ok = rowKernels(t, m, owned, oref, ok)
		sameRunRows(t, m.Name+" after Reprepare", cr, oref, ok, n, q, 2, rowShapes(qLen)[0], -1)
		sameRunRows(t, m.Name+" after Reprepare", cr, oref, ok, n, q, 0, rowShapes(qLen)[1], r)
	}
}

// The filter's passes (internal/core) feed a priced stretch through
// RunRows and RunFreeRows; those must give what a row a call gives, for
// every edit-row measure in the catalog.
func TestRunRowsMatchesFeedRow(t *testing.T) {
	lens := []int{0, 1, 2, 3, 20, 33}
	checkRunRows(t, ERPMeasure(AbsDiff, 0), levels, lens, 41, 3)
	checkRunRows(t, ERPMeasure(Point2Dist, seq.Point2{}), points, lens, 41, 6)
	checkRunRows(t, LevenshteinMeasure[byte](), letters("AB"), lens, 41, 2)
	checkRunRows(t, LevenshteinMeasure[float64](), levels, lens, 41, 4)
	checkRunRows(t, WeightedEditMeasure(), letters("ABC"), lens, 41, 3)
	checkRunRows(t, ProteinEditMeasure(), letters(aminoAcids+"BZ"), lens, 41, 8)
}

// FuzzRunRowsMatchesFeedRow is TestRunRowsMatchesFeedRow over inputs nobody
// chose: the measure, whether the state is banded and whether its window
// is reprepared in place are drawn from which, and cut sets the free-start
// prefix and the stretch length (cut%7 rows).
func FuzzRunRowsMatchesFeedRow(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(2), uint8(3))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(8), uint8(2))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("B"), uint8(16), uint8(9))
	f.Fuzz(func(t *testing.T, q, w []byte, which, cut uint8) {
		if len(q) > 64 {
			q = q[:64]
		}
		if len(w) > 64 {
			w = w[:64]
		}
		free := int(cut) % (len(q) + 1)
		var cuts []int
		for at := 0; at < len(q); at += int(cut) % 7 {
			cuts = append(cuts, at)
			if cut%7 == 0 {
				break
			}
		}
		cuts = append(cuts, len(q))
		r := -1.0
		if which&8 != 0 {
			r = float64(cut%16) / 2
		}
		reprepare := which&16 != 0
		switch which % 6 {
		case 0:
			fuzzRunRows(t, LevenshteinMeasure[byte](), q, w, free, cuts, r, reprepare)
		case 1:
			fuzzRunRows(t, WeightedEditMeasure(), q, w, free, cuts, r, reprepare)
		case 2:
			fuzzRunRows(t, ProteinEditMeasure(), q, w, free, cuts, r, reprepare)
		case 3:
			fuzzRunRows(t, ERPMeasure(Point2Dist, seq.Point2{}), bytePoints(q), bytePoints(w), free/2, halve(cuts), r, reprepare)
		case 4:
			fuzzRunRows(t, ERPMeasure(AbsDiff, 0), byteLevels(q), byteLevels(w), free, cuts, r, reprepare)
		case 5:
			fuzzRunRows(t, LevenshteinMeasure[float64](), byteLevels(q), byteLevels(w), free, cuts, r, reprepare)
		}
	})
}

func fuzzRunRows[E any](t *testing.T, m Measure[E], q, w []E, free int, cuts []int, r float64, reprepare bool) {
	p := m.Prepare(w)
	if reprepare {
		// Tables rebuilt in place from a longer window's.
		p = m.Reprepare(m.Prepare(append(append([]E(nil), w...), q...)), w)
	}
	cr, ref, k := rowKernels(t, m, p, nil, nil)
	sameRunRows(t, m.Name, cr, ref, k, len(w), q, free, cuts, r)
}
