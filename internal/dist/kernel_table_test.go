package dist

import (
	"fmt"
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
// tables, and rebound to tables rebuilt in place; and checkStartRange, the
// passes that leave only the first starts free, on a minted state and one
// over tables rebuilt in place.
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
		checkStartRange(t, "fresh", m, k, q, w)
		if BindFreeStart(k, m.Prepare(w2)) != k {
			t.Fatalf("%s: state not rebound in place to a same-length window", m.Name)
		}
		checkFreeStart(t, "after Rebind", m, k, q, w2)
		owned = m.Reprepare(owned, w)
		if reused = BindFreeStart(reused, owned); reused == nil {
			t.Fatalf("%s: kernel over reprepared tables has no free-start mode", m.Name)
		}
		checkFreeStart(t, "after Reprepare", m, reused, q, w)
		checkStartRange(t, "after Reprepare", m, reused, q, w)
	}
}

// The free-start pass is a proof the filter prunes on: its value must be the
// least Fn over starts exactly — a bound that is only close would let a
// pre-pass and an exact pass disagree about a pair at the radius. The
// verifier's group pre-pass leaves only a range of starts free, and skips a
// group on what it reads, banded or not: the same holds for every range.
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

	// The packed form: fields of equal length, of unequal length filling the
	// word exactly, two at the 32-byte limit, one to 64 one-byte windows, and
	// queries past the word length.
	rng := rand.New(rand.NewPCG(47, 4700))
	for _, lens := range [][]int{{20, 20, 20}, {21, 21, 22}, {32, 32}, {7, 30, 1, 26}, {64}} {
		for _, qLen := range []int{0, 12, 45, 70} {
			checkPacked(t, rng, lens, qLen, qLen <= 45)
		}
	}
	for k := 1; k <= 64; k++ {
		lens := make([]int, k)
		for f := range lens {
			lens[f] = 1
		}
		checkPacked(t, rng, lens, 140, false)
	}
	pk := LevenshteinFastMeasure().Packer
	if pk.Pack([][]byte{make([]byte, 33), make([]byte, 32)}) != nil || pk.Pack([][]byte{[]byte("A"), nil}) != nil || pk.Pack(nil) != nil {
		t.Fatal("Pack accepted windows that do not fit one word")
	}
	for n, want := range map[int]int{0: 0, 1: 64, 20: 3, 21: 3, 32: 2, 33: 1, 64: 1, 65: 0} {
		if got := pk.Width(n); got != want {
			t.Fatalf("Width(%d) = %d, want %d", n, got, want)
		}
	}

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

// checkPacked packs windows of the given lengths and holds the pass to the
// separate kernels: every end of FreeStart carries the float64 bits of a
// separate FeedFree pass over that window, and every field Bind reads out is
// the window's kernel — by its Feed and Floor against the separate kernel's,
// and by checkTable against Fn when exact is set.
func checkPacked(t *testing.T, rng *rand.Rand, lens []int, qLen int, exact bool) {
	t.Helper()
	alphabet := aminoAcids
	if rng.IntN(2) == 0 {
		alphabet = "AB"
	}
	ws := make([][]byte, len(lens))
	for f, n := range lens {
		ws[f] = randBytes(rng, n, alphabet)
	}
	q := randBytes(rng, qLen, alphabet)
	m := LevenshteinFastMeasure()
	p := m.Packer.Pack(ws)
	samePackedPass(t, p, ws, q)
	var k Kernel[byte] = m.Prepare(make([]byte, 65)).NewState() // a state Bind cannot re-point
	for f, w := range ws {
		k = p.Bind(k, f) // and from the second field on, one it can
		what := fmt.Sprintf("field %d of %v", f, lens)
		sameFeeds(t, what, k, m.NewKernel(w), q)
		if exact {
			k.Reset()
			checkTable(t, what, m, k, q, w, false)
		}
	}
	// The one state type serves a field and a window's own table: a state
	// Bind left rebinds to its window's Prepared in place, and back.
	own := m.Prepare(ws[0])
	if rb := BindKernel(k, own); rb != k {
		t.Fatalf("%v: a field's state did not rebind to a Prepared in place", lens)
	}
	sameFeeds(t, fmt.Sprintf("own table after the fields of %v", lens), k, own.NewState(), q)
	if rb := p.Bind(k, 0); rb != k {
		t.Fatalf("%v: Bind did not re-point a window's own state", lens)
	}
	sameFeeds(t, fmt.Sprintf("field 0 of %v after its own table", lens), k, own.NewState(), q)
}

// sameFeeds feeds q to k and want and holds every step's value and Floor
// equal. Bound to a pack's field, k sees the later fields' bits above its
// own; they must not lower its Floor.
func sameFeeds(t *testing.T, what string, k, want Kernel[byte], q []byte) {
	t.Helper()
	for i, c := range q {
		if got, w := k.Feed(c), want.Feed(c); got != w {
			t.Fatalf("%s: Feed after %d elements = %v, separate kernel %v", what, i+1, got, w)
		}
		if got, w := k.Floor(), want.Floor(); got != w {
			t.Fatalf("%s: Floor after %d elements = %v, separate kernel %v", what, i+1, got, w)
		}
	}
}

// samePackedPass holds p's FreeStart over q to one FeedFree pass per window.
func samePackedPass(t *testing.T, p Packed[byte], ws [][]byte, q []byte) {
	t.Helper()
	if p == nil || p.Windows() != len(ws) {
		t.Fatalf("pack of %d windows: %v", len(ws), p)
	}
	lower := make([][]float64, len(ws))
	for f := range lower {
		lower[f] = make([]float64, len(q)+1)
	}
	p.FreeStart(q, lower)
	for f, w := range ws {
		single := BindFreeStart(nil, myersPrepare(w))
		if lower[f][0] != float64(len(w)) {
			t.Fatalf("field %d of %d: lower[0] = %v, want %d", f, len(ws), lower[f][0], len(w))
		}
		for n, c := range q {
			if got, want := lower[f][n+1], single.FeedFree(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("field %d of %d (|w|=%d): packed bound after q[:%d] = %v, separate FeedFree %v (q %q, w %q)",
					f, len(ws), len(w), n+1, got, want, q, w)
			}
		}
	}
}

// FuzzFreeStartLowerBound states the one property the filter leans on, over
// inputs nobody chose: after q[lo:e] the free-start value is at most
// Fn(q[s:e], w) for every start s in lo..e, whatever the measure, the window
// (one word, several, empty) and the start the pass began at. On
// levenshtein-fast it also cuts w into fields of lo%32+1 bytes and holds the
// packed pass over them to separate passes, end for end, and the field
// states Bind reads out to the windows' own, feed for feed and Floor for
// Floor; and it holds the exact mode's Floor to its promise: after q[:i] at
// most Fn(q[:i′], w[:j]) for every i′ ≥ i and every j. The committed
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
			packedEqualsSingle(t, q, w, int(lo)%32+1)
			floorLowerBound(t, q, w)
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

// packedEqualsSingle cuts w into fields of n bytes, the last one shorter,
// packs as many as fit one word and holds the packed pass over q to separate
// ones, and each field's bound state to its window's own.
func packedEqualsSingle(t *testing.T, q, w []byte, n int) {
	var ws [][]byte
	for used := 0; len(w) > 0 && used < 64; {
		f := w[:min(n, len(w), 64-used)]
		ws, w, used = append(ws, f), w[len(f):], used+len(f)
	}
	if len(ws) == 0 {
		return
	}
	p := LevenshteinFastMeasure().Packer.Pack(ws)
	samePackedPass(t, p, ws, q)
	for f, w := range ws {
		sameFeeds(t, fmt.Sprintf("field %d of %d", f, len(ws)), p.Bind(nil, f), myersPrepare(w).NewState(), q)
	}
}

// floorLowerBound feeds q to levenshtein-fast's kernel over w and holds
// Floor after q[:i] to at most Fn(q[:i′], w[:j]) for every i′ ≥ i and every
// j. The cells are read off one plain edit-row pass, which
// TestKernelTablesMatchFn holds to Fn bit for bit: a table of Fn calls would
// cost the fuzzer most of its executions.
func floorLowerBound(t *testing.T, q, w []byte) {
	// least[i] is the least cell of rows i and later.
	least := make([]float64, len(q)+2)
	least[len(q)+1] = math.Inf(1)
	row := LevenshteinMeasure[byte]().NewKernel(w)
	for i := 0; i <= len(q); i++ {
		if i > 0 {
			row.Feed(q[i-1])
		}
		least[i] = math.Inf(1)
		for j := 0; j <= len(w); j++ {
			least[i] = min(least[i], row.At(j))
		}
	}
	for i := len(q) - 1; i >= 0; i-- {
		least[i] = min(least[i], least[i+1])
	}
	k := LevenshteinFastMeasure().NewKernel(w)
	for i := 0; i <= len(q); i++ {
		if i > 0 {
			k.Feed(q[i-1])
		}
		if f := k.Floor(); f > least[i] {
			t.Fatalf("Floor %v after q[:%d] exceeds a later cell, %v (q %q, w %q)", f, i, least[i], q, w)
		}
	}
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

// costRow prices x's whole row into row and returns its indel cost, as an
// unbanded Feed of x prices them.
func costRow[E any](cr CostRower[E], x E, row []float64) float64 {
	cr.CostSpan(x, row, 0, len(row))
	return cr.Indel(x)
}

// sameRowFeeds rewinds ref and k, both bound to the window cr prices, and
// feeds q to ref through Feed (FeedFree when free) and to k through FeedRow
// (FeedFreeRow) on the rows cr prices, holding every result, every At(j) and
// Floor of k to ref's by their bits after every feed.
func sameRowFeeds[E any](t *testing.T, what string, cr CostRower[E], ref, k RowKernel[E], q []E, n int, free bool) {
	t.Helper()
	ref.Reset()
	k.Reset()
	row := make([]float64, n)
	for i, x := range q {
		var got, want float64
		if free {
			got, want = k.FeedFreeRow(row, costRow(cr, x, row)), ref.FeedFree(x)
		} else {
			got, want = k.FeedRow(row, costRow(cr, x, row)), ref.Feed(x)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (|w|=%d, free %v): row feed %d = %v, plain feed %v", what, n, free, i+1, got, want)
		}
		for j := 0; j <= n; j++ {
			if got, want := k.At(j), ref.At(j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (|w|=%d, free %v): At(%d) after %d row feeds = %v, after plain feeds %v", what, n, free, j, i+1, got, want)
			}
		}
		if got, want := k.Floor(), ref.Floor(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s (|w|=%d, free %v): Floor after %d row feeds = %v, after plain feeds %v", what, n, free, i+1, got, want)
		}
	}
}

// rowKernels binds two states to p, as BindKernel would rebind ref and k,
// and returns them with p's cost rows; it fails when p or its states lack
// the capability.
func rowKernels[E any](t *testing.T, m Measure[E], p Prepared[E], ref, k RowKernel[E]) (CostRower[E], RowKernel[E], RowKernel[E]) {
	t.Helper()
	cr, ok := p.(CostRower[E])
	if !ok {
		t.Fatalf("%s: Prepared %T has no cost rows", m.Name, p)
	}
	bind := func(s RowKernel[E]) RowKernel[E] {
		var state Kernel[E]
		if s != nil {
			state = s
		}
		rk, ok := BindKernel(state, p).(RowKernel[E])
		if !ok {
			t.Fatalf("%s: kernel over %T does not take cost rows", m.Name, p)
		}
		return rk
	}
	return cr, bind(ref), bind(k)
}

// checkCostRows holds the row feeds to the plain ones, plain and free-start,
// through every way a state comes to be bound: minted, rewound, rebound to
// another window's tables (Rebind) and to tables rebuilt in place
// (Reprepare), over window lengths wLens in order.
func checkCostRows[E any](t *testing.T, m Measure[E], gen func(*rand.Rand, int) []E, wLens []int, qLen int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(53, uint64(len(wLens))))
	var owned Prepared[E]
	var oref, ok RowKernel[E]
	for _, n := range wLens {
		w, w2 := gen(rng, n), gen(rng, n)
		cr, ref, k := rowKernels(t, m, m.Prepare(w), nil, nil)
		for _, free := range []bool{false, true, false} {
			sameRowFeeds(t, m.Name+" fresh", cr, ref, k, gen(rng, qLen), n, free)
		}
		cr, ref, k = rowKernels(t, m, m.Prepare(w2), ref, k)
		sameRowFeeds(t, m.Name+" after Rebind", cr, ref, k, gen(rng, qLen), n, false)
		sameRowFeeds(t, m.Name+" after Rebind", cr, ref, k, gen(rng, qLen), n, true)
		owned = m.Reprepare(owned, w)
		cr, oref, ok = rowKernels(t, m, owned, oref, ok)
		sameRowFeeds(t, m.Name+" after Reprepare", cr, oref, ok, gen(rng, qLen), n, true)
		sameRowFeeds(t, m.Name+" after Reprepare", cr, oref, ok, gen(rng, qLen), n, false)
	}
}

// The callers that share cost rows between passes (internal/core) rely on
// a row feed being the plain feed, bit for bit, for every edit-row measure
// in the catalog.
func TestCostRowsMatchFeed(t *testing.T) {
	checkCostRows(t, ERPMeasure(AbsDiff, 0), levels, shortLens, 12)
	checkCostRows(t, ERPMeasure(Point2Dist, seq.Point2{}), points, shortLens, 12)
	checkCostRows(t, LevenshteinMeasure[byte](), letters("AB"), shortLens, 12)
	checkCostRows(t, LevenshteinMeasure[float64](), levels, shortLens, 12)
	checkCostRows(t, WeightedEditMeasure(), letters("ABC"), shortLens, 12)
	checkCostRows(t, ProteinEditMeasure(), letters(aminoAcids+"BZ"), shortLens, 12)

	// Kernels that price nothing per window element take no rows.
	for _, p := range []Prepared[byte]{
		LevenshteinFastMeasure().Prepare([]byte("ACD")),
		HammingMeasure[byte]().Prepare([]byte("ACD")),
		DTWMeasure(func(a, b byte) float64 { return math.Abs(float64(a) - float64(b)) }).Reprepare(nil, []byte("ACD")),
	} {
		if _, ok := p.(CostRower[byte]); ok {
			t.Fatalf("%T claims cost rows", p)
		}
	}
}

// FuzzCostRowMatchesFeed is TestCostRowsMatchFeed over inputs nobody chose:
// the measure, the mode and whether the window is reprepared in place are
// drawn from which.
func FuzzCostRowMatchesFeed(f *testing.F) {
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("ACDFGHIKLMNQRSTVWY"), uint8(0))
	f.Add([]byte("ABBABABBBAABABBA"), []byte("BABA"), uint8(9))
	f.Fuzz(func(t *testing.T, q, w []byte, which uint8) {
		if len(q) > 48 {
			q = q[:48]
		}
		if len(w) > 64 {
			w = w[:64]
		}
		free, reprepare := which&8 != 0, which&16 != 0
		switch which % 6 {
		case 0:
			fuzzCostRows(t, LevenshteinMeasure[byte](), q, w, free, reprepare)
		case 1:
			fuzzCostRows(t, WeightedEditMeasure(), q, w, free, reprepare)
		case 2:
			fuzzCostRows(t, ProteinEditMeasure(), q, w, free, reprepare)
		case 3:
			fuzzCostRows(t, ERPMeasure(Point2Dist, seq.Point2{}), bytePoints(q), bytePoints(w), free, reprepare)
		case 4:
			fuzzCostRows(t, ERPMeasure(AbsDiff, 0), byteLevels(q), byteLevels(w), free, reprepare)
		case 5:
			fuzzCostRows(t, LevenshteinMeasure[float64](), byteLevels(q), byteLevels(w), free, reprepare)
		}
	})
}

func fuzzCostRows[E any](t *testing.T, m Measure[E], q, w []E, free, reprepare bool) {
	p := m.Prepare(w)
	if reprepare {
		// Tables rebuilt in place from a longer window's.
		p = m.Reprepare(m.Prepare(append(append([]E(nil), w...), q...)), w)
	}
	cr, ref, k := rowKernels(t, m, p, nil, nil)
	sameRowFeeds(t, m.Name, cr, ref, k, q, len(w), free)
}

// byteLevels reads b as signed levels.
func byteLevels(b []byte) []float64 {
	s := make([]float64, len(b))
	for i, c := range b {
		s[i] = float64(int8(c)) / 8
	}
	return s
}
