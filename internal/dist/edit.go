package dist

// Levenshtein returns the unit-cost edit distance over any comparable
// alphabet: the minimum number of insertions, deletions and substitutions
// turning one sequence into the other. It is the textbook metric on strings
// and is consistent (an optimal edit script restricted to a subsequence's
// positions is a valid cheaper script).
//
// For byte strings prefer LevenshteinFast, which computes the same function
// with Myers' bit-parallel algorithm.
func Levenshtein[E comparable]() Func[E] {
	return func(a, b []E) float64 {
		return editDP(len(a), len(b), func(i, j int) float64 {
			if a[i] == b[j] {
				return 0
			}
			return 1
		}, unitIndelAt, unitIndelAt)
	}
}

// unitIndelAt prices every indel at 1. It is a plain function, not a
// closure made per call, so passing it to editDP allocates nothing.
func unitIndelAt(int) float64 { return 1 }

// editDP is the shared two-row edit-distance DP: sub(i,j) prices
// substituting a[i] with b[j], delA(i)/delB(j) price removing the respective
// element. It underlies Levenshtein, WeightedEdit and ProteinEdit.
func editDP(n, m int, sub func(i, j int) float64, delA, delB func(int) float64) float64 {
	buf := make([]float64, 2*(m+1))
	prev, cur := buf[:m+1], buf[m+1:]
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + delB(j-1)
	}
	for i := 1; i <= n; i++ {
		cur[0] = prev[0] + delA(i-1)
		for j := 1; j <= m; j++ {
			best := prev[j-1] + sub(i-1, j-1)
			if v := prev[j] + delA(i-1); v < best {
				best = v
			}
			if v := cur[j-1] + delB(j-1); v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// LevenshteinMeasure is Levenshtein bundled with its properties: a
// consistent metric, accepted by every index backend, with the row-reuse
// incremental kernel and its banded bounded evaluation.
func LevenshteinMeasure[E comparable]() Measure[E] {
	return Measure[E]{
		Name:    "levenshtein",
		Fn:      Levenshtein[E](),
		Props:   Properties{Consistent: true, Metric: true, LockStep: false},
		Prepare: levenshteinPrepare[E],
		Bounded: editRowBounded(unitSub[E], unitIndel[E]),
	}
}

// LevenshteinBytes is the byte-specialised edit-distance DP: identical
// semantics to Levenshtein[byte](), with the comparison and indexing
// monomorphised. It is the middle rung of the ablation ladder in the
// benchmarks (generic DP → byte DP → Myers) and the reference the Myers
// tests compare against.
func LevenshteinBytes(a, b []byte) float64 {
	n, m := len(a), len(b)
	if n == 0 {
		return float64(m)
	}
	if m == 0 {
		return float64(n)
	}
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			c := prev[j-1]
			if ai != b[j-1] {
				c++
			}
			if v := prev[j] + 1; v < c {
				c = v
			}
			if v := cur[j-1] + 1; v < c {
				c = v
			}
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return float64(prev[m])
}

// WeightedEdit is a generalised edit distance with caller-supplied
// substitution and indel costs. The result is a metric whenever sub is a
// metric on the alphabet and indel is a constant c with sub(a,b) ≤ 2c for
// all a, b; it is consistent whenever the costs are non-negative (the
// restriction argument needs nothing more). The caller is responsible for
// those properties — WeightedEdit returns a bare Func, not a Measure. For a
// vetted instance see WeightedEditMeasure.
func WeightedEdit[E any](sub func(a, b E) float64, indel func(E) float64) Func[E] {
	return func(a, b []E) float64 {
		return editDP(len(a), len(b),
			func(i, j int) float64 { return sub(a[i], b[j]) },
			func(i int) float64 { return indel(a[i]) },
			func(j int) float64 { return indel(b[j]) })
	}
}

const (
	// weightedEditSub / weightedEditIndel are the costs of the vetted
	// WeightedEditMeasure instance. sub ≤ 2·indel keeps the distance a
	// metric (Sellers 1974); sub > indel makes alignments prefer indels
	// over substitutions, the opposite bias to unit costs.
	weightedEditSub   = 1.5
	weightedEditIndel = 1
)

// weightedSub prices one byte substitution for WeightedEditMeasure.
func weightedSub(a, b byte) float64 {
	if a == b {
		return 0
	}
	return weightedEditSub
}

// weightedIndel prices one byte indel for WeightedEditMeasure.
func weightedIndel(byte) float64 { return weightedEditIndel }

// WeightedEditMeasure is a vetted WeightedEdit instance over byte strings:
// mismatches cost 1.5, indels cost 1. It carries the row-reuse incremental
// kernel and its banded bounded evaluation; it is a consistent metric,
// accepted by every index backend.
func WeightedEditMeasure() Measure[byte] {
	return Measure[byte]{
		Name:  "weighted-edit",
		Fn:    WeightedEdit[byte](weightedSub, weightedIndel),
		Props: Properties{Consistent: true, Metric: true, LockStep: false},
		Prepare: func(w []byte) Prepared[byte] {
			return newEditRowPrepared(w, weightedSub, weightedIndel)
		},
		Bounded: editRowBounded(weightedSub, weightedIndel),
	}
}

func init() {
	const levDesc = "unit-cost edit distance (insert/delete/substitute at 1)"
	RegisterBuiltin(LevenshteinMeasure[byte](), levDesc)
	RegisterBuiltin(LevenshteinMeasure[float64](), levDesc)
	RegisterBuiltin(WeightedEditMeasure(), "weighted edit distance (mismatch 1.5, indel 1)")
}
