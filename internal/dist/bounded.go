package dist

import "math"

// Bounded (early-abandoning) evaluations.
//
// Range filtering never needs the exact distance of a pair that lies outside
// the query radius — only the verdict "greater than eps". Each function here
// evaluates its measure only as far as needed to either finish under the
// threshold or prove it is exceeded:
//
//   - the lock-step measures abandon once their running accumulator passes
//     the radius (sum of squares past eps², mismatch count past eps);
//   - the edit-row measures (Levenshtein, weighted edit, protein edit, ERP)
//     run their incremental kernel banded at eps (editRowBounded), which
//     computes only the cells that can still be ≤ eps and abandons once
//     the row's least cell exceeds it;
//   - LevenshteinFast abandons Myers' bit-parallel score once it cannot come
//     back under eps (levenshteinFastBounded, in myers.go);
//   - the warping distances without a kernel (DTW, discrete Fréchet) keep
//     the full row but abandon on its minimum, which lower-bounds every
//     completion because cell costs are non-negative.
//
// All of them satisfy the BoundedFunc contract: exact at or under eps,
// anything greater than eps otherwise.

// euclideanBounded is Euclidean with per-element abandoning on the squared
// sum.
func euclideanBounded[E any](g Ground[E]) BoundedFunc[E] {
	return func(a, b []E, eps float64) float64 {
		if len(a) != len(b) {
			return math.Inf(1)
		}
		// Guard the squared threshold by a relative margin: eps is usually
		// itself a rounded sqrt, so the exact-on-the-boundary sum can sit a
		// few ulps above eps² without the true distance exceeding eps.
		limit := eps * eps
		limit += 1e-12 * limit
		var sum float64
		for i := range a {
			d := g(a[i], b[i])
			sum += d * d
			if sum > limit {
				return math.Inf(1)
			}
		}
		return math.Sqrt(sum)
	}
}

// hammingBounded is Hamming with abandoning on the mismatch count.
func hammingBounded[E comparable](a, b []E, eps float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
			if float64(n) > eps {
				return math.Inf(1)
			}
		}
	}
	return float64(n)
}

// editRowBounded is the bounded form of the edit-row measures (Levenshtein,
// weighted edit, protein edit, ERP): their kernel's pass over the window b,
// banded at eps (RowKernel.Within), fed a row by row and stopped once its
// Floor exceeds eps. The band keeps every cell ≤ eps by its bits and reads
// every other cell over eps, so a result ≤ eps is Fn's value bit for bit.
// The prepared tables and the state's rows share one buffer, one allocation
// per call. The state's row is the prepared base row itself: a rewound
// state's row is a copy of it, and this one pass is the only reader of
// either.
func editRowBounded[E any](sub func(x, y E) float64, indel func(E) float64) BoundedFunc[E] {
	return func(a, b []E, eps float64) float64 {
		n := 2*len(b) + 1
		buf := make([]float64, n+len(b))
		var p editRowPrepared[E]
		p.sub, p.indel, p.buf = sub, indel, buf[:n:n]
		p.Reprepare(b)
		var k editRowState[E]
		k.p, k.row, k.cost = &p, p.base, buf[n:]
		k.Within(eps)
		for _, x := range a {
			k.Feed(x)
			if f := k.Floor(); f > eps {
				return f
			}
		}
		return k.At(len(b))
	}
}

// frechetBounded is the discrete Fréchet distance with row-minimum
// abandoning: reach values along a coupling only grow (max aggregation), so
// the row minimum lower-bounds every completion.
func frechetBounded[E any](g Ground[E]) BoundedFunc[E] {
	return func(a, b []E, eps float64) float64 {
		n, m := len(a), len(b)
		if n == 0 || m == 0 {
			if n == m {
				return 0
			}
			return math.Inf(1)
		}
		inf := math.Inf(1)
		prev := make([]float64, m+1)
		cur := make([]float64, m+1)
		for j := 1; j <= m; j++ {
			prev[j] = inf
		}
		for i := 1; i <= n; i++ {
			cur[0] = inf
			rowMin := inf
			for j := 1; j <= m; j++ {
				reach := prev[j-1]
				if prev[j] < reach {
					reach = prev[j]
				}
				if cur[j-1] < reach {
					reach = cur[j-1]
				}
				if d := g(a[i-1], b[j-1]); d > reach {
					reach = d
				}
				cur[j] = reach
				if reach < rowMin {
					rowMin = reach
				}
			}
			if rowMin > eps {
				return rowMin
			}
			prev, cur = cur, prev
		}
		return prev[m]
	}
}

// dtwBounded is DTW with row-minimum abandoning — the classic DTW early
// abandon: every warping path visits one cell per row, and with non-negative
// ground costs the cell value lower-bounds the full path cost.
func dtwBounded[E any](g Ground[E]) BoundedFunc[E] {
	return func(a, b []E, eps float64) float64 {
		n, m := len(a), len(b)
		if n == 0 || m == 0 {
			if n == m {
				return 0
			}
			return math.Inf(1)
		}
		inf := math.Inf(1)
		prev := make([]float64, m+1)
		cur := make([]float64, m+1)
		for j := 1; j <= m; j++ {
			prev[j] = inf
		}
		for i := 1; i <= n; i++ {
			cur[0] = inf
			rowMin := inf
			for j := 1; j <= m; j++ {
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = g(a[i-1], b[j-1]) + best
				if cur[j] < rowMin {
					rowMin = cur[j]
				}
			}
			if rowMin > eps {
				return rowMin
			}
			prev, cur = cur, prev
		}
		return prev[m]
	}
}
