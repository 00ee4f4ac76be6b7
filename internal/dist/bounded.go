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
//   - the constant-indel edit distances run the Ukkonen-banded DP, visiting
//     only the O((2k+1)·n) cells with |i−j| ≤ k = ⌊eps/indel⌋ and abandoning
//     when the band's row minimum exceeds eps;
//   - the warping distances (DTW, ERP, discrete Fréchet) and variable-indel
//     edits keep the full row but abandon on its minimum, which lower-bounds
//     every completion because cell costs are non-negative.
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

// boundedEditBand evaluates the edit DP restricted to the Ukkonen band
// |i−j| ≤ k with k = ⌊eps/minIndel⌋, where minIndel > 0 lower-bounds every
// indel cost. A cell off the band needs at least k+1 indels to reconcile the
// length difference, so it costs more than eps and cannot lie on a path the
// caller cares about; treating off-band cells as +Inf therefore returns the
// exact distance whenever it is ≤ eps and a value > eps otherwise. The band
// row minimum additionally abandons the scan as soon as no completion can
// come back under eps.
func boundedEditBand(n, m int, sub func(i, j int) float64, delA func(i int) float64, delB func(j int) float64, minIndel, eps float64) float64 {
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if float64(diff)*minIndel > eps {
		return float64(diff) * minIndel
	}
	if n == 0 || m == 0 {
		var sum float64
		for i := 0; i < n; i++ {
			sum += delA(i)
		}
		for j := 0; j < m; j++ {
			sum += delB(j)
		}
		return sum
	}
	var k int
	if kf := eps / minIndel; kf >= float64(n+m) {
		k = n + m
	} else {
		k = int(kf)
	}
	inf := math.Inf(1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	hi0 := m
	if k < hi0 {
		hi0 = k
	}
	for j := 1; j <= hi0; j++ {
		prev[j] = prev[j-1] + delB(j-1)
	}
	if hi0+1 <= m {
		prev[hi0+1] = inf
	}
	for i := 1; i <= n; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > m {
			hi = m
		}
		if lo > hi {
			return inf
		}
		da := delA(i - 1)
		if lo == 1 {
			if i <= k {
				cur[0] = prev[0] + da
			} else {
				cur[0] = inf
			}
		} else {
			cur[lo-1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			best := prev[j-1] + sub(i-1, j-1)
			if v := prev[j] + da; v < best {
				best = v
			}
			if v := cur[j-1] + delB(j-1); v < best {
				best = v
			}
			cur[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if hi+1 <= m {
			cur[hi+1] = inf
		}
		if rowMin > eps {
			return rowMin
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// levenshteinBounded is the banded unit-cost edit distance over any
// comparable alphabet.
func levenshteinBounded[E comparable]() BoundedFunc[E] {
	return func(a, b []E, eps float64) float64 {
		return boundedEditBand(len(a), len(b),
			func(i, j int) float64 {
				if a[i] == b[j] {
					return 0
				}
				return 1
			},
			func(int) float64 { return 1 },
			func(int) float64 { return 1 },
			1, eps)
	}
}

// proteinBounded is the banded protein edit distance (constant indel cost).
func proteinBounded(a, b []byte, eps float64) float64 {
	return boundedEditBand(len(a), len(b),
		func(i, j int) float64 { return proteinSubCost(a[i], b[j]) },
		func(int) float64 { return proteinIndel },
		func(int) float64 { return proteinIndel },
		proteinIndel, eps)
}

// erpBounded is ERP with row-minimum abandoning. ERP's indel cost g(e, gap)
// can be zero (for e = gap), so the band argument does not apply; the row
// minimum still lower-bounds every completion because all costs are
// non-negative.
func erpBounded[E any](g Ground[E], gap E) BoundedFunc[E] {
	return func(a, b []E, eps float64) float64 {
		n, m := len(a), len(b)
		prev, cur, gb := erpRows(g, gap, b)
		for i := 1; i <= n; i++ {
			ai := a[i-1]
			ga := g(ai, gap)
			cur[0] = prev[0] + ga
			rowMin := cur[0]
			for j := 1; j <= m; j++ {
				best := prev[j-1] + g(ai, b[j-1])
				if v := prev[j] + ga; v < best {
					best = v
				}
				if v := cur[j-1] + gb[j-1]; v < best {
					best = v
				}
				cur[j] = best
				if best < rowMin {
					rowMin = best
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
