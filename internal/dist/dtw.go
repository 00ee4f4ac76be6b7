package dist

import "math"

// DTW returns Dynamic Time Warping under ground distance g: the minimum,
// over all monotone couplings of the two sequences, of the sum of ground
// distances of the coupled pairs. DTW is consistent (restricting an optimal
// warping path to a subsequence's columns yields a valid cheaper path) but
// famously not a metric — it violates the triangle inequality — so the
// framework accepts it only with the linear-scan filter backend.
//
// Both sequences empty is distance 0; exactly one empty is +Inf (no coupling
// exists).
func DTW[E any](g Ground[E]) Func[E] {
	return func(a, b []E) float64 {
		n, m := len(a), len(b)
		if n == 0 || m == 0 {
			if n == m {
				return 0
			}
			return math.Inf(1)
		}
		// Two-row DP over the coupling matrix.
		prev := make([]float64, m+1)
		cur := make([]float64, m+1)
		for j := 1; j <= m; j++ {
			prev[j] = math.Inf(1)
		}
		for i := 1; i <= n; i++ {
			cur[0] = math.Inf(1)
			for j := 1; j <= m; j++ {
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = g(a[i-1], b[j-1]) + best
			}
			prev, cur = cur, prev
		}
		return prev[m]
	}
}

// DTWMeasure is DTW bundled with its properties: consistent, but NOT a
// metric — core.NewMatcher rejects it for every index backend except
// IndexLinearScan.
func DTWMeasure[E any](g Ground[E]) Measure[E] {
	return Measure[E]{
		Name:    "dtw",
		Fn:      DTW(g),
		Props:   Properties{Consistent: true, Metric: false, LockStep: false},
		Bounded: dtwBounded(g),
	}
}

func init() {
	const desc = "dynamic time warping (consistent, not a metric: linear backend only)"
	RegisterBuiltin(DTWMeasure(AbsDiff), desc)
	RegisterBuiltin(DTWMeasure(Point2Dist), desc)
}
