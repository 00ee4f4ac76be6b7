package dist

import "math"

// DiscreteFrechet returns the discrete Fréchet distance under ground
// distance g: the minimum, over all monotone couplings of the two sequences,
// of the MAXIMUM ground distance of any coupled pair (the classic
// leash-length formulation, Eiter & Mannila 1994). Because it aggregates by
// max rather than sum, bounded ground distances bound the whole measure —
// the effect behind the paper's skewed SONGS/DFD distribution. It satisfies
// the triangle inequality whenever g does, so the framework indexes it; it
// is consistent because restricting a coupling to a subsequence's columns
// can only lower the maximum.
//
// Both sequences empty is distance 0; exactly one empty is +Inf.
func DiscreteFrechet[E any](g Ground[E]) Func[E] {
	return func(a, b []E) float64 {
		n, m := len(a), len(b)
		if n == 0 || m == 0 {
			if n == m {
				return 0
			}
			return math.Inf(1)
		}
		prev := make([]float64, m+1)
		cur := make([]float64, m+1)
		for j := 1; j <= m; j++ {
			prev[j] = math.Inf(1)
		}
		for i := 1; i <= n; i++ {
			cur[0] = math.Inf(1)
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
			}
			prev, cur = cur, prev
		}
		return prev[m]
	}
}

// DiscreteFrechetMeasure is DiscreteFrechet bundled with its properties: a
// consistent metric, accepted by every index backend, with row-minimum
// early abandoning.
func DiscreteFrechetMeasure[E any](g Ground[E]) Measure[E] {
	return Measure[E]{
		Name:    "dfd",
		Fn:      DiscreteFrechet(g),
		Props:   Properties{Consistent: true, Metric: true, LockStep: false},
		Bounded: frechetBounded(g),
	}
}

func init() {
	const desc = "discrete Fréchet distance (max-aggregated warping metric)"
	RegisterBuiltin(DiscreteFrechetMeasure(AbsDiff), desc)
	RegisterBuiltin(DiscreteFrechetMeasure(Point2Dist), desc)
}
