package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics §1): p95 needs 200 samples, p99 needs 1000.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule together with the sample count. It refuses — err is
// non-nil, the value is still returned so a smoke run can print it marked
// indicative — when fewer than minBeyond samples lie beyond the quantile.
func percentile(sorted []float64, p float64) (v float64, n int, err error) {
	n = len(sorted)
	if n == 0 {
		return math.NaN(), 0, fmt.Errorf("p%g of no samples", p*100)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	v = sorted[rank]
	if beyond := float64(n) * (1 - p); beyond < minBeyond {
		err = fmt.Errorf("p%g of %d samples has only %.1f beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	return v, n, err
}

// sortedCopy returns vals sorted ascending, leaving vals alone.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of vals (mean of the middle two for an
// even count), NaN for none.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	switch n := len(s); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ratio is a/b, 0 when b is 0 (a share of nothing is reported as none).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
