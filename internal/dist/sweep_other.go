//go:build !amd64

package dist

// sweep is sweep_amd64.s in Go: each select is a branch.
func sweep(row, gap, c []float64, dx, diag float64) {
	for j := 1; j < len(row); j++ {
		best := diag + c[j-1]
		if v := row[j] + dx; v < best {
			best = v
		}
		if v := row[j-1] + gap[j-1]; v < best {
			best = v
		}
		diag = row[j]
		row[j] = best
	}
}
