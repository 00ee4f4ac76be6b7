package dist

// sweep advances row, the DP row of a window of n = len(row)−1 elements,
// over columns 1 … n by a fed element whose substitution costs are c[:n]
// and whose indel cost is dx; row[0] is already advanced and diag is its
// old value. Each cell is feed's three sums, each select a MINSD, which
// returns its first operand when it is less than the second and the second
// otherwise: `if v < best { best = v }` with no branch to mispredict, NaN
// and signed zeros included. Its Go form is sweep_other.go.
//
//go:noescape
func sweep(row, gap, c []float64, dx, diag float64)
