// Package refindex implements reference-based indexing for metric spaces
// (Venkateswaran et al., VLDB 2006), the second baseline of the paper's
// evaluation. A set of k references is selected with the Maximum Variance
// heuristic; the index stores the n×k matrix of item-to-reference
// distances. A range query computes the k query-to-reference distances and
// uses the triangle inequality to prune items — or certify them — without
// touching the actual data, falling back to real distance computations only
// for items the bounds cannot decide.
//
// The paper's MV-5 / MV-20 / MV-50 configurations are instances with
// k = 5, 20, 50; space is Θ(n·k), which is why the paper contrasts them
// with the linear-space reference net.
package refindex

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/metric"
)

// Index is a reference-based metric index built over an initial item set
// by Build. The reference set is fixed at construction (matching [36],
// which selects references offline), but the item set may evolve: Insert
// appends an item and its table row (k distance computations), and
// RemoveFunc drops items with their rows. References are stored by value,
// so removing the item a reference was chosen from does not invalidate it
// — it simply remains a pivot. Reference quality is only a pruning
// concern, never a correctness one, so an index that has drifted far from
// its build-time distribution still answers exactly; rebuild when pruning
// degrades.
type Index[T any] struct {
	dist  metric.DistFunc[T]
	items []T
	refs  []T
	// table[i][j] = dist(items[i], refs[j]), laid out row-major.
	table []float64
	k     int
	frac  bool    // a fractional distance entered the table
	scale float64 // the largest distance in it
}

// Options configures reference selection.
type Options struct {
	// CandidatePool is how many randomly sampled items compete for each
	// reference slot (default 32).
	CandidatePool int
	// SampleSize is how many items each candidate's distance variance is
	// estimated over (default 128).
	SampleSize int
	// Seed seeds candidate and sample selection for reproducibility.
	Seed uint64
}

func (o *Options) defaults() {
	if o.CandidatePool <= 0 {
		o.CandidatePool = 32
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 128
	}
}

// Build constructs an index over items with k references chosen by the
// Maximum Variance heuristic: among a random candidate pool, pick the
// items whose distances to a data sample have the largest variance —
// high-variance references split the data well under triangle-inequality
// bounds. Build computes n·k distances for the table plus the selection
// sample costs.
func Build[T any](items []T, k int, dist metric.DistFunc[T], opts Options) (*Index[T], error) {
	if k <= 0 {
		return nil, fmt.Errorf("refindex: k must be positive, got %d", k)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("refindex: no items")
	}
	if k > len(items) {
		k = len(items)
	}
	opts.defaults()
	rng := rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))

	refs := selectMaxVariance(items, k, dist, opts, rng)
	idx := &Index[T]{
		dist: dist,
		// Copy: Insert/RemoveFunc mutate the item slice, and sharing the
		// caller's backing array would let those mutations collide with the
		// caller's own appends.
		items: append([]T(nil), items...),
		refs:  refs,
		table: make([]float64, len(items)*k),
		k:     k,
	}
	for i, it := range items {
		row := idx.table[i*k : (i+1)*k]
		for j, r := range refs {
			row[j] = dist(it, r)
			idx.note(row[j])
		}
	}
	return idx, nil
}

// selectMaxVariance scores a random candidate pool by the variance of their
// distances to a random data sample and returns the top k scorers.
func selectMaxVariance[T any](items []T, k int, dist metric.DistFunc[T], opts Options, rng *rand.Rand) []T {
	pool := opts.CandidatePool * k
	if pool > len(items) {
		pool = len(items)
	}
	sample := opts.SampleSize
	if sample > len(items) {
		sample = len(items)
	}
	candIdx := rng.Perm(len(items))[:pool]
	sampleIdx := rng.Perm(len(items))[:sample]

	type scored struct {
		idx int
		v   float64
	}
	scoredCands := make([]scored, 0, pool)
	for _, ci := range candIdx {
		var sum, sumSq float64
		for _, si := range sampleIdx {
			d := dist(items[ci], items[si])
			sum += d
			sumSq += d * d
		}
		n := float64(len(sampleIdx))
		mean := sum / n
		scoredCands = append(scoredCands, scored{ci, sumSq/n - mean*mean})
	}
	// Partial selection sort: k is small.
	refs := make([]T, 0, k)
	for len(refs) < k && len(scoredCands) > 0 {
		best := 0
		for i := 1; i < len(scoredCands); i++ {
			if scoredCands[i].v > scoredCands[best].v {
				best = i
			}
		}
		refs = append(refs, items[scoredCands[best].idx])
		scoredCands[best] = scoredCands[len(scoredCands)-1]
		scoredCands = scoredCands[:len(scoredCands)-1]
	}
	return refs
}

// Len reports the number of indexed items.
func (x *Index[T]) Len() int { return len(x.items) }

// Insert appends an item, computing its k reference distances. Result
// order of Range is item insertion order, so an index grown by Insert
// answers queries identically to one built over the full set up front
// (references affect pruning cost only, never which items are returned).
// Not safe to call concurrently with queries.
func (x *Index[T]) Insert(item T) {
	x.items = append(x.items, item)
	for _, r := range x.refs {
		x.table = append(x.table, x.dist(item, r))
		x.note(x.table[len(x.table)-1])
	}
}

// RemoveFunc deletes every item for which pred returns true, along with
// its distance-table row, preserving the order of the remainder. It
// returns the number of items removed. Not safe to call concurrently with
// queries.
func (x *Index[T]) RemoveFunc(pred func(T) bool) int {
	kept := x.items[:0]
	table := x.table[:0]
	for i, it := range x.items {
		if pred(it) {
			continue
		}
		kept = append(kept, it)
		table = append(table, x.table[i*x.k:(i+1)*x.k]...)
	}
	removed := len(x.items) - len(kept)
	var zero T
	for i := len(kept); i < len(x.items); i++ {
		x.items[i] = zero
	}
	x.items = kept
	x.table = table
	return removed
}

// K reports the number of references.
func (x *Index[T]) K() int { return x.k }

// References returns the selected references (shared slice; do not mutate).
func (x *Index[T]) References() []T { return x.refs }

// TableBytes reports the size of the precomputed distance table, the
// index's dominant space cost (8 bytes per entry).
func (x *Index[T]) TableBytes() int64 { return int64(len(x.table)) * 8 }

func (x *Index[T]) note(d float64) { x.scale, x.frac = max(x.scale, d), x.frac || d != math.Trunc(d) }

// Range returns every item within eps of q (inclusive). It computes k
// reference distances, then for each item derives
//
//	lower = max_j |d(q,ref_j) − table[i][j]|   (triangle inequality)
//	upper = min_j (d(q,ref_j) + table[i][j])
//
// pruning when lower > eps, certifying when upper ≤ eps, and computing the
// true distance only otherwise, each bound clearing eps by the net's
// rounding allowance (DESIGN.md §3).
func (x *Index[T]) Range(q T, eps float64) []T {
	var out []T
	x.RangeFunc(q, eps, x.dist, func(item T) { out = append(out, item) })
	return out
}

// RangeFunc streams every item within eps of q to yield, computing the
// query's distances with dist, which must agree with the index's own (a
// caller passes a copy that counts what its query spends).
func (x *Index[T]) RangeFunc(q T, eps float64, dist metric.DistFunc[T], yield func(T)) {
	qd := make([]float64, x.k)
	frac, a := x.frac, 0.0
	for j, r := range x.refs {
		qd[j] = dist(q, r)
		frac, a = frac || qd[j] != math.Trunc(qd[j]), max(a, (qd[j]+x.scale+math.Abs(eps))*0x1p-32)
	}
	if !frac {
		a = 0
	}
	for i, it := range x.items {
		row := x.table[i*x.k : (i+1)*x.k]
		lower, upper := 0.0, qd[0]+row[0]
		for j := 0; j < x.k; j++ {
			lo := qd[j] - row[j]
			if lo < 0 {
				lo = -lo
			}
			if lo > lower {
				lower = lo
			}
			if hi := qd[j] + row[j]; hi < upper {
				upper = hi
			}
		}
		if lower > eps+a {
			continue
		}
		if upper+a <= eps {
			yield(it)
			continue
		}
		if dist(q, it) <= eps {
			yield(it)
		}
	}
}
