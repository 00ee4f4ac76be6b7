// Package metric defines the metric-space abstractions shared by the index
// structures (reference net, cover tree, reference-based index) and the
// naive linear-scan baseline, plus the distance-computation count the paper
// uses as its primary cost metric (Figures 8–11 report the percentage of
// distance computations relative to a full scan).
//
// The central types are DistFunc (a metric distance over items, wrapped by
// Counter into a distance that counts its evaluations) and LinearScan, the
// no-index baseline every backend is measured against; LinearScan also
// accepts a BoundedDistFunc so that early-abandoning measures stop distance
// evaluations at the query radius. (internal/core counts a query's
// evaluations in a record of its own; its index Counters count build work.)
package metric

import "sync/atomic"

// DistFunc measures the dissimilarity of two items. Index structures
// require it to be a metric: non-negative, zero on identical items,
// symmetric, and obeying the triangle inequality (Section 3.3 of the
// paper); correctness of index pruning depends on it.
type DistFunc[T any] func(a, b T) float64

// BoundedDistFunc is an early-abandoning distance evaluation: exact
// whenever the true distance is ≤ eps, and otherwise any value strictly
// greater than eps, returned as soon as the bound is provably exceeded
// (mirroring dist.BoundedFunc at the item level). Range filtering only
// compares the result against eps, so the relaxation never changes which
// items a query returns.
type BoundedDistFunc[T any] func(a, b T, eps float64) float64

// BatchEvaluator computes the distances from several probes to one item in
// a single call — the hook the reference net's batched traversal offers so
// callers can share evaluation work across probes (the framework feeds
// probes that share a query offset through one incremental kernel pass;
// see refnet.OpenSession). idxs are indices into the probe slice the
// evaluator was constructed over, always in ascending order; EvalBatch
// stores the distance for probe idxs[k] into out[k].
//
// bound is the largest distance the traversal acts on exactly (the query
// radius plus the visited node's cover radius). Values ≤ bound must be
// exact; a value > bound may be a proof instead of the distance — any
// value over bound that is still a lower bound on the distance. That lets
// bounded evaluators abandon mid-computation (all an abandoned
// BoundedDistFunc tells is that the distance is over bound, so the next
// float above bound is always a valid answer) and lets an evaluator that
// can bound several probes from below at once (the framework's free-start
// kernel pass over the stretch of the query the probes cover) answer for
// the ones it proves over bound without pricing them at all. The traversal
// keys what it defers to a wider radius by these values, so the tighter a
// proof, the later the pair is priced again.
type BatchEvaluator[T any] interface {
	EvalBatch(item T, idxs []int32, bound float64, out []float64)
	// Exact reports whether EvalBatch always returns exact distances, even
	// above bound. The traversal then keeps over-bound values for triangle
	// bounds instead of discarding them as proofs; an evaluator that ever
	// answers with a proof must report false.
	Exact() bool
}

// Index is the operation set the subsequence-retrieval framework needs
// from a metric index: incremental construction and range queries.
type Index[T any] interface {
	// Insert adds an item to the index.
	Insert(item T)
	// Range returns every indexed item within eps of q (inclusive).
	Range(q T, eps float64) []T
	// Len reports the number of indexed items.
	Len() int
}

// Counter wraps a DistFunc and counts invocations, the paper's
// hardware-independent cost measure. It is safe for concurrent use.
type Counter[T any] struct {
	fn    DistFunc[T]
	calls atomic.Int64
}

// NewCounter returns a Counter wrapping fn.
func NewCounter[T any](fn DistFunc[T]) *Counter[T] {
	return &Counter[T]{fn: fn}
}

// Distance evaluates the wrapped function, incrementing the call count.
func (c *Counter[T]) Distance(a, b T) float64 {
	c.calls.Add(1)
	return c.fn(a, b)
}

// Calls returns the number of Distance invocations since the last Reset.
func (c *Counter[T]) Calls() int64 { return c.calls.Load() }

// Reset zeroes the call count.
func (c *Counter[T]) Reset() { c.calls.Store(0) }

// CountBounded wraps a bounded distance so each call increments the same
// counter as Distance — an early-abandoned evaluation still counts as one
// distance computation in the paper's accounting.
func (c *Counter[T]) CountBounded(fn BoundedDistFunc[T]) BoundedDistFunc[T] {
	return func(a, b T, eps float64) float64 {
		c.calls.Add(1)
		return fn(a, b, eps)
	}
}

// LinearScan is the naive baseline index: it stores items in a slice and
// answers range queries by computing the distance to every item. The
// percentage figures in the paper's Figures 8–11 are relative to exactly
// this strategy. SetBounded arms an early-abandoning evaluation that
// threads the query radius into each comparison, cutting the constant
// behind the same number of "distance computations".
type LinearScan[T any] struct {
	dist    DistFunc[T]
	bounded BoundedDistFunc[T]
	items   []T
}

// NewLinearScan returns an empty linear-scan "index" using dist.
func NewLinearScan[T any](dist DistFunc[T]) *LinearScan[T] {
	return &LinearScan[T]{dist: dist}
}

// SetBounded arms the early-abandoning evaluation used by Range.
// fn must agree with the scan's DistFunc under the BoundedDistFunc
// contract; nil disarms it.
func (s *LinearScan[T]) SetBounded(fn BoundedDistFunc[T]) { s.bounded = fn }

// Insert appends the item.
func (s *LinearScan[T]) Insert(item T) { s.items = append(s.items, item) }

// Len reports the number of stored items.
func (s *LinearScan[T]) Len() int { return len(s.items) }

// Range returns all items within eps of q, computing len(items) distances
// (early-abandoned ones when a bounded evaluation is armed).
func (s *LinearScan[T]) Range(q T, eps float64) []T {
	var out []T
	if s.bounded != nil {
		for _, it := range s.items {
			if s.bounded(q, it, eps) <= eps {
				out = append(out, it)
			}
		}
		return out
	}
	for _, it := range s.items {
		if s.dist(q, it) <= eps {
			out = append(out, it)
		}
	}
	return out
}

// Items exposes the stored items (shared slice; callers must not mutate).
func (s *LinearScan[T]) Items() []T { return s.items }

// RemoveFunc deletes every item for which pred returns true, preserving
// the order of the remaining items (the scan's result order is its
// insertion order, and callers depend on that staying stable across
// removals). It returns the number of items removed. Not safe to call
// concurrently with queries.
func (s *LinearScan[T]) RemoveFunc(pred func(T) bool) int {
	kept := s.items[:0]
	for _, it := range s.items {
		if !pred(it) {
			kept = append(kept, it)
		}
	}
	removed := len(s.items) - len(kept)
	// Zero the tail so removed payloads don't pin their backing arrays.
	var zero T
	for i := len(kept); i < len(s.items); i++ {
		s.items[i] = zero
	}
	s.items = kept
	return removed
}

var _ Index[int] = (*LinearScan[int])(nil)
