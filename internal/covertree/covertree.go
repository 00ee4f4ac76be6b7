// Package covertree implements a cover tree (Beygelzimer, Kakade &
// Langford, ICML 2006) in its practical "condensed" form: each item is
// stored in a single node at the highest level where it acts as a
// reference, and every node has exactly one parent. The tree is the paper's
// main indexing baseline (Section 6, Figures 8–11).
//
// The implementation deliberately shares its geometry with the reference
// net — level radii ǫᵢ = ǫ′·2ⁱ, and a measured cover radius on every node
// (max over children of stored edge distance + child's radius, under the
// level's worst case ǫ′·(2^{l+1}−2)) that the range traversal prunes with — so
// that space and pruning comparisons between the two structures isolate the
// single structural difference the paper highlights: multi-parent
// membership.
package covertree

import (
	"fmt"
	"math"

	"repro/internal/metric"
)

// Tree is a cover tree over items of type T. Create with New; the zero
// value is not usable. Not safe for concurrent mutation.
type Tree[T any] struct {
	dist metric.DistFunc[T]
	base float64
	root *node[T]
	size int
}

type node[T any] struct {
	item  T
	level int
	// rho is the measured cover radius, as in the reference net: 0 for a
	// leaf, otherwise the max over children of (edge distance + child's
	// rho). parent/pd (the link to the single parent and its stored
	// distance) exist to carry a new leaf's reach up to the root.
	rho      float64
	parent   *node[T]
	pd       float64
	children []edge[T]
}

type edge[T any] struct {
	n *node[T]
	d float64 // parent-child distance, precomputed at insert time
}

// New returns an empty cover tree using the given metric distance and base
// radius ǫ′ (level i covers radius ǫ′·2ⁱ). The distance must be a metric.
func New[T any](dist metric.DistFunc[T], base float64) *Tree[T] {
	if base <= 0 {
		panic(fmt.Sprintf("covertree: base radius must be positive, got %v", base))
	}
	return &Tree[T]{dist: dist, base: base}
}

// Compile-time check: Tree satisfies the shared index interface.
var _ metric.Index[int] = (*Tree[int])(nil)

// Eps returns the radius ǫ′·2ⁱ of level i.
func (t *Tree[T]) Eps(i int) float64 { return math.Ldexp(t.base, i) }

// CoverRadius is the worst-case distance from a level-l node to any
// descendant. The range traversal prunes with each node's measured radius,
// which this bound dominates (Validate checks it).
func (t *Tree[T]) CoverRadius(level int) float64 {
	if level <= 0 {
		return 0
	}
	return math.Ldexp(t.base, level+1) - 2*t.base
}

// Len reports the number of items in the tree.
func (t *Tree[T]) Len() int { return t.size }

// Insert adds an item to the tree. An item at a non-finite distance from
// the root is refused with a panic, before the tree is changed.
func (t *Tree[T]) Insert(item T) {
	if t.root == nil {
		t.root = &node[T]{item: item, level: 1}
		t.size++
		return
	}
	d := t.dist(item, t.root.item)
	if math.IsInf(d, 1) || math.IsNaN(d) {
		panic("covertree: non-finite distance to root; the item cannot be indexed")
	}
	t.size++
	for d > t.Eps(t.root.level) {
		t.root.level++
	}
	// Descend a candidate frontier exactly as in the reference net (the
	// 2ǫᵢ bound keeps the frontier complete), but attach to the single
	// nearest qualifying parent.
	type cand struct {
		n *node[T]
		d float64
	}
	cur := []cand{{t.root, d}}
	bestLevel := -1
	var bestParent *node[T]
	var bestD float64
	for i := t.root.level; i >= 1; i-- {
		epsI := t.Eps(i)
		for _, c := range cur {
			if c.d <= epsI && (bestLevel != i || c.d < bestD) {
				if bestLevel != i {
					bestLevel, bestParent, bestD = i, c.n, c.d
				} else {
					bestParent, bestD = c.n, c.d
				}
			}
		}
		if i == 1 {
			break
		}
		bound := epsI // 2ǫ_{i−1}
		next := cur[:0:0]
		for _, c := range cur {
			if c.d <= bound {
				next = append(next, c)
			}
			for _, e := range c.n.children {
				if e.n.level != i-1 {
					continue
				}
				// Triangle lower bound from the stored parent-child
				// distance: skip children provably outside the frontier.
				if lb := c.d - e.d; lb > bound || -lb > bound {
					continue
				}
				dd := t.dist(item, e.n.item)
				if dd <= bound {
					next = append(next, cand{e.n, dd})
				}
			}
		}
		if len(next) == 0 {
			break
		}
		cur = next
	}
	n := &node[T]{item: item, level: bestLevel - 1, parent: bestParent, pd: bestD}
	bestParent.children = append(bestParent.children, edge[T]{n: n, d: bestD})
	// Raise the cover radii above the new leaf: walk up while the reach
	// through this path exceeds what the ancestor already covers.
	for c := n; c.parent != nil && c.pd+c.rho > c.parent.rho; c = c.parent {
		c.parent.rho = c.pd + c.rho
	}
}

// Range returns every item within eps of q (inclusive).
func (t *Tree[T]) Range(q T, eps float64) []T {
	var out []T
	t.RangeFunc(q, eps, t.dist, func(item T) { out = append(out, item) })
	return out
}

// RangeFunc streams every item within eps of q to yield, computing the
// query-to-node distances with dist, which must agree with the tree's own
// (a caller passes a copy that counts what its query spends). The traversal
// uses the same four pruning rules as the reference net: stored
// parent-child distances give zero-computation subtree inclusion/exclusion
// bounds, and computed node distances give the exact subtree rules, each
// clearing eps by the net's rounding allowance (DESIGN.md §3).
func (t *Tree[T]) RangeFunc(q T, eps float64, dist metric.DistFunc[T], yield func(T)) {
	if t.root == nil {
		return
	}
	// slack notes the distances a bound is built from; it returns the allowance.
	whole, scale := true, 0.0
	slack := func(ds ...float64) float64 {
		for _, d := range ds {
			scale, whole = max(scale, d), whole && d == math.Trunc(d)
		}
		if whole {
			return 0
		}
		return (scale + math.Abs(eps)) * 0x1p-32
	}
	d := dist(q, t.root.item)
	if d <= eps {
		yield(t.root.item)
	}
	type entry struct {
		n *node[T]
		d float64
	}
	stack := []entry{{t.root, d}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ce := range e.n.children {
			c := ce.n
			rho := c.rho
			if lo := math.Abs(e.d - ce.d); lo-rho > eps+slack(e.d, ce.d, rho) {
				continue // whole subtree provably outside
			}
			if e.d+ce.d+rho+slack() <= eps {
				collect(c, yield) // whole subtree provably inside
				continue
			}
			dc := dist(q, c.item)
			if dc-rho > eps+slack(dc) {
				continue
			}
			if dc+rho+slack() <= eps {
				collect(c, yield)
				continue
			}
			if dc <= eps {
				yield(c.item)
			}
			if len(c.children) > 0 {
				stack = append(stack, entry{c, dc})
			}
		}
	}
}

func collect[T any](n *node[T], yield func(T)) {
	yield(n.item)
	for _, e := range n.children {
		collect(e.n, yield)
	}
}

// Stats summarises the tree's structure for space comparisons.
type Stats struct {
	Nodes       int
	MaxLevel    int
	Edges       int
	StructBytes int64
}

// Stats walks the tree and reports structural statistics. Each node costs
// one node struct plus one edge entry in its parent.
func (t *Tree[T]) Stats() Stats {
	var s Stats
	if t.root == nil {
		return s
	}
	s.MaxLevel = t.root.level
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		s.Nodes++
		s.Edges += len(n.children)
		for _, e := range n.children {
			walk(e.n)
		}
	}
	walk(t.root)
	// 72 bytes per node (item header, level, slice header; cover radius,
	// parent link and its distance) plus 16 per edge: an estimate
	// consistent with the reference net's accounting.
	s.StructBytes = int64(s.Nodes)*72 + int64(s.Edges)*16
	return s
}

// Items returns all stored items in unspecified order.
func (t *Tree[T]) Items() []T {
	out := make([]T, 0, t.size)
	if t.root == nil {
		return out
	}
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		out = append(out, n.item)
		for _, e := range n.children {
			walk(e.n)
		}
	}
	walk(t.root)
	return out
}

// Validate checks the covering invariant (every parent-child link within
// the child level's parent radius), that every node's measured cover radius
// equals the max over its children of (edge distance + child's radius) and
// stays under CoverRadius(level), and reachability of all Len() items.
func (t *Tree[T]) Validate() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("covertree: nil root but size %d", t.size)
		}
		return nil
	}
	count := 0
	var verr error
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		count++
		var rho float64
		for _, e := range n.children {
			if v := e.d + e.n.rho; v > rho {
				rho = v
			}
		}
		if verr == nil && (n.rho != rho || rho > t.CoverRadius(n.level)+1e-9) {
			verr = fmt.Errorf("covertree: level-%d node holds cover radius %g, its children give %g (worst case %g)",
				n.level, n.rho, rho, t.CoverRadius(n.level))
		}
		for _, e := range n.children {
			if verr != nil {
				return
			}
			if e.n.parent != n || e.n.pd != e.d {
				verr = fmt.Errorf("covertree: child's parent link does not mirror its edge")
				return
			}
			if e.n.level >= n.level {
				verr = fmt.Errorf("covertree: child level %d not below parent level %d", e.n.level, n.level)
				return
			}
			d := t.dist(n.item, e.n.item)
			if limit := t.Eps(e.n.level + 1); d > limit+1e-9 {
				verr = fmt.Errorf("covertree: edge distance %g exceeds parent radius %g for child level %d",
					d, limit, e.n.level)
				return
			}
			walk(e.n)
		}
	}
	walk(t.root)
	if verr != nil {
		return verr
	}
	if count != t.size {
		return fmt.Errorf("covertree: %d reachable nodes but size %d", count, t.size)
	}
	return nil
}
