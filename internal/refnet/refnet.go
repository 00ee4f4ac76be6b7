// Package refnet implements the Reference Net of Section 6 and Appendix A
// of the paper: a linear-space hierarchical index for metric spaces,
// optimised for range queries.
//
// # Structure
//
// The net has levels 0..r-1. Level radii grow geometrically: ǫᵢ = ǫ′·2ⁱ
// where ǫ′ is the base radius. Every item is a node stored once, at the
// highest level where it acts as a reference (level 0 for plain data
// points); conceptually a node at level i is also present at every level
// below i. A node R at level i keeps, for every level k ≤ i, a list L(k,R)
// of the level k−1 nodes z with δ(R,z) ≤ ǫₖ that chose R as a parent.
//
// Two invariants from the paper govern the structure:
//
//   - inclusive: every non-root node has at least one parent in the level
//     above, within that level's radius. This package maintains it exactly;
//     range-query correctness depends on it (plus the triangle inequality).
//   - exclusive: references on the same level are at least the level radius
//     apart. Like the paper's Algorithm 1, insertion enforces this against
//     the candidate frontier it examines, which makes it exact for
//     single-parent chains and best-effort in general; it affects pruning
//     efficiency only, never correctness.
//
// Unlike a cover tree, a node may have multiple parents (every qualifying
// reference up to an optional cap nummax, nearest first). Multi-parenthood
// is what lets a single reference certify more of the database during range
// queries (Figure 2 of the paper).
//
// # Cover radius
//
// Lemma 4 and the Appendix's range query exclude or include a reference's
// lists by the radius those lists have. Every node therefore carries ρ, its
// measured cover radius: 0 for a childless node, otherwise the max over its
// children of (stored edge distance + the child's ρ). By the triangle
// inequality ρ bounds the distance to every descendant, and every traversal
// prunes with it. The level's worst case, coverRadius(level) = ǫ′·(2^{l+1}−2),
// only dominates it: a node's level is set by how far its nearest reference
// is, not by what hangs below it, and most nodes at level ≥ 1 are childless.
// The invariant is held with equality and maintained from the stored edge
// distances alone (attach raises, Delete settles, Load derives them bottom
// up — see raise and settle), so it costs no distance computation, and a
// live net and the same net restored by Load hold identical radii.
//
// # Mutation
//
// Insertion and the repair after Delete (delete.go) share one top-down
// descent, frontier, which keeps at conceptual level i every node within 2ǫᵢ
// of the item. An inserted item hangs under the nodes of the lowest level i
// that lie within ǫᵢ; Delete re-homes an orphan with the descent stopped one
// level above it, or relocates it from the root when nothing there qualifies.
//
// # Complexity
//
// Space is O(n·p) where p is the average parent count (bounded by nummax
// when set; observed below 4 on the paper's datasets). Insertion and range
// queries compute distances only against the candidate frontier, which for
// well-spread data is logarithmic in practice.
//
// # Query surface
//
// Every range read is a Session (range.go): a probe set held open on the net
// and answered in one walk of the hierarchy — the subsequence framework
// passes the segments of one query. A session is read as Range or as
// MinDist, the least probe-to-item distance, and keeps every distance it has
// computed across its reads. Two capabilities cut the evaluation cost of
// traversal probes: SetBounded arms an early-abandoning distance (probes
// evaluate at the query radius plus the node's cover radius, proving
// subtrees outside at a fraction of a full evaluation), and OpenSession
// accepts a metric.BatchEvaluator that prices all probes inconclusive at a
// node in one call — the subsequence framework streams probes sharing a
// query offset through a single incremental kernel pass there. Nets
// serialise with Save/Load (serialize.go) without recomputing any
// distances. Net.Range is a session of one probe and BatchRange a session of
// many, each opened, read once and closed; there is no other traversal.
package refnet

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/metric"
)

// Compile-time check: Net satisfies the shared index interface.
var _ metric.Index[int] = (*Net[int])(nil)

// Net is a reference net over items of type T. It must be created with New;
// the zero value is not usable. A Net is not safe for concurrent mutation;
// concurrent read-only queries are safe.
type Net[T any] struct {
	dist   metric.DistFunc[T]
	base   float64 // ǫ′, the level-0 radius scale
	numMax int     // max parents per node; 0 = unlimited
	// noEdgeBounds disables the stored-distance child bounds during range
	// queries (ablation; see WithEdgeBounds).
	noEdgeBounds bool
	root         *Node[T]
	size         int
	// nextID is the size of the node-id space: every session sizes its
	// per-node tables to it (OpenSession). Ids are dense on a
	// freshly built or loaded net; Delete hands a node's id to freeIDs and
	// newID draws from there first, so under delete+insert churn the space
	// stays at the net's peak size instead of growing with every insertion
	// ever made.
	nextID  int32
	freeIDs []int32
	// bounded, when set, is the early-abandoning evaluation of dist used by
	// range traversals (see SetBounded).
	bounded metric.BoundedDistFunc[T]
	// bpool recycles sessions with their traversal state (per-node masks and
	// distances indexed by node id, frame and evaluation buffers) so range
	// queries allocate nothing per visited node — see OpenSession. sync.Pool
	// keeps concurrent read-only queries safe.
	bpool sync.Pool
	// Mutation scratch for frontier, which no query reads: marks[id] ==
	// epoch flags a node the current descent has considered, and cur, next
	// and within are its reused frontier buffers.
	marks             []uint32
	epoch             uint32
	cur, next, within []cand[T]
}

// SetBounded arms an early-abandoning distance evaluation for range
// traversals (Range, sessions). fn must agree with the net's
// DistFunc under the BoundedDistFunc contract. When armed, every child
// probe is evaluated with threshold eps+ρ (the query radius plus the
// child's cover radius): an abandoned evaluation proves the whole subtree
// lies outside the ball, so it is pruned exactly as rule 3 would with the
// exact distance, at a fraction of the evaluation cost. Abandoned values
// are inexact, so they are not recorded for the stored-distance triangle
// bounds — which can shift which later nodes get zero-computation bounds,
// but never which items a query returns. nil disarms. Not safe to call
// concurrently with queries.
func (t *Net[T]) SetBounded(fn metric.BoundedDistFunc[T]) { t.bounded = fn }

// Node is a handle to an item stored in the net, returned by InsertTracked
// and accepted by Delete. Handles become invalid after the item is deleted.
type Node[T any] struct {
	item  T
	level int
	id    int32 // dense index into per-session tables, assigned at creation
	// rho is the measured cover radius: 0 for a childless node, otherwise
	// the max over children of (stored edge distance + the child's rho). By
	// the triangle inequality it bounds the distance to every descendant;
	// it is what the traversals prune with. See raise and settle.
	rho      float64
	children []edge[T]
	parents  []edge[T] // back-links with the same stored distances
}

// Item returns the stored item.
func (n *Node[T]) Item() T { return n.item }

// edge is a parent→child link annotated with the parent-child distance,
// precomputed at attach time so range queries can include or exclude
// children without fresh distance computations.
type edge[T any] struct {
	n *Node[T]
	d float64
}

// Option configures a Net.
type Option func(*config)

type config struct {
	base         float64
	numMax       int
	noEdgeBounds bool
}

// WithBase sets the base radius ǫ′ (default 1, the paper's default in all
// experiments). Level i has radius ǫ′·2ⁱ.
func WithBase(base float64) Option { return func(c *config) { c.base = base } }

// WithMaxParents caps the number of lists a node may appear in (the paper's
// nummax; e.g. 5 for the DFD-5 and RN-5 configurations). Zero means
// unlimited.
func WithMaxParents(n int) Option { return func(c *config) { c.numMax = n } }

// WithEdgeBounds toggles the zero-computation child bounds derived from
// stored parent-child distances during range queries (default on). It
// exists for the ablation benchmarks: turning it off degrades queries to
// the paper's bare list-radius rules, quantifying what the stored
// distances buy.
func WithEdgeBounds(on bool) Option { return func(c *config) { c.noEdgeBounds = !on } }

// New returns an empty reference net using the given metric distance.
// The distance must satisfy the metric axioms; the net's pruning is unsound
// otherwise (use the framework's linear-scan path for non-metric measures
// such as DTW).
func New[T any](dist metric.DistFunc[T], opts ...Option) *Net[T] {
	cfg := config{base: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.base <= 0 {
		panic(fmt.Sprintf("refnet: base radius must be positive, got %v", cfg.base))
	}
	if cfg.numMax < 0 {
		panic(fmt.Sprintf("refnet: max parents must be non-negative, got %d", cfg.numMax))
	}
	return &Net[T]{dist: dist, base: cfg.base, numMax: cfg.numMax, noEdgeBounds: cfg.noEdgeBounds}
}

// eps returns the radius ǫ′·2ⁱ of level i.
func (t *Net[T]) eps(i int) float64 { return math.Ldexp(t.base, i) }

// coverRadius returns the worst-case distance from a level-l node to any
// node in its subtree: Σ_{k=1..l} ǫₖ = ǫ′·(2^{l+1} − 2), the "derived from
// R(i,j)" bound of Lemma 4 and the Appendix's range query. No traversal
// prunes with it: every node carries its measured radius (rho; see raise
// and settle), which this bound dominates because every edge respects its
// list radius — Validate holds each node's measured radius under it.
func (t *Net[T]) coverRadius(level int) float64 {
	if level <= 0 {
		return 0
	}
	return math.Ldexp(t.base, level+1) - 2*t.base
}

// Len reports the number of items in the net.
func (t *Net[T]) Len() int { return t.size }

// Insert adds an item to the net (Appendix A.1).
func (t *Net[T]) Insert(item T) { t.InsertTracked(item) }

// InsertTracked adds an item and returns its node handle, which can later
// be passed to Delete. An item at a non-finite distance from the root is
// refused with a panic, before the net is changed.
func (t *Net[T]) InsertTracked(item T) *Node[T] {
	if t.root == nil {
		t.root = &Node[T]{item: item, level: 1, id: t.newID()}
		t.size++
		return t.root
	}
	level, parents := t.locate(item)
	n := &Node[T]{item: item, level: level, id: t.newID()}
	t.attach(n, parents)
	t.size++
	return n
}

// newID hands out a query-state index: one a deleted node gave back if
// there is one, the next unused one otherwise.
func (t *Net[T]) newID() int32 {
	if n := len(t.freeIDs); n > 0 {
		id := t.freeIDs[n-1]
		t.freeIDs = t.freeIDs[:n-1]
		return id
	}
	id := t.nextID
	t.nextID++
	return id
}

// cand is a frontier entry during descent: a node plus its (already
// computed) distance to the item being located.
type cand[T any] struct {
	n *Node[T]
	d float64
}

// locate finds the level item belongs at in a non-empty net, and its
// parents: it raises the root until the root covers the item, then descends
// all the way. It panics, before changing anything, when the item's distance
// to the root is not finite.
func (t *Net[T]) locate(item T) (level int, parents []cand[T]) {
	d := t.dist(item, t.root.item)
	if math.IsInf(d, 1) || math.IsNaN(d) {
		panic("refnet: non-finite distance to root; the item cannot be indexed")
	}
	for d > t.eps(t.root.level) {
		t.root.level++
	}
	// The root now qualifies at its own level, so i ≥ 1.
	i, parents := t.frontier(item, d, 1)
	return i - 1, parents
}

// frontier is the top-down location pass of insertion and orphan re-homing
// (Appendix A.1–A.2), run from the root (at distance d from item) down to
// conceptual level stop ≥ 1. It returns the lowest level i ≥ stop at which
// some conceptual node lies within ǫᵢ of item, with those nodes — the
// parents of a node stored at level i−1 — or 0 and no nodes if no level does.
//
// The frontier P at conceptual level i provably contains every node of
// level ≥ i within 2ǫᵢ of the item: a level-(i−1) node z within 2ǫ_{i−1}
// has each of its parents p within δ(z,p) ≤ ǫᵢ, so δ(item,p) ≤ 2ǫ_{i−1} +
// ǫᵢ = 2ǫᵢ, hence p was on the previous frontier and z is enumerated among
// its children. The frontier's 2ǫ bound makes the within-ǫᵢ test exact.
//
// The returned slice is the net's own buffer, valid until the next call;
// attach consumes it.
func (t *Net[T]) frontier(item T, d float64, stop int) (level int, within []cand[T]) {
	if t.epoch++; t.epoch == 0 { // wrapped: clear so no old mark reads as current
		clear(t.marks)
		t.epoch = 1
	}
	if n := int(t.nextID); len(t.marks) < n {
		t.marks = append(t.marks, make([]uint32, n-len(t.marks))...)
	}
	t.marks[t.root.id] = t.epoch
	cur, next, within := append(t.cur[:0], cand[T]{t.root, d}), t.next, t.within[:0]
	for i := t.root.level; i >= stop; i-- {
		// The frontier for conceptual level i−1 keeps everything within
		// 2ǫ_{i−1} = ǫᵢ, which is exactly level i's within set.
		epsI := t.eps(i)
		next = next[:0]
		for _, c := range cur {
			if c.d <= epsI {
				next = append(next, c)
			}
		}
		if len(next) > 0 {
			level, within = i, append(within[:0], next...)
		}
		if i == stop {
			break
		}
		// Add the level-(i−1) children of the current frontier. The stored
		// parent-child distance gives a free lower bound |δ(item,p) −
		// δ(p,c)| ≤ δ(item,c) that skips most children without a distance
		// computation; it is tested against the first parent that reaches
		// the child only.
		for _, c := range cur {
			for _, e := range c.n.children {
				if e.n.level != i-1 || t.marks[e.n.id] == t.epoch {
					continue
				}
				t.marks[e.n.id] = t.epoch
				if lb := c.d - e.d; lb > epsI || -lb > epsI {
					continue
				}
				if dd := t.dist(item, e.n.item); dd <= epsI {
					next = append(next, cand[T]{e.n, dd})
				}
			}
		}
		if len(next) == 0 {
			break
		}
		cur, next = next, cur
	}
	// Drop the node pointers so no stale entry keeps a deleted item alive.
	clear(cur[:cap(cur)])
	clear(next[:cap(next)])
	t.cur, t.next, t.within = cur, next, within
	return level, within
}

// attach links n under the given candidate parents, nearest first, capped
// at numMax when set, raising each parent's cover radius over the new link.
// n's own radius is not always 0 here: rehome's fast path re-attaches an
// orphan that keeps its children. parents is frontier's buffer; attach
// clears it to its capacity, so no node pointer outlives the call there.
func (t *Net[T]) attach(n *Node[T], parents []cand[T]) {
	sort.Slice(parents, func(i, j int) bool { return parents[i].d < parents[j].d })
	linked := parents
	if t.numMax > 0 && len(linked) > t.numMax {
		linked = linked[:t.numMax]
	}
	for _, p := range linked {
		p.n.children = append(p.n.children, edge[T]{n: n, d: p.d})
		n.parents = append(n.parents, edge[T]{n: p.n, d: p.d})
		p.n.raise(p.d + n.rho)
	}
	clear(parents[:cap(parents)])
}

// The cover-radius invariant, held with equality on every node:
//
//	n.rho == max over n.children of (e.d + e.n.rho), 0 when childless.
//
// Equality rather than an upper bound is what makes a live net, a net
// rebuilt from scratch and a net restored by Load agree bit for bit: the
// value is a max of sums of the same stored float64s whatever order the
// links arrived in. Both maintenance steps read stored edge distances only
// — no distance is ever computed — and both walk parent links, along which
// levels strictly rise, so they stop within root-level steps.

// raise lifts n's cover radius to at least r — a child link now reaches
// that far — and carries any increase through all of n's parents (the net
// is a multi-parent DAG). Only the one term grew, so max(old, r) is the new
// max over children.
func (n *Node[T]) raise(r float64) {
	if r <= n.rho {
		return
	}
	n.rho = r
	for _, p := range n.parents {
		p.n.raise(p.d + r)
	}
}

// reach is the right-hand side of the invariant: how far n's child links
// reach, given the children's current radii.
func (n *Node[T]) reach() float64 {
	var r float64
	for _, e := range n.children {
		if v := e.d + e.n.rho; v > r {
			r = v
		}
	}
	return r
}

// settle recomputes n's cover radius after it lost a child or a child's
// radius fell, and carries the change upward only while the value falls.
func (n *Node[T]) settle() {
	r := n.reach()
	if r == n.rho {
		return
	}
	n.rho = r
	for _, p := range n.parents {
		p.n.settle()
	}
}
