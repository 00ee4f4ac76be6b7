package refnet

import (
	"fmt"
	"sort"
	"unsafe"
)

// Stats summarises the structure and space consumption of a net — the
// quantities the paper plots in Figures 5–7 (node counts, list counts,
// average list size / parents per window, index megabytes).
type Stats struct {
	// Nodes is the number of stored items.
	Nodes int
	// MaxLevel is the root's level (the net has MaxLevel+1 conceptual
	// levels).
	MaxLevel int
	// NodesPerLevel counts nodes by their storage level.
	NodesPerLevel map[int]int
	// ChildlessPerLevel counts, by storage level, the nodes with no
	// children — cover radius 0 whatever their level, which is why the
	// traversals prune with measured radii rather than the level's bound.
	ChildlessPerLevel map[int]int
	// ParentLinks is the total number of parent→child edges. Divided by
	// Nodes it is the paper's "average number of parents per window".
	ParentLinks int
	// Lists is the number of non-empty reference lists, one per (reference,
	// child level) pair with at least one entry.
	Lists int
	// AvgParents is ParentLinks / (Nodes−1) (the root has no parent).
	AvgParents float64
	// AvgListSize is ParentLinks / Lists.
	AvgListSize float64
	// StructBytes estimates the memory of the net's own structures (nodes,
	// edges, parent backlinks), excluding item payloads.
	StructBytes int64
	// PayloadBytes estimates item payload memory when a payload sizer was
	// supplied to StatsWithPayload; 0 otherwise.
	PayloadBytes int64
}

// TotalBytes is the estimated total index size in bytes.
func (s Stats) TotalBytes() int64 { return s.StructBytes + s.PayloadBytes }

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d maxLevel=%d lists=%d links=%d avgParents=%.2f avgList=%.2f bytes=%d",
		s.Nodes, s.MaxLevel, s.Lists, s.ParentLinks, s.AvgParents, s.AvgListSize, s.TotalBytes())
}

// Stats walks the net and returns structural statistics, excluding item
// payload sizes.
func (t *Net[T]) Stats() Stats { return t.StatsWithPayload(nil) }

// StatsWithPayload is Stats with a caller-supplied payload sizer, used to
// report total index size for variable-size items (e.g. sequence windows).
func (t *Net[T]) StatsWithPayload(payloadBytes func(T) int) Stats {
	s := Stats{NodesPerLevel: map[int]int{}, ChildlessPerLevel: map[int]int{}}
	if t.root == nil {
		return s
	}
	s.MaxLevel = t.root.level
	var edgeSize = int64(unsafe.Sizeof(edge[T]{}))
	var nodeSize = int64(unsafe.Sizeof(Node[T]{}))
	t.walk(func(n *Node[T]) {
		s.Nodes++
		s.NodesPerLevel[n.level]++
		if len(n.children) == 0 {
			s.ChildlessPerLevel[n.level]++
		}
		s.ParentLinks += len(n.children)
		levels := map[int]bool{}
		for _, e := range n.children {
			levels[e.n.level+1] = true
		}
		s.Lists += len(levels)
		s.StructBytes += nodeSize + edgeSize*int64(len(n.children)+len(n.parents))
		if payloadBytes != nil {
			s.PayloadBytes += int64(payloadBytes(n.item))
		}
	})
	if s.Nodes > 1 {
		s.AvgParents = float64(s.ParentLinks) / float64(s.Nodes-1)
	}
	if s.Lists > 0 {
		s.AvgListSize = float64(s.ParentLinks) / float64(s.Lists)
	}
	return s
}

// walk visits every node exactly once.
func (t *Net[T]) walk(visit func(*Node[T])) {
	if t.root == nil {
		return
	}
	seen := map[*Node[T]]bool{t.root: true}
	stack := []*Node[T]{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(n)
		for _, e := range n.children {
			if !seen[e.n] {
				seen[e.n] = true
				stack = append(stack, e.n)
			}
		}
	}
}

// Walk visits every node handle exactly once, in the net's stable walk
// order (the order Save serialises nodes in). Callers use it to rebuild
// side tables keyed by item identity after Load — e.g. the matcher's
// window→handle map that feeds Delete. The handles remain valid until the
// node is deleted. visit must not mutate the net.
func (t *Net[T]) Walk(visit func(*Node[T])) { t.walk(visit) }

// RewriteItems replaces every stored item with fn(item). It exists for
// one purpose: after Load, item payloads own freshly decoded storage, and
// a caller holding the canonical backing data (e.g. restored database
// sequences) can re-alias payload views onto it instead of keeping two
// copies alive. fn MUST be distance-preserving — the rewritten item must
// be metrically identical to the original, or every stored edge distance
// becomes a lie and queries are silently wrong.
func (t *Net[T]) RewriteItems(fn func(T) T) {
	t.walk(func(n *Node[T]) { n.item = fn(n.item) })
}

// Validate checks the net's structural invariants and returns a descriptive
// error on the first violation. It recomputes distances, so it is O(edges)
// distance evaluations — intended for tests and debugging.
//
// Checked invariants:
//   - reachability: every one of Len() items is reachable from the root;
//   - level order: parents are at strictly higher levels than children;
//   - inclusive property: every parent-child link respects the child
//     level's parent radius δ(p,c) ≤ ǫ_{level(c)+1}, and stored edge
//     distances match the metric;
//   - parent backlinks are consistent with child lists;
//   - the parent cap nummax;
//   - cover radius: every node's rho equals, exactly, the max over its
//     children of (stored edge distance + child's rho) — 0 when childless —
//     and stays under the level's worst case coverRadius(level).
func (t *Net[T]) Validate() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("refnet: nil root but size %d", t.size)
		}
		return nil
	}
	if len(t.root.parents) != 0 {
		return fmt.Errorf("refnet: root has %d parents", len(t.root.parents))
	}
	count := 0
	var err error
	t.walk(func(p *Node[T]) {
		count++
		if err != nil {
			return
		}
		if p != t.root && len(p.parents) == 0 {
			err = fmt.Errorf("refnet: non-root node at level %d has no parents", p.level)
			return
		}
		if t.numMax > 0 && len(p.parents) > t.numMax {
			err = fmt.Errorf("refnet: node has %d parents, cap is %d", len(p.parents), t.numMax)
			return
		}
		for _, par := range p.parents {
			if !containsChild(par.n.children, p) {
				err = fmt.Errorf("refnet: parent backlink without child entry")
				return
			}
			if d := t.dist(par.n.item, p.item); d-par.d > 1e-9 || par.d-d > 1e-9 {
				err = fmt.Errorf("refnet: stored parent-link distance %g differs from metric %g", par.d, d)
				return
			}
		}
		if rho := p.reach(); p.rho != rho {
			err = fmt.Errorf("refnet: level-%d node holds cover radius %g, its children give %g", p.level, p.rho, rho)
			return
		}
		if limit := t.coverRadius(p.level); p.rho > limit+1e-9 {
			err = fmt.Errorf("refnet: cover radius %g exceeds the level-%d worst case %g", p.rho, p.level, limit)
			return
		}
		for _, e := range p.children {
			if e.n.level >= p.level {
				err = fmt.Errorf("refnet: child level %d not below parent level %d", e.n.level, p.level)
				return
			}
			d := t.dist(p.item, e.n.item)
			if diff := d - e.d; diff > 1e-9 || diff < -1e-9 {
				err = fmt.Errorf("refnet: stored edge distance %g differs from metric %g", e.d, d)
				return
			}
			if limit := t.eps(e.n.level + 1); d > limit+1e-9 {
				err = fmt.Errorf("refnet: edge distance %g exceeds parent radius %g for child level %d",
					d, limit, e.n.level)
				return
			}
			if !containsChild(e.n.parents, p) {
				err = fmt.Errorf("refnet: child entry without parent backlink")
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("refnet: %d reachable nodes but size %d", count, t.size)
	}
	return nil
}

// LevelHistogram returns the storage levels present in the net in
// ascending order with their node counts, and how many of those nodes are
// childless, for diagnostics.
func (t *Net[T]) LevelHistogram() []struct{ Level, Count, Childless int } {
	s := t.Stats()
	levels := make([]int, 0, len(s.NodesPerLevel))
	for l := range s.NodesPerLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	out := make([]struct{ Level, Count, Childless int }, len(levels))
	for i, l := range levels {
		out[i] = struct{ Level, Count, Childless int }{l, s.NodesPerLevel[l], s.ChildlessPerLevel[l]}
	}
	return out
}

func containsChild[T any](edges []edge[T], n *Node[T]) bool {
	for _, e := range edges {
		if e.n == n {
			return true
		}
	}
	return false
}
