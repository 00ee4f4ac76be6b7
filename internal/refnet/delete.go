package refnet

import (
	"errors"
	"fmt"
)

// ErrNotMember is returned by Delete when the handle does not belong to
// this net (already deleted, or inserted elsewhere).
var ErrNotMember = errors.New("refnet: node is not a member of this net")

// Delete removes the item behind handle h from the net (Appendix A.2).
//
// As in the paper, children of the deleted node that still appear in some
// other reference's list are left alone; orphaned children are re-homed —
// first by searching for replacement parents at their own level, and if
// none exist by re-locating them with the insertion descent (which may
// change their level and recursively re-home their own children).
func (t *Net[T]) Delete(h *Node[T]) error {
	if h == nil || t.root == nil {
		return ErrNotMember
	}
	if h != t.root && len(h.parents) == 0 {
		return ErrNotMember
	}
	if h == t.root {
		return t.deleteRoot()
	}
	for _, p := range h.parents {
		p.n.children = removeChild(p.n.children, h)
		p.n.settle()
	}
	h.parents = nil
	t.size--
	t.freeIDs = append(t.freeIDs, h.id)
	orphans := detachChildren(h)
	for _, c := range orphans {
		t.rehome(c)
	}
	return nil
}

// deleteRoot removes the root node. The highest-level child becomes the new
// root and every other orphan is re-homed beneath it.
func (t *Net[T]) deleteRoot() error {
	old := t.root
	t.size--
	orphans := detachChildren(old)
	// Children of the root may have other parents; those need no help, but
	// detachChildren already filtered them out.
	if len(orphans) == 0 && t.size > 0 {
		// All of the old root's children survive under other parents — but
		// then those parents were reachable only through the root, which is
		// impossible unless the net is now disconnected. The only legal
		// state with no orphans is an empty net.
		return fmt.Errorf("refnet: internal error: root with %d items had no orphans", t.size)
	}
	t.freeIDs = append(t.freeIDs, old.id)
	if len(orphans) == 0 {
		t.root = nil
		return nil
	}
	// Promote the highest-level orphan.
	best := 0
	for i, c := range orphans {
		if c.level > orphans[best].level {
			best = i
		}
	}
	newRoot := orphans[best]
	if newRoot.level < 1 {
		newRoot.level = 1
	}
	t.root = newRoot
	for i, c := range orphans {
		if i == best {
			continue
		}
		t.rehome(c)
	}
	return nil
}

// detachChildren removes n from the parent lists of all its children and
// returns the children that became parentless. n is left childless, so its
// cover radius goes to 0 and its parents settle (every caller passes a node
// already cut from its parents, so today nothing is above it to settle).
func detachChildren[T any](n *Node[T]) []*Node[T] {
	var orphans []*Node[T]
	for _, e := range n.children {
		e.n.parents = removeChild(e.n.parents, n)
		if len(e.n.parents) == 0 {
			orphans = append(orphans, e.n)
		}
	}
	n.children = nil
	n.settle()
	return orphans
}

// rehome finds a new position for an orphaned node (a node with no
// parents). It first tries to keep the node at its current level by
// searching for qualifying parents; failing that it re-runs the insertion
// descent, which may assign a different level, in which case children whose
// levels no longer fit beneath the node are recursively re-homed.
func (t *Net[T]) rehome(c *Node[T]) {
	if c == t.root {
		return
	}
	// Fast path: find replacement parents at the node's own level.
	if parents := t.findParents(c.item, c.level); len(parents) > 0 {
		t.attach(c, parents)
		return
	}
	// Slow path: relocate via the insertion descent. Detach all children
	// first so the descent cannot route through (and cycle into) the
	// node's own subtree; children are re-homed afterwards.
	orphans := detachChildren(c)
	level, parents := t.descend(c.item)
	// The descent may hand back the node itself... it cannot: c has no
	// parents and is not the root, so it is unreachable from the root.
	c.level = level
	t.attach(c, parents)
	for _, o := range orphans {
		t.rehome(o)
	}
}

// findParents searches for nodes of level ≥ level+1 within ǫ_{level+1} of
// item — the legal parents for a node at the given level. It reuses the
// insertion descent frontier, stopping at conceptual level level+1.
func (t *Net[T]) findParents(item T, level int) []cand[T] {
	target := level + 1
	if t.root == nil || t.root.level < target {
		return nil
	}
	d := t.dist(item, t.root.item)
	cur := []cand[T]{{t.root, d}}
	visited := map[*Node[T]]bool{t.root: true}
	for i := t.root.level; i > target; i-- {
		bound := t.Eps(i) // 2ǫ_{i−1}
		next := cur[:0:0]
		for _, c := range cur {
			if c.d <= bound {
				next = append(next, c)
			}
		}
		for _, c := range cur {
			for _, e := range c.n.children {
				if e.n.level != i-1 || visited[e.n] {
					continue
				}
				if lb := c.d - e.d; lb > bound || -lb > bound {
					visited[e.n] = true
					continue
				}
				visited[e.n] = true
				dd := t.dist(item, e.n.item)
				if dd <= bound {
					next = append(next, cand[T]{e.n, dd})
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		cur = next
	}
	var parents []cand[T]
	epsT := t.Eps(target)
	for _, c := range cur {
		if c.d <= epsT {
			parents = append(parents, c)
		}
	}
	return parents
}

func removeChild[T any](edges []edge[T], n *Node[T]) []edge[T] {
	out := edges[:0]
	for _, e := range edges {
		if e.n != n {
			out = append(out, e)
		}
	}
	// Zero the tail so deleted nodes can be collected.
	for i := len(out); i < len(edges); i++ {
		edges[i] = edge[T]{}
	}
	return out
}
