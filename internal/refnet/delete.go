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
// none exist by re-locating them from the root (which may change their level
// and recursively re-home their own children); see rehome.
func (t *Net[T]) Delete(h *Node[T]) error {
	if h == nil {
		return ErrNotMember
	}
	// A member's parent links lead up to this net's root: O(height), no
	// distance computed. A deleted node has no parents, and another net's
	// node leads to that net's root.
	top := h
	for len(top.parents) > 0 {
		top = top.parents[0].n
	}
	if top != t.root {
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
// parents) by one of two paths. The fast path keeps the node at its level,
// with its children: it runs the descent down to the level above the node
// and attaches the node under every qualifying parent there. When there is
// none (or the root is below that level), the slow path relocates the node
// as insertion would, at whatever level the descent finds, and re-homes its
// children in turn.
func (t *Net[T]) rehome(c *Node[T]) {
	if c == t.root {
		return
	}
	if target := c.level + 1; t.root.level >= target {
		if level, parents := t.frontier(c.item, t.dist(c.item, t.root.item), target); level == target {
			t.attach(c, parents)
			return
		}
	}
	// Detach all children first so the descent cannot route through (and
	// cycle into) the node's own subtree; they are re-homed afterwards.
	orphans := detachChildren(c)
	var parents []cand[T]
	c.level, parents = t.locate(c.item)
	t.attach(c, parents)
	for _, o := range orphans {
		t.rehome(o)
	}
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
