package refnet

import "repro/internal/metric"

// Range query (Appendix A.3). The traversal maintains, per query, the two
// certainty sets of the paper — items proven inside the ball and items
// proven outside — realised here as a per-node decided flag plus the result
// stream, and additionally the computed query-to-node distances.
//
// For a child c of a node whose distance is known, the triangle inequality
// through EVERY parent of c with a computed distance gives bounds
//
//	lo = max over known parents p of |δ(q,p) − δ(p,c)|
//	hi = min over known parents p of  δ(q,p) + δ(p,c)
//
// (δ(p,c) is stored on the edge at insertion time, so these cost no
// distance computations). This is exactly the multi-parent advantage the
// paper illustrates in Figure 2: a node sitting in several reference
// lists can be certified through whichever reference yields the tightest
// bound — a single-parent tree has no such choice. Writing ρ for the
// cover radius of c — the measured one, c.rho: the max over c's children of
// (stored edge distance + child's ρ), 0 for a childless c, kept equal to
// that by every mutation (raise and settle in refnet.go) — the rules are
// then:
//
//  1. lo − ρ > ε  ⇒ the whole subtree of c is outside; prune with no
//     distance computation (Lemma 4 generalised with stored distances).
//  2. hi + ρ ≤ ε  ⇒ the whole subtree of c is inside; collect with no
//     distance computation.
//  3. otherwise compute dc = δ(q,c); then dc − ρ > ε prunes and
//     dc + ρ ≤ ε collects the subtree, as in the Appendix.
//  4. inconclusive ⇒ report c if dc ≤ ε and recurse into its children.
//
// The rules need only that ρ bounds δ(c, x) for every descendant x of c,
// which the triangle inequality gives along any path of stored edges. The
// tighter ρ is, the more often rules 1–3 fire — a childless c (most nodes,
// whatever their level) has ρ = 0 and is settled by its own distance alone
// — but the answer never depends on it.
//
// Multi-parent sharing means a node can be reached along several paths;
// the decided flag guarantees each node's membership is settled exactly
// once.
//
// Step 3 is where all the distance cost lives, and two capabilities cut it.
// When the net's distance has a bounded evaluation (SetBounded), probes are
// evaluated with threshold ε+ρ: the evaluation may abandon as soon as the
// subtree is provably outside, and the abandoned (inexact) value is simply
// not recorded for the parent bounds. When the caller supplies a
// BatchEvaluator (BatchRangeEval), all probes that reach step 3 at a node
// are evaluated in ONE call, letting the evaluator share work across them —
// the framework streams probes sharing a query offset through a single
// incremental kernel pass over the node's window.
//
// Per-query bookkeeping lives in flat slices indexed by the dense node ids
// assigned at insertion — a query touches each slot with two or three
// unhashed array accesses where a map would hash a pointer per probe. The
// slices are pooled on the net, so steady-state queries allocate only their
// result slice; the same pooled state backs the batched traversal, whose
// profile was dominated by map operations before the switch.

// decidedBit marks a node whose ball membership is settled for this query;
// computedBit marks a node whose distance to the query has been computed
// (and stored in queryState.d).
const (
	decidedBit  = 1
	computedBit = 2
)

// queryState is the per-query traversal scratch: node flags, computed
// distances, and the explicit DFS stack, all recycled via Net.qpool.
type queryState[T any] struct {
	flags []uint8
	d     []float64
	stack []stackEntry[T]
}

type stackEntry[T any] struct {
	n *Node[T]
	d float64
}

// getState returns a query state sized for the current node-id space with
// all flags cleared.
func (t *Net[T]) getState() *queryState[T] {
	s, _ := t.qpool.Get().(*queryState[T])
	if s == nil {
		s = &queryState[T]{}
	}
	n := int(t.nextID)
	if cap(s.flags) < n {
		s.flags = make([]uint8, n)
		s.d = make([]float64, n)
	} else {
		s.flags = s.flags[:n]
		s.d = s.d[:n]
		clear(s.flags)
	}
	s.stack = s.stack[:0]
	return s
}

func (t *Net[T]) putState(s *queryState[T]) { t.qpool.Put(s) }

// probeDist evaluates δ(q, item) under the net's bounded evaluation when
// armed: exact reports whether the returned value is the true distance
// (false only for an abandoned bounded evaluation, which proves the true
// distance exceeds bound).
func (t *Net[T]) probeDist(q, item T, bound float64) (d float64, exact bool) {
	if t.bounded != nil {
		v := t.bounded(q, item, bound)
		return v, v <= bound
	}
	return t.dist(q, item), true
}

// Range returns every item within eps of q (inclusive).
func (t *Net[T]) Range(q T, eps float64) []T {
	var out []T
	t.RangeFunc(q, eps, func(item T) { out = append(out, item) })
	return out
}

// RangeFunc streams every item within eps of q to yield, avoiding result
// slice allocation. The order of results is unspecified.
func (t *Net[T]) RangeFunc(q T, eps float64, yield func(T)) {
	if t.root == nil {
		return
	}
	st := t.getState()
	t.rangeWith(st, q, eps, func(item T) bool { yield(item); return true })
	t.putState(st)
}

// Exists reports whether any item lies within eps of q. It runs the same
// traversal as Range but stops at the first item proven inside the ball —
// including a whole subtree certified by rule 2, whose first member
// terminates the walk without visiting the rest.
func (t *Net[T]) Exists(q T, eps float64) bool {
	if t.root == nil {
		return false
	}
	st := t.getState()
	found := !t.rangeWith(st, q, eps, func(T) bool { return false })
	t.putState(st)
	return found
}

// rangeWith runs the traversal with the given scratch, streaming results to
// yield; yield returning false stops the walk immediately and makes
// rangeWith return false.
func (t *Net[T]) rangeWith(st *queryState[T], q T, eps float64, yield func(T) bool) bool {
	rootRho := t.root.rho
	d, _ := t.probeDist(q, t.root.item, eps+rootRho)
	if d > eps+rootRho {
		// δ(q, root) > ε + ρ(root): every item is outside the ball (rule 3
		// at the root; when the evaluation abandoned, a proof rather than a
		// distance). Values at or under the bound are exact.
		return true
	}
	st.flags[t.root.id] = decidedBit | computedBit
	st.d[t.root.id] = d
	if d <= eps && !yield(t.root.item) {
		return false
	}
	stack := append(st.stack[:0], stackEntry[T]{t.root, d})
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, d := e.n, e.d
		for _, ce := range n.children {
			c := ce.n
			if st.flags[c.id]&decidedBit != 0 {
				continue
			}
			rho := c.rho
			if !t.noEdgeBounds {
				lo := d - ce.d
				if lo < 0 {
					lo = -lo
				}
				hi := d + ce.d
				// Tighten through every other parent already computed.
				for _, pe := range c.parents {
					if pe.n == n || st.flags[pe.n.id]&computedBit == 0 {
						continue
					}
					dp := st.d[pe.n.id]
					if l := dp - pe.d; l > lo {
						lo = l
					} else if -l > lo {
						lo = -l
					}
					if h := dp + pe.d; h < hi {
						hi = h
					}
				}
				if lo-rho > eps {
					t.markSubtree(c, st)
					continue
				}
				if hi+rho <= eps {
					if !t.collectSubtree(c, st, yield) {
						st.stack = stack
						return false
					}
					continue
				}
			}
			dc, exact := t.probeDist(q, c.item, eps+rho)
			if !exact {
				// Abandoned: δ(q,c) > ε + ρ proves the subtree outside; the
				// inexact value is not recorded for parent bounds.
				t.markSubtree(c, st)
				continue
			}
			st.flags[c.id] |= computedBit
			st.d[c.id] = dc
			if dc-rho > eps {
				t.markSubtree(c, st)
				continue
			}
			if dc+rho <= eps {
				if !t.collectSubtree(c, st, yield) {
					st.stack = stack
					return false
				}
				continue
			}
			st.flags[c.id] |= decidedBit
			if dc <= eps && !yield(c.item) {
				st.stack = stack
				return false
			}
			if len(c.children) > 0 {
				stack = append(stack, stackEntry[T]{c, dc})
			}
		}
	}
	st.stack = stack
	return true
}

// markSubtree marks c and its multi-parent descendants as decided
// (outside the ball). Mirroring the Appendix, this prevents re-examining,
// via another parent, nodes already excluded by a subtree bound. Nodes
// with a single parent are reachable only through this walk, so skipping
// their flags is safe and keeps per-query bookkeeping proportional to the
// multi-parent population rather than the subtree size.
func (t *Net[T]) markSubtree(c *Node[T], st *queryState[T]) {
	if len(c.parents) > 1 {
		if st.flags[c.id]&decidedBit != 0 {
			return
		}
		st.flags[c.id] |= decidedBit
	}
	for _, e := range c.children {
		t.markSubtree(e.n, st)
	}
}

// collectSubtree reports c and all its not-yet-decided descendants as
// results, with the same single-parent marking optimisation as markSubtree
// (a single-parent node can be collected only through its one parent, so it
// cannot be yielded twice). A false return from yield aborts the collection
// and propagates.
func (t *Net[T]) collectSubtree(c *Node[T], st *queryState[T], yield func(T) bool) bool {
	if len(c.parents) > 1 {
		if st.flags[c.id]&decidedBit != 0 {
			return true
		}
		st.flags[c.id] |= decidedBit
	}
	if !yield(c.item) {
		return false
	}
	for _, e := range c.children {
		if !t.collectSubtree(e.n, st, yield) {
			return false
		}
	}
	return true
}

// collectSubtreeInto is collectSubtree appending straight into dst — the
// batched traversal's form, which avoids minting a yield closure per
// collected subtree.
func (t *Net[T]) collectSubtreeInto(c *Node[T], st *queryState[T], dst *[]T) {
	if len(c.parents) > 1 {
		if st.flags[c.id]&decidedBit != 0 {
			return
		}
		st.flags[c.id] |= decidedBit
	}
	*dst = append(*dst, c.item)
	for _, e := range c.children {
		t.collectSubtreeInto(e.n, st, dst)
	}
}

// qd is one surviving probe on a node's active list: the probe index and
// its (exact) computed distance to the node.
type qd struct {
	qi int32
	d  float64
}

// batchEntry is one frame of the batched traversal: a node plus the probes
// still undecided for it. The active list is owned by the frame and
// recycled through the scratch freelist when the frame is consumed.
type batchEntry[T any] struct {
	n      *Node[T]
	active []qd
}

// batchScratch is the per-BatchRange working set, pooled on the net: probe
// states, the frame stack, a freelist of active-list backing arrays (a
// traversal previously allocated a fresh list per inconclusive node), and
// the pending/dists buffers of the per-node batched evaluation.
type batchScratch[T any] struct {
	states  []*queryState[T]
	stack   []batchEntry[T]
	free    [][]qd
	pending []int32
	dists   []float64
	defEval distEvaluator[T]
}

func (t *Net[T]) getBatchScratch() *batchScratch[T] {
	bs, _ := t.bpool.Get().(*batchScratch[T])
	if bs == nil {
		bs = &batchScratch[T]{}
	}
	return bs
}

func (t *Net[T]) putBatchScratch(bs *batchScratch[T]) {
	bs.states = bs.states[:0]
	bs.stack = bs.stack[:0]
	t.bpool.Put(bs)
}

// getList hands out an empty active list, reusing a retired one when
// available.
func (bs *batchScratch[T]) getList() []qd {
	if n := len(bs.free); n > 0 {
		l := bs.free[n-1]
		bs.free = bs.free[:n-1]
		return l
	}
	return nil
}

// putList retires an active list's backing array to the freelist.
func (bs *batchScratch[T]) putList(l []qd) {
	if cap(l) > 0 {
		bs.free = append(bs.free, l[:0])
	}
}

// distEvaluator is the default batch evaluator: probe-by-probe evaluation
// through the net's distance (bounded when armed).
type distEvaluator[T any] struct {
	t  *Net[T]
	qs []T
}

func (e *distEvaluator[T]) Exact() bool { return e.t.bounded == nil }

func (e *distEvaluator[T]) EvalBatch(item T, idxs []int32, bound float64, out []float64) {
	if b := e.t.bounded; b != nil {
		for k, qi := range idxs {
			out[k] = b(e.qs[qi], item, bound)
		}
		return
	}
	for k, qi := range idxs {
		out[k] = e.t.dist(e.qs[qi], item)
	}
}

// BatchRange answers many range queries with the same radius in a single
// traversal of the net (Section 7: "it is possible that many queries are
// executed at the same time on the index structure in a single traversal").
// Result i holds the items within eps of qs[i]. The per-probe distance
// evaluations match per-query Range calls; the saving is in traversal
// overhead — each node's children are walked once for the whole surviving
// query set rather than once per query — and in locality when the query
// set is large.
func (t *Net[T]) BatchRange(qs []T, eps float64) [][]T {
	return t.BatchRangeEval(qs, eps, nil)
}

// BatchRangeEval is BatchRange with a caller-supplied batch evaluator: at
// every node, all probes that reach the evaluation rule (step 3) are handed
// to ev in one EvalBatch call, so the evaluator can share work across them
// — e.g. advance a node window's incremental kernel once for a group of
// probes that share a query offset and read the distance off at every probe
// length. Every idxs handed to ev is ascending: each pending list is a
// filtered subsequence of the root's 0..len(qs)−1, so an evaluator whose
// probes are laid out with related probes adjacent receives them still
// adjacent, in order, at every node. ev == nil selects the default
// probe-by-probe evaluator (the net's distance, bounded when armed).
// Results are identical for any correct evaluator.
func (t *Net[T]) BatchRangeEval(qs []T, eps float64, ev metric.BatchEvaluator[T]) [][]T {
	out := make([][]T, len(qs))
	if t.root == nil || len(qs) == 0 {
		return out
	}
	bs := t.getBatchScratch()
	if ev == nil {
		bs.defEval = distEvaluator[T]{t: t, qs: qs}
		ev = &bs.defEval
	}
	exact := ev.Exact()
	for range qs {
		bs.states = append(bs.states, t.getState())
	}
	states := bs.states

	// Root: one batched evaluation prices every probe.
	rootRho := t.root.rho
	pending := bs.pending[:0]
	for i := range qs {
		pending = append(pending, int32(i))
	}
	if cap(bs.dists) < len(qs) {
		bs.dists = make([]float64, len(qs))
	}
	dists := bs.dists[:len(qs)]
	ev.EvalBatch(t.root.item, pending, eps+rootRho, dists)
	rootActive := bs.getList()
	for i := range qs {
		d := dists[i]
		if d > eps+rootRho {
			// The whole net is outside this probe's ball; drop the probe.
			// (With an exact evaluator this is rule 3 at the root; with a
			// bounded one the value is a proof, not a distance.)
			continue
		}
		st := states[i]
		st.flags[t.root.id] = decidedBit | computedBit
		st.d[t.root.id] = d
		if d <= eps {
			out[i] = append(out[i], t.root.item)
		}
		rootActive = append(rootActive, qd{int32(i), d})
	}
	stack := append(bs.stack[:0], batchEntry[T]{t.root, rootActive})
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ce := range e.n.children {
			c := ce.n
			rho := c.rho
			bound := eps + rho
			// Phase 1: settle what the zero-computation bounds can; queue
			// the rest for one batched evaluation.
			pending = pending[:0]
			for _, a := range e.active {
				st := states[a.qi]
				if st.flags[c.id]&decidedBit != 0 {
					continue
				}
				if !t.noEdgeBounds {
					lo := a.d - ce.d
					if lo < 0 {
						lo = -lo
					}
					hi := a.d + ce.d
					for _, pe := range c.parents {
						if pe.n == e.n || st.flags[pe.n.id]&computedBit == 0 {
							continue
						}
						dp := st.d[pe.n.id]
						if l := dp - pe.d; l > lo {
							lo = l
						} else if -l > lo {
							lo = -l
						}
						if h := dp + pe.d; h < hi {
							hi = h
						}
					}
					if lo-rho > eps {
						t.markSubtree(c, st)
						continue
					}
					if hi+rho <= eps {
						t.collectSubtreeInto(c, st, &out[a.qi])
						continue
					}
				}
				pending = append(pending, a.qi)
			}
			if len(pending) == 0 {
				continue
			}
			// Phase 2: evaluate every queued probe against c at once.
			if cap(dists) < len(pending) {
				bs.dists = make([]float64, len(pending))
				dists = bs.dists
			}
			dists = dists[:len(pending)]
			ev.EvalBatch(c.item, pending, bound, dists)
			// Phase 3: apply rules 3–4 per probe.
			next := bs.getList()
			for k, qi := range pending {
				st := states[qi]
				dc := dists[k]
				if dc > bound {
					// δ(q,c) > ε + ρ: prune the subtree. Exact values still
					// seed the triangle bounds of later visits.
					if exact {
						st.flags[c.id] |= computedBit
						st.d[c.id] = dc
					}
					t.markSubtree(c, st)
					continue
				}
				st.flags[c.id] |= computedBit
				st.d[c.id] = dc
				if dc+rho <= eps {
					t.collectSubtreeInto(c, st, &out[qi])
					continue
				}
				st.flags[c.id] |= decidedBit
				if dc <= eps {
					out[qi] = append(out[qi], c.item)
				}
				next = append(next, qd{qi, dc})
			}
			if len(next) > 0 && len(c.children) > 0 {
				stack = append(stack, batchEntry[T]{c, next})
			} else {
				bs.putList(next)
			}
		}
		bs.putList(e.active)
	}
	bs.pending, bs.dists, bs.stack = pending, dists, stack
	for _, st := range states {
		t.putState(st)
	}
	t.putBatchScratch(bs)
	return out
}
