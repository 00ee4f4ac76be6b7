package refnet

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/metric"
)

// Range query (Appendix A.3). The traversal maintains, per query, the two
// certainty sets of the paper — items proven inside the ball and items
// proven outside — realised here as per-node decided masks over the probe
// set plus the result stream, and additionally the computed query-to-node
// distances.
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
// the decided mask guarantees each node's membership is settled exactly
// once per probe.
//
// One traversal applies the rules: Session.walk walks the net once for a
// whole probe set — the subsequence framework passes the segments of one
// query — and is read two ways: Session.Range is rules 1–4 per probe,
// Session.MinDist the same walk with ε replaced by one bound all probes
// share, which shrinks to just under every exact distance met, so what is
// left at the end is the least probe-to-item distance. Range is a session of
// one probe and BatchRange a session of many, each opened, read once as
// Range, and closed.
//
// Step 3 is where all the distance cost lives, and three things cut it.
// When the net's distance has a bounded evaluation (SetBounded), probes are
// evaluated with threshold ε+ρ: the evaluation may abandon as soon as the
// subtree is provably outside, and the abandoned (inexact) value is simply
// not recorded for the parent bounds. When the caller supplies a
// BatchEvaluator (OpenSession), all probes that reach step 3 at a node are
// evaluated in ONE call, letting the evaluator share work across them — the
// framework streams probes sharing a query offset through a single
// incremental kernel pass over the node's window, and may answer for a
// probe with a proof instead of a distance, exactly as a bounded evaluation
// does: any value over ε+ρ, however it came by it (the framework's
// evaluator bounds all the probes at a node with one free-start kernel pass
// and prices only the ones that bound cannot rule out). And a session that
// is traversed more than once keeps every distance it has recorded: only
// the decided masks are cleared between its traversals, so no recorded
// (probe, node) distance is computed twice however many radii the query
// asks about. What an inexact evaluator returned over ε+ρ was not recorded;
// such a pair is evaluated again if a later traversal reaches it under a
// wider bound.
//
// The bookkeeping is kept per node over the whole probe set, not per probe.
// Indexed by the dense node ids assigned at insertion, a session holds two
// bitmasks of ⌈P/64⌉ words per node for its P probes — decided (settled in
// this traversal) and computed (the exact distance is recorded) — and one
// node-major table of P distances per node. A frame of the walk is a node
// and the mask of probes still inconclusive there, whose distances are in
// the table. So a child is tested against the probes not yet decided for it
// with a few word operations, a parent's bounds reach only the probes it has
// a distance for, and one walk of a subtree marks or collects every probe a
// rule settled at its top. Every probe still meets the bounds, the rules
// and the evaluator calls it would meet alone, in the same order. The
// tables live in the session, which the net pools, so steady-state queries
// allocate only their result slices.

// Range returns every item within eps of q (inclusive): a session of one
// probe, opened, read once and closed.
func (t *Net[T]) Range(q T, eps float64) []T {
	s := t.OpenSession([]T{q}, nil)
	defer s.Close()
	return s.Range(eps)[0]
}

// Session is a probe set held open on the net for as many traversals as
// one query needs. Its bookkeeping is per node over all its probes: a
// decided and a computed bitmask, one bit per probe, and a row of the
// distance table. Across its traversals only the decided masks are cleared:
// a (probe, node) distance recorded under its computed bit stays, is read
// back instead of evaluated when a later traversal reaches the pair again,
// and tightens that traversal's triangle bounds from its first node on (a
// proof — a value an inexact evaluator returned over the bound — is not
// recorded). The framework's Type III query is the caller this is for — one
// MinDist, then a Range per verification round, all over the same segments.
//
// A session reads the net and must not span a mutation (the tables are
// sized to the node ids at OpenSession); Close returns it to the net's pool.
// It is single-goroutine state.
type Session[T any] struct {
	t     *Net[T]
	ev    metric.BatchEvaluator[T]
	exact bool
	// memo is set once a traversal has run: decided bits are then stale and
	// computed bits may be found on pairs not yet visited.
	memo bool
	// n probes, words mask words per node (⌈n/64⌉).
	n, words int
	// decided and computed hold words mask words per node id; d holds n
	// distances per node id, valid where the computed bit is set.
	decided, computed []uint64
	d                 []float64
	// stack holds the frames of the walk: a node, and in masks (words per
	// frame, in the same order) its inconclusive probes.
	stack []*Node[T]
	masks []uint64
	// Per-child scratch masks: the popped frame's probes, those still
	// undecided at a child (then the ones bound for evaluation), those among
	// them without a recorded distance there, and those a rule prunes or
	// collects. deep holds a narrowed mask per depth of a subtree walk.
	active, pend, need, prune, coll, deep []uint64
	// lo and hi are the triangle bounds of the probes being tested at a
	// child, indexed by probe.
	lo, hi []float64
	// pending lists the probes that reach the evaluation rule at the node
	// being visited, unpriced the ones among them with no recorded distance;
	// dists holds n distances aligned with pending and, behind them, as
	// many freshly evaluated ones aligned with unpriced.
	pending, unpriced []int32
	dists             []float64
	defEval           distEvaluator[T]

	// The traversal in progress: the radius (in the MinDist read, the
	// shared bound), the least distance met, and the result lists (nil in
	// the MinDist read).
	eps, best float64
	out       [][]T
}

// OpenSession opens a session over the probes qs. At every node, all probes
// that reach the evaluation rule (step 3) are handed to ev in one EvalBatch
// call, so the evaluator can share work across them — e.g. advance a node
// window's incremental kernel once for a group of probes that share a query
// offset and read the distance off at every probe length. Every idxs handed
// to ev is ascending: each is a filtered subsequence of 0..len(qs)−1, so an
// evaluator whose probes are laid out with related probes adjacent receives
// them still adjacent, in order, at every node. ev == nil selects the
// default probe-by-probe evaluator (the net's distance, bounded when
// armed). Results are identical for any correct evaluator.
func (t *Net[T]) OpenSession(qs []T, ev metric.BatchEvaluator[T]) *Session[T] {
	s, _ := t.bpool.Get().(*Session[T])
	if s == nil {
		s = &Session[T]{}
	}
	if ev == nil {
		s.defEval = distEvaluator[T]{t: t, qs: qs}
		ev = &s.defEval
	}
	s.t, s.ev, s.exact, s.memo = t, ev, ev.Exact(), false
	n, w, ids := len(qs), (len(qs)+63)/64, int(t.nextID)
	s.n, s.words = n, w
	s.decided = sized(s.decided, ids*w)
	s.computed = sized(s.computed, ids*w)
	clear(s.decided)
	clear(s.computed)
	s.d = sized(s.d, ids*n)
	s.active, s.pend, s.need = sized(s.active, w), sized(s.pend, w), sized(s.need, w)
	s.prune, s.coll = sized(s.prune, w), sized(s.coll, w)
	// A subtree walk narrows its mask at most once per node on a path, and
	// levels fall strictly along every edge (Validate's level order).
	if t.root != nil {
		s.deep = sized(s.deep, (t.root.level+1)*w)
	}
	s.lo, s.hi = sized(s.lo, n), sized(s.hi, n)
	s.pending = slices.Grow(s.pending[:0], n)
	s.unpriced = slices.Grow(s.unpriced[:0], n)
	s.dists = sized(s.dists, 2*n)
	return s
}

// sized returns b resliced to length n, reallocated when too short; the
// contents are not cleared.
func sized[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	return b[:n]
}

// Close returns the session, with its tables, to the net's pool.
func (s *Session[T]) Close() {
	s.ev, s.defEval, s.out = nil, distEvaluator[T]{}, nil
	s.t.bpool.Put(s)
}

// Range is the traversal read as a range query: result i holds the items
// within eps of probe i (rules 1–4).
func (s *Session[T]) Range(eps float64) [][]T {
	out := make([][]T, s.n)
	s.walk(eps, out)
	return out
}

// MinDist is the traversal read as a nearest-neighbour search for the whole
// probe set: the least distance between any probe and any item if that is
// at most epsMax, +Inf otherwise. The walk is Range's with one bound shared
// by every probe in place of the radius: it starts at epsMax and drops to
// just under every exact distance it meets (math.Nextafter towards −∞, so a
// first find at exactly epsMax counts and a later one must be strictly
// better). A subtree pruned under the bound stays pruned as the bound
// shrinks, so the decided masks mean what they mean in Range; rule 2 is
// unused, there being nothing to collect. A value above the bound it was
// evaluated under — all an abandoned evaluation returns — prunes but is
// never taken for a distance.
func (s *Session[T]) MinDist(epsMax float64) float64 {
	s.walk(epsMax, nil)
	return s.best
}

// mask returns node id's words in a per-node mask table.
func (s *Session[T]) mask(table []uint64, id int32) []uint64 {
	return table[int(id)*s.words:][:s.words]
}

// row returns node id's distances in the table.
func (s *Session[T]) row(id int32) []float64 { return s.d[int(id)*s.n:][:s.n] }

// walk is the batched traversal, the only one: out != nil reads it as Range,
// out == nil as MinDist.
func (s *Session[T]) walk(eps float64, out [][]T) {
	t := s.t
	s.eps, s.best, s.out = eps, math.Inf(1), out
	if t.root == nil || s.n == 0 {
		return
	}
	if s.memo {
		clear(s.decided)
	}
	all := s.pend
	clear(all)
	for qi := range s.n {
		all[qi>>6] |= 1 << (qi & 63)
	}
	s.visit(t.root, all)
	w := s.words
	active, pend, need, prune, coll := s.active, s.pend, s.need, s.prune, s.coll
	los, his := s.lo, s.hi
	// No distance is negative: once the bound is, nothing is left to find.
	for len(s.stack) > 0 && s.eps >= 0 {
		top := len(s.stack) - 1
		e := s.stack[top]
		copy(active, s.masks[top*w:])
		s.stack, s.masks = s.stack[:top], s.masks[:top*w]
		from := s.row(e.id)
		for _, ce := range e.children {
			c := ce.n
			// Phase 1: settle what the zero-computation bounds can; queue
			// the rest for one batched evaluation.
			dec := s.mask(s.decided, c.id)
			var left uint64
			for i := range pend {
				pend[i] = active[i] &^ dec[i]
				left |= pend[i]
			}
			if left == 0 {
				continue
			}
			if t.noEdgeBounds {
				s.visit(c, pend)
				continue
			}
			rho, eps := c.rho, s.eps
			// A pair priced by an earlier traversal of this session needs no
			// bounds: its distance is read back in phase 2.
			comp := s.mask(s.computed, c.id)
			var queued, unknown uint64
			for i := range pend {
				need[i] = pend[i] &^ comp[i]
				pend[i] &= comp[i]
				queued |= pend[i]
				unknown |= need[i]
				for m := need[i]; m != 0; m &= m - 1 {
					qi := i<<6 | bits.TrailingZeros64(m)
					dp := from[qi]
					lo := dp - ce.d
					if lo < 0 {
						lo = -lo
					}
					los[qi], his[qi] = lo, dp+ce.d
				}
			}
			if unknown != 0 {
				for _, pe := range c.parents {
					if pe.n == e {
						continue
					}
					pc, pd := s.mask(s.computed, pe.n.id), s.row(pe.n.id)
					for i := range need {
						for m := need[i] & pc[i]; m != 0; m &= m - 1 {
							qi := i<<6 | bits.TrailingZeros64(m)
							dp := pd[qi]
							if l := math.Abs(dp - pe.d); l > los[qi] {
								los[qi] = l
							}
							if h := dp + pe.d; h < his[qi] {
								his[qi] = h
							}
						}
					}
				}
				var pruned, collected uint64
				for i := range need {
					prune[i], coll[i] = 0, 0
					for m := need[i]; m != 0; m &= m - 1 {
						b := m & -m
						qi := i<<6 | bits.TrailingZeros64(m)
						if los[qi]-rho > eps {
							prune[i] |= b
						} else if out != nil && his[qi]+rho <= eps {
							coll[i] |= b
						} else {
							pend[i] |= b
						}
					}
					pruned |= prune[i]
					collected |= coll[i]
					queued |= pend[i]
				}
				if pruned != 0 {
					s.markSubtree(c, prune, 0)
				}
				if collected != 0 {
					s.collect(c, coll, 0)
				}
			}
			if queued != 0 {
				s.visit(c, pend)
			}
		}
	}
	s.stack, s.masks = s.stack[:0], s.masks[:0]
	s.memo = true
}

// visit applies rules 3–4 at c to the probes in pend (phases 2 and 3): it
// prices them in one batched evaluation, settles each, and pushes a frame
// for the probes left inconclusive. pend is not empty; it may be a scratch
// mask the visit itself reuses, and is read first.
func (s *Session[T]) visit(c *Node[T], pend []uint64) {
	pending := s.pending[:0]
	for i, m := range pend {
		for ; m != 0; m &= m - 1 {
			pending = append(pending, int32(i<<6|bits.TrailingZeros64(m)))
		}
	}
	t, rho, w := s.t, c.rho, s.words
	bound := s.eps + rho
	dists := s.price(c, pending, bound)
	comp, dec, row := s.mask(s.computed, c.id), s.mask(s.decided, c.id), s.row(c.id)
	// The frame's mask is written in place on the stack and dropped again if
	// it stays empty.
	base := len(s.masks)
	s.masks = slices.Grow(s.masks, w)[:base+w]
	next, prune, coll := s.masks[base:], s.prune, s.coll
	clear(next)
	clear(prune)
	clear(coll)
	var pruned, collected, left uint64
	for k, qi := range pending {
		dc, i, b := dists[k], qi>>6, uint64(1)<<(qi&63)
		if s.exact || dc <= bound {
			// Exact, so it seeds the triangle bounds of later visits and is
			// never evaluated again in this session — also when it prunes.
			comp[i] |= b
			row[qi] = dc
		}
		if s.out == nil && dc <= s.eps {
			s.best, s.eps = dc, math.Nextafter(dc, math.Inf(-1))
		}
		if dc > s.eps+rho {
			// δ(q,c) > ε + ρ: the subtree is outside. (An abandoned value
			// is a proof, not a distance.) A probe pruned at the root is in
			// no frame, so nothing ever reads its decided bits.
			if c != t.root {
				prune[i] |= b
				pruned |= b
			}
			continue
		}
		// From here on dc ≤ ε + ρ. In the MinDist read the bound has just
		// dropped below dc, so neither of the two dc ≤ ε rules below fires
		// and out is never touched.
		if dc+rho <= s.eps {
			coll[i] |= b
			collected |= b
			continue
		}
		dec[i] |= b
		if dc <= s.eps {
			s.out[qi] = append(s.out[qi], c.item)
		}
		next[i] |= b
		left |= b
	}
	if pruned != 0 {
		s.markSubtree(c, prune, 0)
	}
	if collected != 0 {
		s.collect(c, coll, 0)
	}
	if left != 0 && len(c.children) > 0 {
		s.stack = append(s.stack, c)
	} else {
		s.masks = s.masks[:base]
	}
}

// narrow takes the probes in m that are not yet decided at c, marks them
// decided there, and returns them in the scratch mask of the given depth;
// nil when none is left. Only multi-parent nodes are narrowed: a node with
// one parent is reachable only through it, so the walk above it has settled
// it for every probe it carries, and skipping its bits keeps the
// bookkeeping proportional to the multi-parent population rather than the
// subtree size.
func (s *Session[T]) narrow(c *Node[T], m []uint64, depth int) []uint64 {
	dec, nm := s.mask(s.decided, c.id), s.deep[depth*s.words:][:s.words]
	var left uint64
	for i, x := range m {
		x &^= dec[i]
		nm[i] = x
		dec[i] |= x
		left |= x
	}
	if left == 0 {
		return nil
	}
	return nm
}

// markSubtree marks c and its multi-parent descendants as decided (outside
// the ball) for the probes in m, narrowing m at each multi-parent node to
// the probes not decided there yet. Mirroring the Appendix, this prevents
// re-examining, via another parent, nodes already excluded by a subtree
// bound. One walk serves every probe a rule pruned at c.
func (s *Session[T]) markSubtree(c *Node[T], m []uint64, depth int) {
	if len(c.parents) > 1 {
		if m = s.narrow(c, m, depth); m == nil {
			return
		}
		depth++
	}
	for _, e := range c.children {
		s.markSubtree(e.n, m, depth)
	}
}

// collect appends c and all its not-yet-decided descendants to the result
// list of every probe in m, narrowing m as markSubtree does (a single-parent
// node can be collected only through its one parent, so it cannot be
// appended twice).
func (s *Session[T]) collect(c *Node[T], m []uint64, depth int) {
	if len(c.parents) > 1 {
		if m = s.narrow(c, m, depth); m == nil {
			return
		}
		depth++
	}
	for i, x := range m {
		for ; x != 0; x &= x - 1 {
			qi := i<<6 | bits.TrailingZeros64(x)
			s.out[qi] = append(s.out[qi], c.item)
		}
	}
	for _, e := range c.children {
		s.collect(e.n, m, depth)
	}
}

// price returns the distances from the probes in pending to c, aligned with
// pending. Distances an earlier traversal of the session recorded are read
// back; the rest go to the evaluator in one call, as an ascending
// subsequence of pending.
func (s *Session[T]) price(c *Node[T], pending []int32, bound float64) []float64 {
	dists := s.dists[:len(pending)]
	if !s.memo {
		s.ev.EvalBatch(c.item, pending, bound, dists)
		return dists
	}
	comp, row := s.mask(s.computed, c.id), s.row(c.id)
	unpriced := s.unpriced[:0]
	for _, qi := range pending {
		if comp[qi>>6]&(1<<(qi&63)) == 0 {
			unpriced = append(unpriced, qi)
		}
	}
	fresh := s.dists[s.n:][:len(unpriced)]
	if len(unpriced) > 0 {
		s.ev.EvalBatch(c.item, unpriced, bound, fresh)
	}
	k := 0
	for i, qi := range pending {
		if comp[qi>>6]&(1<<(qi&63)) != 0 {
			dists[i] = row[qi]
		} else {
			dists[i] = fresh[k]
			k++
		}
	}
	return dists
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
// executed at the same time on the index structure in a single traversal"):
// a session opened, read once as Range, and closed. Result i holds the items
// within eps of qs[i]. The per-probe distance evaluations match per-query
// Range calls; the saving is in traversal overhead — each node's children
// are walked once for the whole surviving query set rather than once per
// query — and in locality when the query set is large.
func (t *Net[T]) BatchRange(qs []T, eps float64) [][]T {
	s := t.OpenSession(qs, nil)
	defer s.Close()
	return s.Range(eps)
}
