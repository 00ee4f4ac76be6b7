package refnet

import (
	"math"
	"slices"

	"repro/internal/metric"
)

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
// does: any value over ε+ρ, however it came by it (the framework's evaluator
// bounds all the probes at a node with one free-start kernel pass and prices
// only the ones that bound cannot rule out). And a session that is traversed
// more than once keeps every distance it has recorded: only the decided
// flags are cleared between its traversals, so no recorded (probe, node)
// distance is computed twice however many radii the query asks about. What
// an inexact evaluator returned over ε+ρ was not recorded; such a pair is
// evaluated again if a later traversal reaches it under a wider bound.
//
// Per-query bookkeeping lives in flat slices indexed by the dense node ids
// assigned at insertion — a query touches each slot with two or three
// unhashed array accesses where a map would hash a pointer per probe. The
// slices are pooled on the net, so steady-state queries allocate only their
// result slice; a session holds one such state per probe.

// decidedBit marks a node whose ball membership is settled for this
// traversal; computedBit marks a node whose distance to the query has been
// computed (and stored in queryState.d).
const (
	decidedBit  = 1
	computedBit = 2
)

// queryState is one probe's traversal scratch: node flags and computed
// distances, recycled via Net.qpool.
type queryState[T any] struct {
	flags []uint8
	d     []float64
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
	return s
}

func (t *Net[T]) putState(s *queryState[T]) { t.qpool.Put(s) }

// Range returns every item within eps of q (inclusive): a session of one
// probe, opened, read once and closed.
func (t *Net[T]) Range(q T, eps float64) []T {
	s := t.OpenSession([]T{q}, nil)
	defer s.Close()
	return s.Range(eps)[0]
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

// collectSubtreeInto appends c and all its not-yet-decided descendants to
// dst as results, with the same single-parent marking optimisation as
// markSubtree (a single-parent node can be collected only through its one
// parent, so it cannot be appended twice).
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
// recycled through the session's freelist when the frame is consumed.
type batchEntry[T any] struct {
	n      *Node[T]
	active []qd
}

// Session is a probe set held open on the net for as many traversals as
// one query needs. It owns one queryState per probe, and across its
// traversals only the decided bits of those states are cleared: a
// (probe, node) distance recorded under computedBit stays, is read back
// instead of evaluated when a later traversal reaches the pair again, and
// tightens that traversal's triangle bounds from its first node on (a proof
// — a value an inexact evaluator returned over the bound — is not recorded).
// The
// framework's Type III query is the caller this is for — one MinDist, then a
// Range per verification round, all over the same segments.
//
// A session reads the net and must not span a mutation (the states are
// sized to the node ids at OpenSession); Close returns it to the net's pool.
// It is single-goroutine state.
type Session[T any] struct {
	t     *Net[T]
	ev    metric.BatchEvaluator[T]
	exact bool
	// memo is set once a traversal has run: decided bits are then stale and
	// computed bits may be found on pairs not yet visited.
	memo   bool
	states []*queryState[T]
	stack  []batchEntry[T]
	free   [][]qd
	// pending lists the probes that reach the evaluation rule at the node
	// being visited, unpriced the ones among them with no recorded distance;
	// dists holds len(states) distances aligned with pending and, behind
	// them, as many freshly evaluated ones aligned with unpriced.
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
	for range qs {
		s.states = append(s.states, t.getState())
	}
	s.pending = slices.Grow(s.pending[:0], len(qs))
	s.unpriced = slices.Grow(s.unpriced[:0], len(qs))
	s.dists = slices.Grow(s.dists[:0], 2*len(qs))[:2*len(qs)]
	return s
}

// Close releases the session's states and returns it to the net's pool.
func (s *Session[T]) Close() {
	for _, st := range s.states {
		s.t.putState(st)
	}
	s.states = s.states[:0]
	s.ev, s.defEval, s.out = nil, distEvaluator[T]{}, nil
	s.t.bpool.Put(s)
}

// Range is the traversal read as a range query: result i holds the items
// within eps of probe i (rules 1–4).
func (s *Session[T]) Range(eps float64) [][]T {
	out := make([][]T, len(s.states))
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
// shrinks, so the decided flags mean what they mean in Range; rule 2 is
// unused, there being nothing to collect. A value above the bound it was
// evaluated under — all an abandoned evaluation returns — prunes but is
// never taken for a distance.
func (s *Session[T]) MinDist(epsMax float64) float64 {
	s.walk(epsMax, nil)
	return s.best
}

// walk is the batched traversal, the only one: out != nil reads it as Range,
// out == nil as MinDist.
func (s *Session[T]) walk(eps float64, out [][]T) {
	t := s.t
	s.eps, s.best, s.out = eps, math.Inf(1), out
	if t.root == nil || len(s.states) == 0 {
		return
	}
	if s.memo {
		for _, st := range s.states {
			for i := range st.flags {
				st.flags[i] &= computedBit
			}
		}
	}
	pending := s.pending[:0]
	for i := range s.states {
		pending = append(pending, int32(i))
	}
	s.visit(t.root, pending)
	// No distance is negative: once the bound is, nothing is left to find.
	for len(s.stack) > 0 && s.eps >= 0 {
		e := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, ce := range e.n.children {
			c := ce.n
			rho, eps := c.rho, s.eps
			// Phase 1: settle what the zero-computation bounds can; queue
			// the rest for one batched evaluation.
			pending = pending[:0]
			for _, a := range e.active {
				st := s.states[a.qi]
				f := st.flags[c.id]
				if f&decidedBit != 0 {
					continue
				}
				// A pair priced by an earlier traversal of this session
				// needs no bounds: its distance is read back in phase 2.
				if f&computedBit == 0 && !t.noEdgeBounds {
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
					if out != nil && hi+rho <= eps {
						t.collectSubtreeInto(c, st, &out[a.qi])
						continue
					}
				}
				pending = append(pending, a.qi)
			}
			if len(pending) > 0 {
				s.visit(c, pending)
			}
		}
		s.putList(e.active)
	}
	for _, e := range s.stack {
		s.putList(e.active)
	}
	s.stack = s.stack[:0]
	s.memo = true
}

// visit applies rules 3–4 at c to the probes in pending (phases 2 and 3):
// it prices them in one batched evaluation, settles each, and pushes a frame
// for the probes left inconclusive.
func (s *Session[T]) visit(c *Node[T], pending []int32) {
	t, rho := s.t, c.rho
	bound := s.eps + rho
	dists := s.price(c, pending, bound)
	next := s.getList()
	for k, qi := range pending {
		st, dc := s.states[qi], dists[k]
		if s.exact || dc <= bound {
			// Exact, so it seeds the triangle bounds of later visits and is
			// never evaluated again in this session — also when it prunes.
			st.flags[c.id] |= computedBit
			st.d[c.id] = dc
		}
		if s.out == nil && dc <= s.eps {
			s.best, s.eps = dc, math.Nextafter(dc, math.Inf(-1))
		}
		if dc > s.eps+rho {
			// δ(q,c) > ε + ρ: the subtree is outside. (An abandoned value
			// is a proof, not a distance.) A probe pruned at the root is in
			// no active list, so nothing ever reads its flags.
			if c != t.root {
				t.markSubtree(c, st)
			}
			continue
		}
		// From here on dc ≤ ε + ρ. In the MinDist read the bound has just
		// dropped below dc, so neither of the two dc ≤ ε rules below fires
		// and out is never touched.
		if dc+rho <= s.eps {
			t.collectSubtreeInto(c, st, &s.out[qi])
			continue
		}
		st.flags[c.id] |= decidedBit
		if dc <= s.eps {
			s.out[qi] = append(s.out[qi], c.item)
		}
		next = append(next, qd{qi, dc})
	}
	if len(next) > 0 && len(c.children) > 0 {
		s.stack = append(s.stack, batchEntry[T]{c, next})
	} else {
		s.putList(next)
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
	unpriced := s.unpriced[:0]
	for _, qi := range pending {
		if s.states[qi].flags[c.id]&computedBit == 0 {
			unpriced = append(unpriced, qi)
		}
	}
	fresh := s.dists[len(s.states):][:len(unpriced)]
	if len(unpriced) > 0 {
		s.ev.EvalBatch(c.item, unpriced, bound, fresh)
	}
	k := 0
	for i, qi := range pending {
		if st := s.states[qi]; st.flags[c.id]&computedBit != 0 {
			dists[i] = st.d[c.id]
		} else {
			dists[i] = fresh[k]
			k++
		}
	}
	return dists
}

// getList hands out an empty active list, reusing a retired one when
// available.
func (s *Session[T]) getList() []qd {
	if n := len(s.free); n > 0 {
		l := s.free[n-1]
		s.free = s.free[:n-1]
		return l
	}
	return nil
}

// putList retires an active list's backing array to the freelist.
func (s *Session[T]) putList(l []qd) {
	if cap(l) > 0 {
		s.free = append(s.free, l[:0])
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
