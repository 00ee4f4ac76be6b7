package refnet

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/metric"
)

// Range query (Appendix A.3); DESIGN.md §3 and §5 items 13–14 give the full
// account. The traversal keeps, per query, the paper's two certainty sets —
// items proven inside the ball and items proven outside — as per-node
// decided masks over the probe set plus the result stream, and the computed
// query-to-node distances. For a child c of a node whose distance is known,
// the triangle inequality through EVERY parent of c with a computed distance
// gives bounds
//
//	lo = max over known parents p of |δ(q,p) − δ(p,c)|
//	hi = min over known parents p of  δ(q,p) + δ(p,c)
//
// (δ(p,c) is stored on the edge, so they cost no distance computation): the
// multi-parent advantage of the paper's Figure 2. With ρ the measured cover
// radius of c (c.rho: max over its children of stored edge + child's ρ, 0
// when childless, kept so by every mutation in refnet.go) the rules are:
//
//  1. lo − ρ > ε  ⇒ the whole subtree of c is outside; prune with no
//     distance computation (Lemma 4 generalised with stored distances).
//  2. hi + ρ ≤ ε  ⇒ the whole subtree of c is inside; collect with no
//     distance computation.
//  3. otherwise compute dc = δ(q,c); then dc − ρ > ε prunes and
//     dc + ρ ≤ ε collects the subtree, as in the Appendix.
//  4. inconclusive ⇒ report c if dc ≤ ε and recurse into its children.
//
// Distances are rounded sums, so a bound can pass the distance it bounds by an
// ulp; each rule clears ε by an allowance before it settles a probe (slack,
// DESIGN.md §3). The decided mask settles each node once per probe.
//
// Session.walk walks the net once for a whole probe set — the framework
// passes the segments of one query — read as Range (rules 1–4 per probe) or
// as MinDist (ε replaced by one bound all probes share, which shrinks to
// just under every exact distance met). Step 3 holds the distance cost. A
// bounded evaluation (SetBounded) runs at threshold ε+ρ and may abandon; a
// BatchEvaluator (OpenSession) prices all probes that reach step 3 at a
// node in one call and may answer with a proof — any value over ε+ρ that is
// a lower bound on the distance — instead of a distance. A proof is not
// recorded; an exact distance is, and is read back by every later read of
// the session, never computed twice.
//
// Range reads at rising radii are one continued traversal (distance
// browsing, Hjaltason & Samet, TODS 1999). A read leaves per node a kept
// mask (probes reported, collected or walked below there) and a deferred
// frontier: every rule that settles probes outside records the node, the
// probes and per probe a key, a lower bound on its distance — rule 1 lo
// (tested as lo − ρ against ε), rule 3 the evaluator's value (tested against
// ε + ρ), and dc for a node walked below with dc > ε, to report it. A later
// Range at a radius no smaller starts with decided = kept and takes up, level
// by level from the top, only the probes whose keys its radius reaches,
// each key tested in the form of its rule; the rest stay on the frontier and
// mark their subtrees decided again. A smaller radius, and the first Range
// after MinDist, walk afresh from the root.
//
// Indexed by dense node ids, a session holds ⌈P/64⌉-word bitmasks per node
// for its P probes — decided (in this read), computed (distance recorded)
// and kept — and a node-major table of P distances per node, which holds a
// deferred probe's frontier key where no distance is recorded. A frame of
// the walk is a node and the mask of probes still inconclusive there. The
// tables live in the session, which the net pools, so steady-state queries
// allocate only their result slices.

// Range returns every item within eps of q (inclusive): a session of one
// probe, opened, read once and closed.
func (t *Net[T]) Range(q T, eps float64) []T {
	s := t.OpenSession([]T{q}, nil)
	defer s.Close()
	return s.Range(eps)[0]
}

// Session is a probe set held open on the net for as many reads as one
// query needs. Its bookkeeping is per node over all its probes: decided,
// computed and kept bitmasks, one bit per probe, and a row of the distance
// table. A (probe, node) distance recorded under its computed bit stays for
// the life of the session, is read back instead of evaluated when a later
// read reaches the pair again, and tightens that read's triangle bounds (a
// proof — a value an inexact evaluator returned over the bound — is not
// recorded). A Range read at a radius no smaller than the last Range's
// continues it from the deferred frontier that read left; any other read
// walks from the root. The framework's Type III query is the caller this is
// for — one MinDist, then a Range per verification round at rising radii,
// all over the same segments.
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
	// ranged is set while the last read was a Range at radius eps ≥ 0, which
	// a Range at a radius no smaller continues.
	ranged bool
	// n probes, words mask words per node (⌈n/64⌉).
	n, words int
	// decided, computed and kept hold words mask words per node id; d holds
	// n values per node id: the distance where the computed bit is set, and
	// otherwise, for a probe deferred there, its frontier key. kept is what
	// the last Range read settled for good at a node: the probes it
	// reported or collected there, or whose children it walked. (With exact
	// arithmetic a continued read never reaches such a node — none of its
	// parents was pruned — so kept is the guard against a rounding that
	// prunes a parent and not the child, as decided is within a read.) wake
	// holds the probes a continued read takes up at a node, and woken those
	// nodes, one list per level; both are sized by the first continued read.
	decided, computed, kept, wake []uint64
	d                             []float64
	woken                         [][]*Node[T]
	// front is the deferred frontier of the last Range read, a list per kind
	// of entry, their probe masks words apiece in fmask.
	front [deferKinds][]deferred[T]
	fmask [deferKinds][]uint64
	// stack holds the frames of the walk: a node, and in masks (words per
	// frame, in the same order) its inconclusive probes.
	stack []*Node[T]
	masks []uint64
	// Per-child scratch masks: the popped frame's probes, those still
	// undecided at a child (then the ones bound for evaluation), those among
	// them without a recorded distance there, those a rule prunes or
	// collects, and those whose children a visit walks while their own
	// distance is over the radius. deep holds a narrowed mask per depth of a
	// subtree walk.
	active, pend, need, prune, coll, far, deep []uint64
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

	// The read in progress: the radius (in the MinDist read, the shared
	// bound), the least distance met, and the result lists (nil in the
	// MinDist read).
	eps, best float64
	out       [][]T
	// whole: every distance met is an integer; scale bounds them all.
	whole bool
	scale float64
}

// deferred is a frontier entry: node n was settled for the probes in its
// mask, and each of them has a key in n's row of the distance table, a
// lower bound on its distance to n. Its kind says how: a deferLo entry
// (rule 1, key lo) holds the subtree outside while key − ρ > ε; a
// deferDist entry (rule 3, key the value the evaluator returned, exact or
// a proof) while key > ε + ρ; a deferFar entry is a node whose children
// were walked, reported for a probe once key, its distance, is within ε.
// key here is the least of the entry's keys, so an entry the radius does
// not reach is passed over whole.
type deferred[T any] struct {
	n   *Node[T]
	key float64
}

// The kinds of deferred entry.
const (
	deferLo   = iota // rule 1: key lo
	deferDist        // rule 3: key dc
	deferFar         // walked below, key dc > ε
	deferKinds
)

// reached reports whether the read's radius reaches key k at node n under
// the rule of kind, tested in the form the rule itself tests — so an entry
// is passed over exactly while its rule would still settle the probe.
func (s *Session[T]) reached(kind int, n *Node[T], k float64) bool {
	switch kind {
	case deferLo:
		return !(k-n.rho > s.eps+s.slack())
	case deferDist:
		return !(k > s.eps+n.rho+s.slack())
	}
	return !(k > s.eps)
}

// note records a distance the rules are about to build on.
func (s *Session[T]) note(d float64) {
	s.scale, s.whole = max(s.scale, d), s.whole && d == math.Trunc(d)
}

// slack is the rounding allowance: none over integers, whose sums are exact.
func (s *Session[T]) slack() float64 {
	if s.whole {
		return 0
	}
	return (s.scale + math.Abs(s.eps)) * 0x1p-32
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
	s.t, s.ev, s.exact, s.memo, s.ranged = t, ev, ev.Exact(), false, false
	s.whole, s.scale = true, 0
	n, w, ids := len(qs), (len(qs)+63)/64, int(t.nextID)
	s.n, s.words = n, w
	s.decided = sized(s.decided, ids*w)
	s.computed = sized(s.computed, ids*w)
	s.kept = sized(s.kept, ids*w)
	clear(s.decided)
	clear(s.computed)
	s.d = sized(s.d, ids*n)
	s.active, s.pend, s.need = sized(s.active, w), sized(s.pend, w), sized(s.need, w)
	s.prune, s.coll = sized(s.prune, w), sized(s.coll, w)
	s.far = sized(s.far, w)
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
// within eps of probe i (rules 1–4). When the last read was a Range at a
// radius no larger, this one continues it: it extends that read's lists in
// place, result i holding the earlier items for probe i followed by the
// ones eps adds — so a caller that keeps a read's lists across the next
// read copies them first.
func (s *Session[T]) Range(eps float64) [][]T {
	if s.ranged && eps >= s.eps {
		s.resume(eps)
	} else {
		clear(s.kept)
		for kind := range s.front {
			s.front[kind], s.fmask[kind] = s.front[kind][:0], s.fmask[kind][:0]
		}
		s.walk(eps, make([][]T, s.n))
	}
	// A negative radius ends the walk at the root (no distance is negative),
	// so it leaves nothing to continue.
	s.ranged = eps >= 0
	return s.out
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
	s.ranged = false
	s.walk(epsMax, nil)
	return s.best
}

// mask returns node id's words in a per-node mask table.
func (s *Session[T]) mask(table []uint64, id int32) []uint64 {
	return table[int(id)*s.words:][:s.words]
}

// row returns node id's distances in the table.
func (s *Session[T]) row(id int32) []float64 { return s.d[int(id)*s.n:][:s.n] }

// walk is the batched traversal from the root: out != nil reads it as
// Range, out == nil as MinDist.
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
	s.drain()
	s.memo = true
}

// resume continues the last Range read at radius eps, no smaller than its
// own: the probes it kept at a node stay decided, the frontier entries eps
// does not reach are held over, and the walk goes on from the ones it
// does. It goes level by level, from the top down: a node is taken up once,
// with the probes of every entry and every frame that reach it merged, so it
// is tested once and its evaluations stay one batched call, and the bounds
// come from all its parents with a recorded distance. (Levels fall strictly
// along every edge, so when a level is taken up nothing can reach it any
// more.)
func (s *Session[T]) resume(eps float64) {
	s.eps = eps
	if s.t.root == nil {
		return
	}
	copy(s.decided, s.kept)
	w := s.words
	s.wake = sized(s.wake, len(s.kept))
	clear(s.wake)
	s.woken = sized(s.woken, s.t.root.level+1)
	// The frontier this read leaves is built over the one it reads: an entry
	// gives at most one entry back, so none is overwritten before it is read.
	for kind := range s.front {
		front, fmask := s.front[kind], s.fmask[kind]
		s.front[kind], s.fmask[kind] = front[:0], fmask[:0]
		for k, e := range front {
			m := fmask[k*w:][:w]
			if s.reached(kind, e.n, e.key) {
				s.takeUp(kind, e.n, m)
			} else {
				s.hold(kind, e.n, m, e.key)
			}
		}
	}
	for l := len(s.woken) - 1; l >= 0; l-- {
		for k := 0; k < len(s.woken[l]); k++ {
			c := s.woken[l][k]
			s.test(c, nil, 0, s.mask(s.wake, c.id))
			// visit pushed at most c's own frame: its probes go on to the
			// children, to be tested when their level is taken up.
			if len(s.stack) > 0 {
				for _, ce := range c.children {
					s.wakeAt(ce.n, s.masks[:w])
				}
				s.stack, s.masks = s.stack[:0], s.masks[:0]
			}
		}
		s.woken[l] = s.woken[l][:0]
	}
}

// wakeAt adds the probes in m, not empty, to the ones a continued read
// takes up at c.
func (s *Session[T]) wakeAt(c *Node[T], m []uint64) {
	wk := s.mask(s.wake, c.id)
	var had uint64
	for i, x := range m {
		had |= wk[i]
		wk[i] |= x
	}
	if had == 0 {
		s.woken[c.level] = append(s.woken[c.level], c)
	}
}

// takeUp splits an entry at c the radius reaches by its probes' own keys:
// the probes whose key it reaches are reported (deferFar) or woken, the
// rest deferred again.
func (s *Session[T]) takeUp(kind int, c *Node[T], m []uint64) {
	take, rest := s.prune, s.coll
	keys, key := s.row(c.id), math.Inf(1)
	var took, left uint64
	for i, x := range m {
		take[i], rest[i] = 0, 0
		for ; x != 0; x &= x - 1 {
			b := x & -x
			qi := i<<6 | bits.TrailingZeros64(x)
			if k := keys[qi]; s.reached(kind, c, k) {
				take[i] |= b
				took |= b
				if kind == deferFar {
					s.out[qi] = append(s.out[qi], c.item)
				}
			} else {
				rest[i] |= b
				left |= b
				key = min(key, k)
			}
		}
	}
	if left != 0 {
		s.hold(kind, c, rest, key)
	}
	if kind != deferFar && took != 0 {
		s.wakeAt(c, take)
	}
}

// hold carries a frontier entry the radius does not reach over to the
// frontier the read leaves, and marks its subtree decided for its probes
// as the prune that recorded it did: still outside, it must not be reached
// through another parent.
func (s *Session[T]) hold(kind int, c *Node[T], m []uint64, key float64) {
	s.postpone(kind, c, m, key)
	if kind != deferFar && c != s.t.root {
		s.markSubtree(c, m, 0)
	}
}

// postpone records a frontier entry for the probes in m at c (Range reads
// only).
func (s *Session[T]) postpone(kind int, c *Node[T], m []uint64, key float64) {
	s.front[kind] = append(s.front[kind], deferred[T]{c, key})
	s.fmask[kind] = append(s.fmask[kind], m...)
}

// drain pops frames until the stack is empty — in the MinDist read, also
// once the bound is negative, since no distance is — and tests every child
// of each for the frame's probes.
func (s *Session[T]) drain() {
	w := s.words
	for len(s.stack) > 0 && s.eps >= 0 {
		top := len(s.stack) - 1
		e := s.stack[top]
		copy(s.active, s.masks[top*w:])
		s.stack, s.masks = s.stack[:top], s.masks[:top*w]
		for _, ce := range e.children {
			s.test(ce.n, e, ce.d, s.active)
		}
	}
	s.stack, s.masks = s.stack[:0], s.masks[:0]
}

// test is phase 1 at c for the probes in active not yet decided there: the
// zero-computation bounds settle what they can (rules 1 and 2), and the rest
// are queued for one batched evaluation (visit). e is the parent whose frame
// is being walked and ed the stored distance from it — every probe in the
// frame has its distance to e recorded — or nil when a continued read takes
// c up from the frontier; the other parents with a recorded distance tighten
// the bounds either way.
func (s *Session[T]) test(c, e *Node[T], ed float64, active []uint64) {
	pend, need, prune, coll := s.pend, s.need, s.prune, s.coll
	dec := s.mask(s.decided, c.id)
	var left uint64
	for i := range pend {
		pend[i] = active[i] &^ dec[i]
		left |= pend[i]
	}
	if left == 0 {
		return
	}
	if s.t.noEdgeBounds {
		s.visit(c, pend)
		return
	}
	rho, eps := c.rho, s.eps
	los, his := s.lo, s.hi
	s.note(rho)
	var from []float64
	if e != nil {
		from = s.row(e.id)
		s.note(ed)
	}
	// A pair priced by an earlier read of this session needs no bounds: its
	// distance is read back in phase 2.
	comp := s.mask(s.computed, c.id)
	var queued, unknown uint64
	for i := range pend {
		need[i] = pend[i] &^ comp[i]
		pend[i] &= comp[i]
		queued |= pend[i]
		unknown |= need[i]
		for m := need[i]; m != 0; m &= m - 1 {
			qi := i<<6 | bits.TrailingZeros64(m)
			if from == nil {
				los[qi], his[qi] = 0, math.Inf(1)
				continue
			}
			dp := from[qi]
			lo := dp - ed
			if lo < 0 {
				lo = -lo
			}
			los[qi], his[qi] = lo, dp+ed
		}
	}
	if unknown == 0 {
		s.visit(c, pend)
		return
	}
	for _, pe := range c.parents {
		if pe.n == e {
			continue
		}
		s.note(pe.d)
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
	key, keys := math.Inf(1), s.row(c.id)
	a := s.slack()
	for i := range need {
		prune[i], coll[i] = 0, 0
		for m := need[i]; m != 0; m &= m - 1 {
			b := m & -m
			qi := i<<6 | bits.TrailingZeros64(m)
			if lo := los[qi]; lo-rho > eps+a {
				prune[i] |= b
				keys[qi] = lo
				key = min(key, lo)
			} else if s.out != nil && his[qi]+rho+a <= eps {
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
		if s.out != nil {
			s.postpone(deferLo, c, prune, key)
		}
	}
	if collected != 0 {
		s.collect(c, coll, 0)
	}
	if queued != 0 {
		s.visit(c, pend)
	}
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
	s.note(rho)
	a := s.slack() // fixed before pricing: rule 3 prunes where the evaluator abandons
	bound := s.eps + rho + a
	dists := s.price(c, pending, bound)
	comp, dec, row := s.mask(s.computed, c.id), s.mask(s.decided, c.id), s.row(c.id)
	kept := s.mask(s.kept, c.id)
	// The frame's mask is written in place on the stack and dropped again if
	// it stays empty.
	base := len(s.masks)
	s.masks = slices.Grow(s.masks, w)[:base+w]
	next, prune, coll, far := s.masks[base:], s.prune, s.coll, s.far
	clear(next)
	clear(prune)
	clear(coll)
	clear(far)
	var pruned, collected, left, farOff uint64
	pruneKey, farKey := math.Inf(1), math.Inf(1)
	for k, qi := range pending {
		dc, i, b := dists[k], qi>>6, uint64(1)<<(qi&63)
		exact := s.exact || dc <= bound
		if exact {
			// Exact, so it seeds the triangle bounds of later visits and is
			// never evaluated again in this session — also when it prunes.
			comp[i] |= b
			row[qi] = dc
			s.note(dc)
		}
		if s.out == nil && dc <= s.eps {
			s.best, s.eps = dc, math.Nextafter(dc, math.Inf(-1))
		}
		if dc > s.eps+rho+a {
			// δ(q,c) > ε + ρ (+ a): the subtree is outside. (An abandoned value
			// is a proof, not a distance — but never more than the distance,
			// so it keys the frontier as well as one.)
			prune[i] |= b
			pruned |= b
			row[qi] = dc
			pruneKey = min(pruneKey, dc)
			continue
		}
		// From here on dc ≤ ε + ρ + a, so dc is exact. In the MinDist read
		// the bound has just dropped below dc, so neither of the two rules
		// below that report fires and out is never touched.
		if dc+rho+a <= s.eps {
			coll[i] |= b
			collected |= b
			continue
		}
		dec[i] |= b
		kept[i] |= b
		if dc <= s.eps {
			s.out[qi] = append(s.out[qi], c.item)
		} else {
			far[i] |= b
			farOff |= b
			farKey = min(farKey, dc)
		}
		next[i] |= b
		left |= b
	}
	if pruned != 0 {
		// A probe pruned at the root is in no frame, so nothing ever reads
		// its decided bits below.
		if c != t.root {
			s.markSubtree(c, prune, 0)
		}
		if s.out != nil {
			s.postpone(deferDist, c, prune, pruneKey)
		}
	}
	if collected != 0 {
		s.collect(c, coll, 0)
	}
	if farOff != 0 && s.out != nil {
		s.postpone(deferFar, c, far, farKey)
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
// bound. One walk serves every probe a rule pruned at c. The marks last for
// the read: the frontier entry at c answers for the subtree in a wider one.
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
// appended twice). A multi-parent node collected is kept too: inside for
// any wider radius, it must not be reached again through another parent.
func (s *Session[T]) collect(c *Node[T], m []uint64, depth int) {
	if len(c.parents) > 1 {
		if m = s.narrow(c, m, depth); m == nil {
			return
		}
		depth++
		kept := s.mask(s.kept, c.id)
		for i, x := range m {
			kept[i] |= x
		}
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
// pending. Distances an earlier read of the session recorded are read back;
// the rest go to the evaluator in one call, as an ascending subsequence of
// pending.
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
		// An abandoned evaluation returns anything over bound; all it proves
		// is that the distance is, so that is what the session is told.
		over := math.Nextafter(bound, math.Inf(1))
		for k, qi := range idxs {
			if out[k] = b(e.qs[qi], item, bound); out[k] > bound {
				out[k] = over
			}
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
