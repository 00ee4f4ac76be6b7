package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/dist"
	"repro/internal/seq"
)

// verifier implements step 5 of the framework: candidate generation from
// filtered hits and verification with true distance computations.
//
// For a hit pairing query segment [a,b) with database window [c,c+l), the
// candidate supersequences follow Section 7 exactly:
//
//	SX start ∈ [c−λ/2, c],       SX end ∈ [c+λ/2, c+λ]
//	SQ start ∈ [a−λ/2−λ0, a],    SQ end ∈ [b, b+λ/2+λ0]
//
// clamped to the sequence bounds, and subject to |SQ|,|SX| ≥ λ and
// ||SQ|−|SX|| ≤ λ0.
//
// For matches longer than λ the paper concatenates hits on consecutive
// windows (Section 7, query Type II). A true match covering windows
// oA..oB produces a hit on every one of those windows (Lemma 2 applied to
// each window), so we generalise concatenation to RUN REGIONS: every pair
// of hits (hA, hB) whose windows bound a run of consecutively-hit windows
// spans a candidate region whose SX extends one window past the run ends
// (the paper's (k+2)·λ/2 bound) and whose SQ extends past the two hit
// segments. Keeping only the single longest chain per ending hit — a
// literal reading of the paper — is insufficient: a long chain pins SX to
// cover all its windows, hiding matches that cover an inner sub-run.
//
// The candidate set is the union of the regions' boxes. It is priced by
// START PAIR, not by candidate: every candidate (qs, qe, xs, xe) of one
// (qs, xs) is a cell of the single DP table over q[qs:] × x[xs:] — cell
// (qe−qs, xe−xs) IS δ(q[qs:qe], x[xs:xe]) — so one incremental-kernel pass
// per distinct start pair (scan) prices every end the regions ask for, where
// a per-candidate evaluation recomputes a prefix of that table each time.
type verifier[E any] struct {
	m  dist.Measure[E]
	p  Params
	db []seq.Sequence[E]
	// scratch pools the per-query working set: region and pass lists and the
	// pass kernel with its window preprocessing.
	scratch sync.Pool
}

// verifyScratch is the pooled per-query working set of the verifier.
type verifyScratch[E any] struct {
	regions map[region]bool
	byWin   map[winKey][]int
	regs    []region
	// order, active, passes and members are the pass enumeration (see
	// passes).
	order, active []int32
	passes        []pass
	members       []int32
	// groups and byGroup are verifyLongest's reordering of passes: its
	// start groups, and the passes a group at a time in their order.
	groups  []startGroup
	byGroup []pass
	// prep and kernel are the bound window's preprocessing and the kernel
	// state over it, both rebuilt in place from pass to pass.
	prep   dist.Prepared[E]
	kernel dist.Kernel[E]
	// rows are the bound window's ground-cost rows, shared by the passes
	// that keep the binding.
	rows costRows[E]
}

func newVerifier[E any](m dist.Measure[E], p Params, db []seq.Sequence[E]) *verifier[E] {
	return &verifier[E]{m: m, p: p, db: db}
}

func (v *verifier[E]) getScratch() *verifyScratch[E] {
	if sc, ok := v.scratch.Get().(*verifyScratch[E]); ok {
		clear(sc.regions)
		clear(sc.byWin)
		sc.regs = sc.regs[:0]
		return sc
	}
	return &verifyScratch[E]{
		regions: make(map[region]bool),
		byWin:   make(map[winKey][]int),
	}
}

func (v *verifier[E]) putScratch(sc *verifyScratch[E]) { v.scratch.Put(sc) }

// winKey identifies a database window by sequence and ordinal.
type winKey struct{ seqID, ord int }

// region is the candidate search box derived from a hit or a hit pair.
type region struct {
	seqID        int
	qsMin, qsMax int
	qeMin, qeMax int
	xsMin, xsMax int
	xeMin, xeMax int
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// spanRegion builds the candidate region for the window/segment span
// bounded by a start hit (window [cA,·), segment [aA,·)) and an end hit
// (window [·,cEndB), segment [·,bB)); for a single hit the two coincide
// and the region reduces to the paper's Section 7 box.
func (v *verifier[E]) spanRegion(q seq.Sequence[E], seqID, cA, cEndB, aA, bB int) region {
	l := v.p.WindowLen()
	lam0 := v.p.Lambda0
	x := v.db[seqID]
	return region{
		seqID: seqID,
		qsMin: clamp(aA-l-lam0, 0, len(q)), qsMax: clamp(aA, 0, len(q)),
		qeMin: clamp(bB, 0, len(q)), qeMax: clamp(bB+l+lam0, 0, len(q)),
		xsMin: clamp(cA-l, 0, len(x)), xsMax: clamp(cA, 0, len(x)),
		xeMin: clamp(cEndB, 0, len(x)), xeMax: clamp(cEndB+l, 0, len(x)),
	}
}

// hitRegion is the single-hit candidate region (query Type I).
func (v *verifier[E]) hitRegion(q seq.Sequence[E], h Hit[E]) region {
	return v.spanRegion(q, h.Window.SeqID, h.Window.Start, h.Window.End(),
		h.Segment.Start, h.Segment.End())
}

// runRegions builds the candidate regions for all hit pairs spanning runs
// of consecutively-hit windows, including the degenerate single-hit
// regions. Hits hA, hB on the first and last of m ≥ 2 consecutive windows,
// every one of them hit, span a region (spanRegion) when spanQ, from hA's
// segment start to hB's segment end, and spanX = m·l satisfy
// spanQ > 0 and |spanQ − spanX| ≤ (m+1)·λ0.
func (v *verifier[E]) runRegions(q seq.Sequence[E], hits []Hit[E], sc *verifyScratch[E]) []region {
	lam0 := v.p.Lambda0
	byWin := sc.byWin
	for i, h := range hits {
		k := winKey{h.Window.SeqID, h.Window.Ord}
		byWin[k] = append(byWin[k], i)
	}
	seen := sc.regions
	out := sc.regs
	add := func(r region) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, h := range hits {
		add(v.hitRegion(q, h))
		// Extend forward while every window in between has hits.
		seqID := h.Window.SeqID
		for ord := h.Window.Ord + 1; ; ord++ {
			ends, ok := byWin[winKey{seqID, ord}]
			if !ok {
				break
			}
			m := ord - h.Window.Ord + 1
			budget := m * lam0
			for _, j := range ends {
				hb := hits[j]
				spanX := hb.Window.End() - h.Window.Start // == m·l
				spanQ := hb.Segment.End() - h.Segment.Start
				if spanQ <= 0 {
					continue
				}
				if d := spanQ - spanX; d > budget+lam0 || -d > budget+lam0 {
					continue
				}
				add(v.spanRegion(q, seqID, h.Window.Start, hb.Window.End(),
					h.Segment.Start, hb.Segment.End()))
			}
		}
	}
	sc.regs = out
	return out
}

// pass is one start pair (qs, xs) on sequence seqID together with the
// regions that hold candidates starting there (members[lo:hi], indices into
// the region list). rows and cols bound the DP table those candidates
// occupy: the largest qe−qs and xe−xs any of them has.
type pass struct {
	seqID, xs, qs int32
	lo, hi        int32
	rows, cols    int32
}

// startGroup is the passes[lo:hi] over one database start, rows the
// longest of them.
type startGroup struct{ lo, hi, rows int32 }

// reach bounds the DP table that region r's candidates from start (qs, xs)
// occupy: the largest candidate lengths rows = qe−qs and cols = xe−xs under
// |SQ|,|SX| ≥ λ and ||SQ|−|SX|| ≤ λ0. ok is false when r has no candidate
// starting there.
func (v *verifier[E]) reach(r *region, qs, xs int) (rows, cols int, ok bool) {
	lam, lam0 := v.p.Lambda, v.p.Lambda0
	iLo, iHi := max(r.qeMin-qs, lam), r.qeMax-qs
	jLo, jHi := max(r.xeMin-xs, lam), r.xeMax-xs
	rows, cols = min(iHi, jHi+lam0), min(jHi, iHi+lam0)
	return rows, cols, max(iLo, jLo-lam0) <= rows && max(jLo, iLo-lam0) <= cols
}

// passes enumerates the distinct start pairs of regs, each with the regions
// it belongs to, ordered by (seqID, xs, qs) so that passes over one database
// start are neighbours and share a window binding. A start pair is listed
// only if some region holds a candidate for it.
//
// It sorts the regions by (seqID, xsMin, index), then sweeps xs along each
// sequence with an active list of the regions whose database-start range
// covers xs, kept in region-index order. A region joins at its xsMin and
// leaves after its xsMax, and a stretch of xs no region covers is jumped.
// Each xs's active list is the group of regions a pass's members are drawn
// from, in index order.
func (v *verifier[E]) passes(regs []region, sc *verifyScratch[E]) []pass {
	order := sc.order[:0]
	for i := range regs {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := &regs[a], &regs[b]
		return cmp.Or(cmp.Compare(ra.seqID, rb.seqID), cmp.Compare(ra.xsMin, rb.xsMin), cmp.Compare(a, b))
	})
	out, members, active := sc.passes[:0], sc.members[:0], sc.active[:0]
	seqID, xs := 0, 0
	for next := 0; next < len(order) || len(active) > 0; {
		if len(active) == 0 {
			seqID, xs = regs[order[next]].seqID, regs[order[next]].xsMin
		}
		for ; next < len(order) && regs[order[next]].seqID == seqID && regs[order[next]].xsMin == xs; next++ {
			at, _ := slices.BinarySearch(active, order[next])
			active = slices.Insert(active, at, order[next])
		}
		qsLo, qsHi := math.MaxInt, -1
		for _, i := range active {
			qsLo, qsHi = min(qsLo, regs[i].qsMin), max(qsHi, regs[i].qsMax)
		}
		for qs := qsLo; qs <= qsHi; qs++ {
			p := pass{seqID: int32(seqID), xs: int32(xs), qs: int32(qs), lo: int32(len(members))}
			for _, i := range active {
				r := &regs[i]
				if qs < r.qsMin || qs > r.qsMax {
					continue
				}
				if rows, cols, ok := v.reach(r, qs, xs); ok {
					members = append(members, i)
					p.rows, p.cols = max(p.rows, int32(rows)), max(p.cols, int32(cols))
				}
			}
			if p.hi = int32(len(members)); p.hi > p.lo {
				out = append(out, p)
			}
		}
		xs++
		active = slices.DeleteFunc(active, func(i int32) bool { return regs[i].xsMax < xs })
	}
	sc.order, sc.active, sc.passes, sc.members = order, active, out, members
	return out
}

// visitor receives the candidates a scan prices and steers it: radius is
// the largest distance still of interest (the scan offers only candidates
// within it, and abandons a pass once the kernel proves every later cell
// beyond it), minQLen the shortest query span still of interest (shorter
// rows are not read, passes that cannot reach it not run). Both may tighten
// as matches arrive.
type visitor interface {
	radius() float64
	minQLen() int
	visit(m Match)
}

// scan prices the candidates of every pass and offers those within the
// visitor's radius. It walks the passes a group at a time: a group is a run
// of neighbouring passes over one database start (seqID, xs), which passes
// lists together. Per group it binds one kernel to the database side
// x[xs:xs+cols], cols the group's widest — or keeps the previous binding
// when that already starts at xs and is at least as wide, a longer window
// changing no cell. Per pass it feeds the query side q[qs:] element by
// element, and after row i reads the cells j ∈ [i−λ0, i+λ0] that lie in a
// member region. A cell inside the pass's rows × cols box but in no member
// region is not a candidate: the box is the union's bounding box, the
// candidate set the union itself.
//
// A group of two or more passes on a kernel with a free-start mode first
// runs one free-start pass over its query stretch (groupLive), whose every
// cell is the least of that cell over the group's query starts. When no
// cell a pass of the group would read is within the radius there, none is
// in any of its passes, and the group is skipped unrun.
//
// Passes that keep a binding feed overlapping stretches of q, so the
// substitution costs of each query row against the bound window are priced
// once and read by each of them (costRows) where the measure's kernel takes
// cost rows.
//
// Where the kernel takes cost rows (dist.RowKernel), each pass and pre-pass
// is banded at the visitor's radius when it starts: a row then computes only
// the cells that can still be within it, and only the ground costs those
// cells read are priced. The radius only shrinks during a pass, and every
// cell within it keeps its exact bits, so the cells read within the radius
// and the Floor decisions are those of an unbanded pass.
//
// The answer never depends on pass order or on where a pass is abandoned:
// a pass stops early only when the kernel's Floor strictly exceeds the
// radius, which no later cell can then be within.
//
// The passes are priced into c.verify: one evaluation per pass and per
// pre-pass (a pass costs one DP over its longest candidate, the convention
// the filter's kernel passes and its own pre-pass are counted by), or, for
// a measure without an incremental kernel, one per Fn call its passes make.
func (v *verifier[E]) scan(q seq.Sequence[E], regs []region, passes []pass, sc *verifyScratch[E], vis visitor, c *cost) {
	bound := pass{seqID: -1}
	var rk dist.RowKernel[E] // sc.kernel, when it reads sc.rows
	for len(passes) > 0 {
		n, cols, runs := 0, int32(0), 0
		for ; n < len(passes) && passes[n].seqID == passes[0].seqID && passes[n].xs == passes[0].xs; n++ {
			cols = max(cols, passes[n].cols)
			if int(passes[n].rows) >= vis.minQLen() {
				runs++
			}
		}
		group := passes[:n]
		passes = passes[n:]
		if runs == 0 {
			continue
		}
		if bound.seqID != group[0].seqID || bound.xs != group[0].xs || bound.cols < cols {
			x := v.db[group[0].seqID]
			sc.prep = v.m.Reprepare(sc.prep, x[group[0].xs:][:cols])
			sc.kernel = dist.BindKernel(sc.kernel, sc.prep)
			sc.rows.bind(sc.prep, q)
			rk = sc.rows.reader(sc.kernel)
			bound = pass{seqID: group[0].seqID, xs: group[0].xs, cols: cols}
		}
		if fs, ok := sc.kernel.(dist.FreeStartKernel[E]); ok && runs > 1 {
			c.verify++
			if !v.groupLive(q, regs, group, sc, fs, rk, vis) {
				continue
			}
		}
		for _, p := range group {
			if int(p.rows) >= vis.minQLen() {
				v.runPass(q, regs, p, sc, rk, vis, c)
			}
		}
	}
}

// runPass runs pass p on sc.kernel, bound to a window from p's database
// start at least p.cols wide, and offers the visitor the candidates it
// prices within the radius.
func (v *verifier[E]) runPass(q seq.Sequence[E], regs []region, p pass, sc *verifyScratch[E], rk dist.RowKernel[E], vis visitor, c *cost) {
	lam, lam0 := v.p.Lambda, v.p.Lambda0
	qs, xs := int(p.qs), int(p.xs)
	k := sc.kernel
	k.Reset()
	if rk != nil {
		rk.Within(vis.radius())
	}
	members := sc.members[p.lo:p.hi]
	reads := int64(0)
	for i := 1; i <= int(p.rows); i++ {
		if rk != nil {
			lo, hi := rk.Span()
			rk.FeedRow(sc.rows.cols(qs+i-1, lo, hi))
		} else {
			k.Feed(q[qs+i-1])
		}
		if i >= lam && i >= vis.minQLen() {
			qe := qs + i
			for j := max(i-lam0, lam); j <= min(i+lam0, int(p.cols)); j++ {
				xe := xs + j
				if !anyHolds(regs, members, qe, xe) {
					continue
				}
				reads++
				if d := k.At(j); d <= vis.radius() {
					vis.visit(Match{SeqID: int(p.seqID), QStart: qs, QEnd: qe, XStart: xs, XEnd: xe, Dist: d})
				}
			}
		}
		if k.Floor() > vis.radius() {
			break
		}
	}
	// A kernel pass is one DP however many cells are read; the Fn adapter
	// (no Prepare) makes one Fn call per cell read instead.
	if v.m.Prepare == nil {
		c.verify += reads
	} else {
		c.verify++
	}
}

// groupLive runs the free-start pre-pass of a group of passes over one
// database start and reports whether some pass of the group can read a cell
// within the radius. It feeds q[qsLo:end] to fs, qsLo and qsHi the least
// and largest query start of the passes the visitor still runs and end the
// last row any of them feeds, through FeedFree up to qsHi and through Feed
// after: row qe−qsLo, cell j then holds the least δ(q[s:qe], x[xs:xs+j])
// over the starts qsLo ≤ s ≤ min(qe, qsHi) (dist.FreeStartKernel), at most
// the cell of every pass. It stops at the first such cell within the radius
// that a pass would read — by the same row, column, member and minQLen tests
// the pass applies — and reports false when there is none: when the rows
// run out, or once Floor is over the radius past qsHi.
func (v *verifier[E]) groupLive(q seq.Sequence[E], regs []region, group []pass, sc *verifyScratch[E], fs dist.FreeStartKernel[E], rk dist.RowKernel[E], vis visitor) bool {
	lam, lam0 := v.p.Lambda, v.p.Lambda0
	r, minQ := vis.radius(), vis.minQLen()
	xs, cols := int(group[0].xs), 0
	qsLo, qsHi, end := math.MaxInt, 0, 0
	for _, p := range group {
		cols = max(cols, int(p.cols))
		if int(p.rows) >= minQ {
			qsLo, qsHi, end = min(qsLo, int(p.qs)), max(qsHi, int(p.qs)), max(end, int(p.qs+p.rows))
		}
	}
	fs.Reset()
	if rk != nil {
		rk.Within(r)
	}
	for pos := qsLo; pos < end; pos++ {
		switch free := pos < qsHi; {
		case rk != nil:
			lo, hi := rk.Span()
			if c, dx := sc.rows.cols(pos, lo, hi); free {
				rk.FeedFreeRow(c, dx)
			} else {
				rk.FeedRow(c, dx)
			}
		case free:
			fs.FeedFree(q[pos])
		default:
			fs.Feed(q[pos])
		}
		qe := pos + 1
		jLo, jHi := max(qe-qsHi-lam0, lam), min(qe-qsLo+lam0, cols)
		if rk != nil {
			// No cell outside the band is within the radius.
			lo, hi := rk.Span()
			jLo, jHi = max(jLo, lo), min(jHi, hi)
		}
		for j := jLo; j <= jHi; j++ {
			if fs.At(j) > r {
				continue
			}
			for _, p := range group {
				i := qe - int(p.qs)
				if int(p.rows) >= minQ && i >= max(lam, minQ) && i <= int(p.rows) &&
					j >= i-lam0 && j <= min(i+lam0, int(p.cols)) && anyHolds(regs, sc.members[p.lo:p.hi], qe, xs+j) {
					return true
				}
			}
		}
		if fs.Floor() > r {
			return false
		}
	}
	return false
}

// anyHolds reports whether some member region's end box holds (qe, xe).
// Members already hold the pass's start.
func anyHolds(regs []region, members []int32, qe, xe int) bool {
	for _, m := range members {
		if r := &regs[m]; qe >= r.qeMin && qe <= r.qeMax && xe >= r.xeMin && xe <= r.xeMax {
			return true
		}
	}
	return false
}

// allMatches is the Type I visitor: every candidate within eps.
type allMatches struct {
	eps float64
	out []Match
}

func (a *allMatches) radius() float64 { return a.eps }
func (a *allMatches) minQLen() int    { return 0 }
func (a *allMatches) visit(m Match)   { a.out = append(a.out, m) }

// longestMatch is the Type II visitor: the least candidate within eps under
// LongestBefore. The order is strict and total, so the answer is a function
// of the candidate set alone.
type longestMatch struct {
	eps   float64
	best  Match
	found bool
}

func (l *longestMatch) radius() float64 { return l.eps }

// minQLen rises to the running best, not above it: a candidate of the same
// length may still win on distance.
func (l *longestMatch) minQLen() int {
	if l.found {
		return l.best.QLen()
	}
	return 0
}

func (l *longestMatch) visit(m Match) {
	if !l.found || LongestBefore(m, l.best) {
		l.best, l.found = m, true
	}
}

// nearestMatch is the Type III visitor: the least candidate within eps under
// NearestBefore, strict and total like LongestBefore.
type nearestMatch struct {
	eps   float64
	best  Match
	found bool
}

// radius shrinks to the running best, not below it: a candidate at the same
// distance may still win the canonical tie-break.
func (n *nearestMatch) radius() float64 {
	if n.found {
		return n.best.Dist
	}
	return n.eps
}

func (n *nearestMatch) minQLen() int { return 0 }

func (n *nearestMatch) visit(m Match) {
	if !n.found || NearestBefore(m, n.best) {
		n.best, n.found = m, true
	}
}

// verifyAll implements query Type I verification over the per-hit regions.
func (v *verifier[E]) verifyAll(q seq.Sequence[E], hits []Hit[E], eps float64, c *cost) []Match {
	sc := v.getScratch()
	defer v.putScratch(sc)
	for _, h := range hits {
		sc.regs = append(sc.regs, v.hitRegion(q, h))
	}
	vis := allMatches{eps: eps}
	v.scan(q, sc.regs, v.passes(sc.regs, sc), sc, &vis, c)
	slices.SortFunc(vis.out, CanonicalCompare)
	return vis.out
}

// CanonicalCompare is the canonical total order on matches — ascending
// coordinates, the order verifyAll sorts by. Distinct pairs never share
// all five coordinates, so the order is strict; it is the final
// tie-break that makes every query answer a pure function of the
// candidate set rather than of traversal order. The three orders here are
// the only definitions: the sharded tier (internal/shard) merges per-shard
// answers with these same functions, which is what lets a fleet reproduce
// a single node's answer bit for bit.
func CanonicalCompare(a, b Match) int {
	return cmp.Or(cmp.Compare(a.SeqID, b.SeqID), cmp.Compare(a.XStart, b.XStart), cmp.Compare(a.XEnd, b.XEnd),
		cmp.Compare(a.QStart, b.QStart), cmp.Compare(a.QEnd, b.QEnd))
}

// NearestBefore orders Type III answers: smaller distance wins, equal
// distances resolve canonically.
func NearestBefore(a, b Match) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return CanonicalCompare(a, b) < 0
}

// LongestBefore orders Type II answers: longer query span wins, then
// smaller distance, then the canonical order.
func LongestBefore(a, b Match) bool {
	if a.QLen() != b.QLen() {
		return a.QLen() > b.QLen()
	}
	return NearestBefore(a, b)
}

// verifyNearest implements query Type III verification: the minimum
// distance pair within the run regions, if any pair is within eps.
// Distance ties resolve canonically (NearestBefore), never by traversal
// order.
func (v *verifier[E]) verifyNearest(q seq.Sequence[E], hits []Hit[E], eps float64, c *cost) (Match, bool) {
	sc := v.getScratch()
	defer v.putScratch(sc)
	regs := v.runRegions(q, hits, sc)
	vis := nearestMatch{eps: eps}
	v.scan(q, regs, v.passes(regs, sc), sc, &vis, c)
	return vis.best, vis.found
}

// verifyLongest implements query Type II verification: the longest query
// span within eps over the run regions. Equal-length ties resolve by
// distance, then canonically (LongestBefore), never by traversal order — a
// topology-independent answer is what lets the sharded tier
// (internal/shard) merge per-shard longest matches bit-identically to a
// single node. Start groups run whole (scan's group pre-pass needs them
// so), from the one with the longest reachable span down, so the first
// matches found rule out most of the rest unrun.
func (v *verifier[E]) verifyLongest(q seq.Sequence[E], hits []Hit[E], eps float64, c *cost) (Match, bool) {
	sc := v.getScratch()
	defer v.putScratch(sc)
	regs := v.runRegions(q, hits, sc)
	passes := v.passes(regs, sc)
	groups := sc.groups[:0]
	for lo := 0; lo < len(passes); {
		g := startGroup{lo: int32(lo)}
		for ; lo < len(passes) && passes[lo].seqID == passes[g.lo].seqID && passes[lo].xs == passes[g.lo].xs; lo++ {
			g.rows = max(g.rows, passes[lo].rows)
		}
		g.hi = int32(lo)
		groups = append(groups, g)
	}
	slices.SortStableFunc(groups, func(a, b startGroup) int { return cmp.Compare(b.rows, a.rows) })
	byGroup := sc.byGroup[:0]
	for _, g := range groups {
		byGroup = append(byGroup, passes[g.lo:g.hi]...)
	}
	sc.groups, sc.byGroup = groups, byGroup
	vis := longestMatch{eps: eps}
	v.scan(q, regs, byGroup, sc, &vis, c)
	return vis.best, vis.found
}
