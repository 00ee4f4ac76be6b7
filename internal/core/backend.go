package core

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/covertree"
	"repro/internal/dist"
	"repro/internal/metric"
	"repro/internal/refindex"
	"repro/internal/refnet"
	"repro/internal/seq"
)

// The backend contract. The framework is generic in its index (Sections
// 6–7 put the reference net, the cover tree and the reference-based index
// behind the same five steps), so Matcher holds one backend and knows
// nothing else about it: buildBackend is the only place a Config.Index is
// looked at. A fifth index is a type that satisfies these two interfaces.

// backend is what the framework needs from a window index.
type backend[E any] interface {
	// insert adds one database window.
	insert(w seq.Window[E])
	// remove drops the n windows (ordinals 0..n−1) of sequence seqID and
	// reports how many went; ErrRetireUnsupported when the index cannot
	// delete.
	remove(seqID, n int) (int, error)
	// open starts one query's session over the segments in sc.segs (not
	// empty). The session lives in sc and ends with close.
	open(q seq.Sequence[E], sc *filterScratch[E]) session[E]
	// save serialises the index; ErrSaveUnsupported when it has no
	// serialised form.
	save(w io.Writer) error
}

// session is one query's segments held open on the index for as many reads
// as the query needs: Types I and II read hits once, Type III reads minDist
// and then hits once per verification round.
type session[E any] interface {
	// hits is the filter at radius eps: every (segment, window) pair within
	// eps, segment-major, in the scratch's hit slice (valid until the next
	// read or the scratch is reused).
	hits(eps float64) []Hit[E]
	// minDist is ε₀: the least distance between any segment and any indexed
	// window if that is at most cap, +Inf otherwise.
	minDist(cap float64) float64
	close()
}

// buildBackend builds the index cfg.Index names over mt.windows, pricing
// through the matcher's counted distance — the one the index stores, which
// only construction and mutation call: a query prices through its scratch.
func buildBackend[E any](mt *Matcher[E]) (backend[E], error) {
	windowDist, cfg := mt.counter.Distance, mt.cfg
	switch cfg.Index {
	case IndexRefNet:
		net := refnet.New(windowDist, refnet.WithBase(cfg.Base), refnet.WithMaxParents(cfg.MaxParents))
		b := &netBackend[E]{mt: mt, net: net, tracked: make(map[winKey]*refnet.Node[seq.Window[E]], len(mt.windows))}
		for _, w := range mt.windows {
			b.insert(w)
		}
		return b, nil
	case IndexCoverTree:
		ct := covertree.New(windowDist, cfg.Base)
		for _, w := range mt.windows {
			ct.Insert(w)
		}
		return &rangeBackend[E]{mt: mt, index: ct}, nil
	case IndexMV:
		if len(mt.windows) == 0 {
			return nil, fmt.Errorf("core: MV index requires a non-empty database")
		}
		mv, err := refindex.Build(mt.windows, cfg.MVRefs, windowDist, refindex.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return &rangeBackend[E]{mt: mt, index: mv}, nil
	case IndexLinearScan:
		ls := metric.NewLinearScan(windowDist)
		for _, w := range mt.windows {
			ls.Insert(w)
		}
		rb := rangeBackend[E]{mt: mt, index: ls}
		// The incremental kernel prices all segment lengths at one start in
		// a single pass over the window; it pays off exactly when there is
		// more than one length (λ0 > 0 — with a single length the bounded
		// scan's early abandoning is the better kernel).
		if mt.kernelTraversal() {
			return &scanBackend[E]{rangeBackend: rb, scan: ls}, nil
		}
		return &rb, nil
	default:
		return nil, fmt.Errorf("core: unknown index kind %v", cfg.Index)
	}
}

// probeOf is the index probe of a query segment: a window that belongs to
// no database sequence.
func probeOf[E any](s seq.Segment[E]) seq.Window[E] {
	return seq.Window[E]{SeqID: -1, Start: s.Start, Data: s.Data}
}

// --- the reference net: a refnet.Session ---

// netBackend is the reference net plus the handle of every indexed window.
type netBackend[E any] struct {
	mt  *Matcher[E]
	net *refnet.Net[seq.Window[E]]
	// tracked maps each indexed window to its node handle so remove can
	// Delete without searching.
	tracked map[winKey]*refnet.Node[seq.Window[E]]
}

func (b *netBackend[E]) insert(w seq.Window[E]) {
	b.tracked[winKey{w.SeqID, w.Ord}] = b.net.InsertTracked(w)
}

// remove deletes in window order, so the net a retire leaves is the same
// net whichever path asked for it.
func (b *netBackend[E]) remove(seqID, n int) (int, error) {
	for ord := 0; ord < n; ord++ {
		k := winKey{seqID, ord}
		h, ok := b.tracked[k]
		if !ok {
			return 0, fmt.Errorf("core: retire: window %d of sequence %d has no tracked handle", ord, seqID)
		}
		if err := b.net.Delete(h); err != nil {
			return 0, fmt.Errorf("core: retire: %w", err)
		}
		delete(b.tracked, k)
	}
	return n, nil
}

func (b *netBackend[E]) save(w io.Writer) error { return b.net.Save(w) }

// loadNetBackend restores a net written by save, over mt.windows, without
// computing a distance. Window payloads decoded from the stream are
// re-aliased onto the canonical database views, and the handle map is
// rebuilt from a net walk; every indexed window must identify a window the
// database actually has.
func loadNetBackend[E any](mt *Matcher[E], r io.Reader) (backend[E], error) {
	net, err := refnet.Load(r, mt.counter.Distance)
	if err != nil {
		return nil, err
	}
	if net.Len() != len(mt.windows) {
		return nil, fmt.Errorf("core: restore: index holds %d windows but database partitions into %d (sequences and index stream do not belong together)",
			net.Len(), len(mt.windows))
	}
	byKey := make(map[winKey]seq.Window[E], len(mt.windows))
	for _, w := range mt.windows {
		byKey[winKey{w.SeqID, w.Ord}] = w
	}
	var rerr error
	net.RewriteItems(func(w seq.Window[E]) seq.Window[E] {
		canon, ok := byKey[winKey{w.SeqID, w.Ord}]
		if !ok && rerr == nil {
			rerr = fmt.Errorf("core: restore: index window %v not present in database", w)
		}
		return canon
	})
	if rerr != nil {
		return nil, rerr
	}
	b := &netBackend[E]{mt: mt, net: net, tracked: make(map[winKey]*refnet.Node[seq.Window[E]], len(mt.windows))}
	net.Walk(func(n *refnet.Node[seq.Window[E]]) {
		w := n.Item()
		b.tracked[winKey{w.SeqID, w.Ord}] = n
	})
	if len(b.tracked) != len(mt.windows) {
		return nil, fmt.Errorf("core: restore: index holds %d distinct windows, database has %d (duplicate or missing entries)",
			len(b.tracked), len(mt.windows))
	}
	return b, nil
}

// open lays sc.segs out as index probes and opens a traversal session over
// them; segment i is probe sc.pos[i]. With a kernel to feed, the probes go in
// offset-major, once per query, so that no node has to regroup them, and the
// session prices them through the grouped kernel evaluator; otherwise they
// go in as the segments come and the scratch's counted distance prices them
// one by one (early-abandoning where the measure can).
func (b *netBackend[E]) open(q seq.Sequence[E], sc *filterScratch[E]) session[E] {
	var ev metric.BatchEvaluator[seq.Window[E]]
	if b.mt.kernelTraversal() {
		sc.offsetMajorProbes(sc.segs, len(q))
		sc.keval.open(b.mt, q, sc)
		ev = &sc.keval
	} else {
		sc.pos, sc.probes = sc.pos[:0], sc.probes[:0]
		for i, seg := range sc.segs {
			sc.pos = append(sc.pos, int32(i))
			sc.probes = append(sc.probes, probeOf(seg))
		}
		sc.deval = refnet.DistEvaluator[seq.Window[E]]{Probes: sc.probes, Dist: sc.fn, Bounded: sc.bounded}
		ev = &sc.deval
	}
	sc.netSession = netSession[E]{b.net.OpenSession(sc.probes, ev), sc}
	return &sc.netSession
}

// netSession reads a refnet.Session, which computes no recorded (segment,
// window) distance twice however many reads the query makes; a pair the
// pre-pass ruled out under one radius may earn one exact pass under a wider
// one its bound no longer clears. Type III's rounds at rising radii are one
// continued traversal: a round's hits are the last round's plus what the
// wider radius adds, still segment-major — within a segment the windows may
// come in another order than a walk from the root would give, which no
// answer depends on (the verifier breaks ties canonically).
type netSession[E any] struct {
	s  *refnet.Session[seq.Window[E]]
	sc *filterScratch[E]
}

func (s *netSession[E]) hits(eps float64) []Hit[E] {
	sc := s.sc
	sc.hits = sc.hits[:0]
	results := s.s.Range(eps)
	for i, seg := range sc.segs {
		for _, w := range results[sc.pos[i]] {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: seg})
		}
	}
	return sc.hits
}

func (s *netSession[E]) minDist(cap float64) float64 { return s.s.MinDist(cap) }

func (s *netSession[E]) close() { s.s.Close() }

// --- the cover tree, the reference-based index, the bare linear scan ---

// rangeBackend serves the cover tree, the reference-based index and the
// linear scan without a kernel. Every read is a fresh range query per
// segment; nothing is kept between reads.
type rangeBackend[E any] struct {
	mt    *Matcher[E]
	index metric.Index[seq.Window[E]]
}

// rangeFuncer is an index that ranges with the distance it is handed.
type rangeFuncer[T any] interface {
	RangeFunc(q T, eps float64, dist metric.DistFunc[T], yield func(T))
}

// each yields every window within eps of probe, priced through sc's counted
// distances: the trees' traversal through Fn, the scan through Bounded at
// eps, or Fn where the measure has no Bounded.
func (b *rangeBackend[E]) each(probe seq.Window[E], eps float64, sc *filterScratch[E], yield func(seq.Window[E])) {
	ls, ok := b.index.(*metric.LinearScan[seq.Window[E]])
	if !ok {
		b.index.(rangeFuncer[seq.Window[E]]).RangeFunc(probe, eps, sc.fn, yield)
		return
	}
	for _, w := range ls.Items() {
		var d float64
		if sc.bounded != nil {
			d = sc.bounded(probe, w, eps)
		} else {
			d = sc.fn(probe, w)
		}
		if d <= eps {
			yield(w)
		}
	}
}

func (b *rangeBackend[E]) insert(w seq.Window[E]) { b.index.Insert(w) }

func (b *rangeBackend[E]) remove(seqID, _ int) (int, error) {
	r, ok := b.index.(interface {
		RemoveFunc(func(seq.Window[E]) bool) int
	})
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrRetireUnsupported, b.mt.cfg.Index)
	}
	return r.RemoveFunc(func(w seq.Window[E]) bool { return w.SeqID == seqID }), nil
}

func (b *rangeBackend[E]) save(io.Writer) error {
	return fmt.Errorf("%w: %v", ErrSaveUnsupported, b.mt.cfg.Index)
}

func (b *rangeBackend[E]) open(_ seq.Sequence[E], sc *filterScratch[E]) session[E] {
	sc.rangeSession = rangeSession[E]{b, sc}
	return &sc.rangeSession
}

type rangeSession[E any] struct {
	b  *rangeBackend[E]
	sc *filterScratch[E]
}

func (s *rangeSession[E]) hits(eps float64) []Hit[E] {
	sc := s.sc
	sc.hits = sc.hits[:0]
	var seg seq.Segment[E]
	add := func(w seq.Window[E]) { sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: seg}) }
	for _, seg = range sc.segs {
		s.b.each(probeOf(seg), eps, sc, add)
	}
	return sc.hits
}

// minDist range-queries each segment at the best distance so far and prices
// what comes back through the counted distance, so the radius shrinks from
// segment to segment.
func (s *rangeSession[E]) minDist(cap float64) float64 {
	sc := s.sc
	best, bound := math.Inf(1), cap
	var probe seq.Window[E]
	price := func(w seq.Window[E]) {
		if d := sc.fn(probe, w); d <= bound {
			best, bound = d, math.Nextafter(d, math.Inf(-1))
		}
	}
	for _, seg := range sc.segs {
		if bound < 0 {
			break
		}
		probe = probeOf(seg)
		s.b.each(probe, bound, sc, price)
	}
	return best
}

func (s *rangeSession[E]) close() {}

// --- the linear scan under an incremental kernel ---

// scanBackend is the linear scan read through the measure's incremental
// kernel; it mutates as rangeBackend does.
type scanBackend[E any] struct {
	rangeBackend[E]
	scan *metric.LinearScan[seq.Window[E]]
}

func (b *scanBackend[E]) open(q seq.Sequence[E], sc *filterScratch[E]) session[E] {
	sc.free.open(b.mt)
	sc.scanSession = scanSession[E]{b, q, sc}
	return &sc.scanSession
}

type scanSession[E any] struct {
	b  *scanBackend[E]
	q  seq.Sequence[E]
	sc *filterScratch[E]
}

// hits buckets kernelScan's results per segment and flattens them
// segment-major, so the hit order matches every other path exactly.
func (s *scanSession[E]) hits(eps float64) []Hit[E] {
	sc := s.sc
	sc.hits = sc.hits[:0]
	segs := sc.segs
	for len(sc.perSeg) < len(segs) {
		sc.perSeg = append(sc.perSeg, nil)
	}
	perSeg := sc.perSeg[:len(segs)]
	for i := range perSeg {
		perSeg[i] = perSeg[i][:0]
	}
	s.kernelScan(eps, perSeg)
	for i, wins := range perSeg {
		for _, w := range wins {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: segs[i]})
		}
	}
	return sc.hits
}

func (s *scanSession[E]) minDist(cap float64) float64 { return s.kernelScan(cap, nil) }

func (s *scanSession[E]) close() {}

// kernelScan is the pass over every (window, query offset) pair under the
// measure's incremental kernel (ROADMAP: per-measure window-distance
// evaluation across overlapping segments). For every database window it
// first runs one free-start pass over the whole query (freePass), which
// bounds from below every segment by its end; an offset whose 2λ0+1 ends are
// all bounded over the radius is skipped unpriced. For each offset left it
// streams the λ/2+λ0 elements through the window's kernel once, reading off
// the distance of every segment length on the way — 2λ0+1 segment
// evaluations for one pass instead of 2λ0+1 independent DPs. A kernel
// without the free-start mode skips nothing.
//
// It is read two ways, like the net's traversal. With perSeg it is the
// range filter: perSeg[i] collects the windows within eps of segment i. With
// perSeg nil it returns the least segment-to-window distance if that is at
// most eps, +Inf otherwise: eps is then a bound that drops to just under
// every distance found, offsets are skipped against the bound as it stands,
// and a pass stops once the kernel's Floor proves no longer segment can come
// back under it.
//
// Distance accounting is the net's and the verifier's: one evaluation per
// kernel pass, the free-start pass included, added to the query's record.
func (s *scanSession[E]) kernelScan(eps float64, perSeg [][]seq.Window[E]) float64 {
	mt, q, sc := s.b.mt, s.q, s.sc
	l := mt.cfg.Params.WindowLen()
	minLen, maxLen := l-mt.cfg.Params.Lambda0, l+mt.cfg.Params.Lambda0
	if minLen < 1 {
		minLen = 1
	}
	if maxLen > len(q) {
		maxLen = len(q)
	}
	// seg index of (length n, start a): offsets[n-minLen] + a, matching
	// AppendSegments' length-major order.
	sc.next = slices.Grow(sc.next[:0], maxLen-minLen+1)[:maxLen-minLen+1]
	offsets := sc.next
	offsets[0] = 0
	for n := minLen + 1; n <= maxLen; n++ {
		offsets[n-minLen] = offsets[n-minLen-1] + int32(len(q)-(n-1)+1)
	}
	items := s.b.scan.Items()
	// The immutable window preprocessing is shared matcher-wide; this
	// worker carries one kernel state (and one free-start state) and rebinds
	// it window to window, so steady-state kernel memory is O(windows), not
	// O(windows × workers). The linear scan touches every window per query,
	// so the lazy slots all fill on the first query and later queries read
	// them for free.
	mt.preparedInit()
	best := math.Inf(1)
	for wi, w := range items {
		p := mt.preparedAt(int32(wi))
		lower := sc.free.run(p, q)
		if lower != nil {
			sc.cost.filter++
		}
		sc.kstate = dist.BindKernel(sc.kstate, p)
		k := sc.kstate
		for a := 0; a+minLen <= len(q); a++ {
			top := maxLen
			if a+top > len(q) {
				top = len(q) - a
			}
			if lower != nil {
				n := minLen
				for n <= top && lower[a+n] > eps {
					n++
				}
				if n > top {
					continue
				}
			}
			k.Reset()
			for n := 1; n <= top; n++ {
				d := k.Feed(q[a+n-1])
				if perSeg == nil {
					if n >= minLen && d <= eps {
						best, eps = d, math.Nextafter(d, math.Inf(-1))
					}
					if k.Floor() > eps {
						break
					}
				} else if n >= minLen && d <= eps {
					i := int(offsets[n-minLen]) + a
					perSeg[i] = append(perSeg[i], w)
				}
			}
			sc.cost.filter++
		}
	}
	return best
}
