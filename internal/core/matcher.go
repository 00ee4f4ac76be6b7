package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/covertree"
	"repro/internal/dist"
	"repro/internal/metric"
	"repro/internal/refindex"
	"repro/internal/refnet"
	"repro/internal/seq"
)

// Match is a reported pair of similar subsequences: the query subsequence
// Q[QStart:QEnd) matches the database subsequence db[SeqID][XStart:XEnd)
// at distance Dist. The JSON tags are the serving protocol's: internal/shard
// aliases this type as its wire match, so a match has one definition from
// the verifier to the gateway.
type Match struct {
	SeqID  int     `json:"seq_id"`
	QStart int     `json:"q_start"`
	QEnd   int     `json:"q_end"`
	XStart int     `json:"x_start"`
	XEnd   int     `json:"x_end"`
	Dist   float64 `json:"dist"`
}

// QLen returns the query subsequence length.
func (m Match) QLen() int { return m.QEnd - m.QStart }

// XLen returns the database subsequence length.
func (m Match) XLen() int { return m.XEnd - m.XStart }

// String renders the match for diagnostics.
func (m Match) String() string {
	return fmt.Sprintf("match{q[%d,%d) ~ x%d[%d,%d) δ=%.4f}", m.QStart, m.QEnd, m.SeqID, m.XStart, m.XEnd, m.Dist)
}

// Hit is a filtered segment↔window pair produced by steps 3–4 of the
// framework: the query segment matched the database window within the
// query radius.
type Hit[E any] struct {
	Window  seq.Window[E]
	Segment seq.Segment[E]
}

// windowIndex is the operation the framework needs from its filter
// backend.
type windowIndex[E any] interface {
	Range(q seq.Window[E], eps float64) []seq.Window[E]
	Len() int
}

// Matcher is the subsequence-retrieval engine. Construct with NewMatcher,
// which runs the two offline steps (dataset windowing, index construction);
// the query methods FindAll, Longest and Nearest run the online steps.
// A Matcher is safe for concurrent queries.
type Matcher[E any] struct {
	measure dist.Measure[E]
	cfg     Config
	db      []seq.Sequence[E]
	windows []seq.Window[E]
	index   windowIndex[E]

	// counter wraps the window distance used by the index, for the
	// paper's distance-computation accounting.
	counter *metric.Counter[seq.Window[E]]
	// buildCalls is the number of distance computations spent on index
	// construction.
	buildCalls int64
	// verifier handles candidate generation + verification (step 5).
	verifier *verifier[E]
	// linear is set when the backend is IndexLinearScan; the incremental
	// filter kernels need direct access to the window slice.
	linear *metric.LinearScan[seq.Window[E]]
	// net/ct/mv are the typed backend handles behind mt.index — the index
	// lifecycle (lifecycle.go) needs backend-specific operations (tracked
	// deletes, row removal, serialisation) the windowIndex face does not
	// carry. Exactly one is non-nil, matching cfg.Index.
	net *refnet.Net[seq.Window[E]]
	ct  *covertree.Tree[seq.Window[E]]
	mv  *refindex.Index[seq.Window[E]]
	// tracked maps each indexed window to its refnet node handle so
	// RetireSequence can Delete without searching (refnet backend only).
	tracked map[winKey]*refnet.Node[seq.Window[E]]
	// scratch pools per-query filter state (segment, probe and hit slices)
	// so concurrent queries allocate nothing per segment.
	scratch sync.Pool
	// batchCalls/batchQueries count *Batch method calls and the queries
	// they carried, surfaced on /stats.
	batchCalls   atomic.Int64
	batchQueries atomic.Int64

	// prepared holds, per indexed window, the shared immutable half of the
	// measure's incremental kernel (Myers peq tables, edit base rows),
	// shared by every concurrent worker — the O(windows) half of the
	// kernel memory split. Slots are built lazily on first touch (per-slot
	// sync.Once), so a selective serving workload pays preprocessing only
	// for the windows its traversals actually visit; preparedOnce guards
	// the cheap slot-array and window→slot map construction. winIndex maps
	// a window back to its slot. See preparedAt (kerneleval.go).
	// Slots are pointers so the lifecycle paths (lifecycle.go) can grow and
	// compact the array without copying the per-slot sync.Once.
	preparedOnce sync.Once
	prepared     []*preparedSlot[E]
	winIndex     map[winKey]int32
}

// filterScratch is the reusable per-query working set of the filter steps.
type filterScratch[E any] struct {
	segs   []seq.Segment[E]
	probes []seq.Window[E]
	hits   []Hit[E]
	// perSeg collects, on the incremental-kernel path, the windows hit by
	// each segment so results can be emitted in the same segment-major
	// order as the plain path.
	perSeg [][]seq.Window[E]
	// kstate is the per-worker mutable half of the incremental kernels:
	// a single state, rebound window to window against the matcher's
	// shared prepared tables. Kernel state is single-threaded, so it lives
	// in the scratch (one per concurrent query); the immutable window
	// preprocessing it points at is shared matcher-wide.
	kstate dist.Kernel[E]
	// keval is the grouped kernel evaluator driving kernel-aware index
	// traversals (refnet sessions); it owns its own kernel state. next and
	// pos are the index buffers of the probe layout a session is opened over
	// (openSession, kerneleval.go).
	keval     kernelEvaluator[E]
	next, pos []int32
}

func (mt *Matcher[E]) getScratch() *filterScratch[E] {
	if sc, ok := mt.scratch.Get().(*filterScratch[E]); ok {
		return sc
	}
	return &filterScratch[E]{}
}

func (mt *Matcher[E]) putScratch(sc *filterScratch[E]) { mt.scratch.Put(sc) }

// NewMatcher builds a matcher over db: it validates the configuration,
// partitions every database sequence into windows of length λ/2 (step 1)
// and builds the window index (step 2).
func NewMatcher[E any](m dist.Measure[E], cfg Config, db []seq.Sequence[E]) (*Matcher[E], error) {
	cfg.defaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := validateMeasure(m, cfg); err != nil {
		return nil, err
	}
	mt := &Matcher[E]{
		measure: m,
		cfg:     cfg,
		db:      db,
		windows: seq.PartitionAll(db, cfg.Params.WindowLen()),
	}
	mt.counter = metric.NewCounter(func(a, b seq.Window[E]) float64 {
		return m.Fn(a.Data, b.Data)
	})
	windowDist := mt.counter.Distance
	switch cfg.Index {
	case IndexRefNet:
		net := refnet.New(windowDist, refnet.WithBase(cfg.Base), refnet.WithMaxParents(cfg.MaxParents))
		if m.Bounded != nil {
			// Arm the eps+ρ early-abandoning traversal: probes prove
			// subtrees outside the query ball at a fraction of a full
			// evaluation (results are unchanged; see refnet.SetBounded).
			bounded := m.Bounded
			net.SetBounded(mt.counter.CountBounded(
				func(a, b seq.Window[E], eps float64) float64 {
					return bounded(a.Data, b.Data, eps)
				}))
		}
		mt.tracked = make(map[winKey]*refnet.Node[seq.Window[E]], len(mt.windows))
		for _, w := range mt.windows {
			mt.tracked[winKey{w.SeqID, w.Ord}] = net.InsertTracked(w)
		}
		mt.index = net
		mt.net = net
	case IndexCoverTree:
		ct := covertree.New(windowDist, cfg.Base)
		for _, w := range mt.windows {
			ct.Insert(w)
		}
		mt.index = ct
		mt.ct = ct
	case IndexMV:
		if len(mt.windows) == 0 {
			return nil, fmt.Errorf("core: MV index requires a non-empty database")
		}
		mv, err := refindex.Build(mt.windows, cfg.MVRefs, windowDist, refindex.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		mt.index = mv
		mt.mv = mv
	case IndexLinearScan:
		ls := metric.NewLinearScan(windowDist)
		if m.Bounded != nil {
			// Thread the query radius into the distance kernel: an
			// early-abandoned comparison still counts as one distance
			// computation, but costs a fraction of the cells.
			bounded := m.Bounded
			ls.SetBounded(mt.counter.CountBounded(
				func(a, b seq.Window[E], eps float64) float64 {
					return bounded(a.Data, b.Data, eps)
				}))
		}
		for _, w := range mt.windows {
			ls.Insert(w)
		}
		mt.index = ls
		mt.linear = ls
	default:
		return nil, fmt.Errorf("core: unknown index kind %v", cfg.Index)
	}
	mt.buildCalls = mt.counter.Calls()
	mt.counter.Reset()
	mt.verifier = newVerifier(m, cfg.Params, db)
	return mt, nil
}

// Params returns the matcher's framework parameters.
func (mt *Matcher[E]) Params() Params { return mt.cfg.Params }

// NumWindows reports how many database windows are indexed.
func (mt *Matcher[E]) NumWindows() int { return len(mt.windows) }

// Windows exposes the indexed windows (shared slice; do not mutate).
func (mt *Matcher[E]) Windows() []seq.Window[E] { return mt.windows }

// BuildDistanceCalls reports the distance computations spent building the
// index (offline cost).
func (mt *Matcher[E]) BuildDistanceCalls() int64 { return mt.buildCalls }

// FilterDistanceCalls reports the distance computations spent by the index
// on queries since the last ResetFilterCalls — the quantity Figures 8–11 of
// the paper compare against a full scan. An early-abandoned bounded
// evaluation counts as one computation; a streamed kernel pass pricing a
// whole group of same-offset probes also counts as one (it costs one
// longest-member evaluation), which is how the kernel-fed refnet traversal
// drops below one counted evaluation per probe.
func (mt *Matcher[E]) FilterDistanceCalls() int64 { return mt.counter.Calls() }

// ResetFilterCalls zeroes the query-side distance counter.
func (mt *Matcher[E]) ResetFilterCalls() { mt.counter.Reset() }

// BatchCalls reports how many FilterHitsBatch, FindAllBatch and
// LongestBatch calls ran.
func (mt *Matcher[E]) BatchCalls() int64 { return mt.batchCalls.Load() }

// BatchQueries reports the total queries those calls carried.
func (mt *Matcher[E]) BatchQueries() int64 { return mt.batchQueries.Load() }

// VerifyDistanceCalls reports the distance evaluations spent in
// verification (step 5) since the matcher was built, counted in passes: one
// per (query start, database start) pair the verifier ran a kernel pass
// for — a pass costs one DP over that pair's longest candidate and prices
// every candidate end on the way, the convention FilterDistanceCalls uses
// for kernel passes. A measure without an incremental kernel (Prepare nil)
// is counted per Fn call instead, one per distinct candidate.
func (mt *Matcher[E]) VerifyDistanceCalls() int64 { return mt.verifier.calls.Load() }

// FilterHits runs the online filtering steps (3–4): it extracts every
// query segment of length λ/2−λ0 … λ/2+λ0 and range-queries the window
// index with each, returning all segment↔window pairs within eps. By
// Lemma 3, windows absent from the hit list cannot participate in any
// similar pair, which is what caps the framework at O(|Q||X|) segment
// comparisons.
func (mt *Matcher[E]) FilterHits(q seq.Sequence[E], eps float64) []Hit[E] {
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	hits := mt.filterHits(q, eps, sc)
	if len(hits) == 0 {
		return nil
	}
	out := make([]Hit[E], len(hits))
	copy(out, hits)
	return out
}

// filterHits is FilterHits into pooled scratch: the returned slice aliases
// sc.hits and is valid until the scratch is reused. The internal query
// paths (FindAll, Longest, Nearest) consume the hits
// before returning the scratch, so steady-state queries allocate neither
// probe windows nor hit slices.
func (mt *Matcher[E]) filterHits(q seq.Sequence[E], eps float64, sc *filterScratch[E]) []Hit[E] {
	sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0)
	sc.hits = sc.hits[:0]
	if len(sc.segs) == 0 {
		return nil
	}
	// The incremental kernel prices all segment lengths at one start for a
	// single pass over the window; it pays off exactly when there is more
	// than one length (λ0 > 0 — with a single length the bounded scan's
	// early abandoning is the better linear-backend kernel).
	if mt.linear != nil && mt.kernelTraversal() {
		return mt.filterHitsIncremental(q, eps, sc)
	}
	if mt.net != nil {
		s := mt.openSession(q, sc)
		defer s.Close()
		return mt.sessionHits(s, eps, sc)
	}
	for _, s := range sc.segs {
		for _, w := range mt.index.Range(probeOf(s), eps) {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: s})
		}
	}
	return sc.hits
}

// probeOf is the index probe of a query segment: a window that belongs to
// no database sequence.
func probeOf[E any](s seq.Segment[E]) seq.Window[E] {
	return seq.Window[E]{SeqID: -1, Start: s.Start, Data: s.Data}
}

// sessionHits reads the session opened over sc.segs as a range query at eps
// and returns the hits segment-major, as on every path.
func (mt *Matcher[E]) sessionHits(s *refnet.Session[seq.Window[E]], eps float64, sc *filterScratch[E]) []Hit[E] {
	sc.hits = sc.hits[:0]
	results := s.Range(eps)
	for i, seg := range sc.segs {
		for _, w := range results[sc.pos[i]] {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: seg})
		}
	}
	return sc.hits
}

// filterHitsIncremental is the linear-backend filter driven by the
// measure's incremental kernel (kernelScan). Results are bucketed per
// segment and flattened segment-major so the hit order matches the plain
// path exactly.
func (mt *Matcher[E]) filterHitsIncremental(q seq.Sequence[E], eps float64, sc *filterScratch[E]) []Hit[E] {
	segs := sc.segs
	for len(sc.perSeg) < len(segs) {
		sc.perSeg = append(sc.perSeg, nil)
	}
	perSeg := sc.perSeg[:len(segs)]
	for i := range perSeg {
		perSeg[i] = perSeg[i][:0]
	}
	mt.kernelScan(q, eps, sc, perSeg)
	for i, wins := range perSeg {
		for _, w := range wins {
			sc.hits = append(sc.hits, Hit[E]{Window: w, Segment: segs[i]})
		}
	}
	return sc.hits
}

// kernelScan is the linear backend's pass over every (window, query offset)
// pair under the measure's incremental kernel (ROADMAP: per-measure
// window-distance evaluation across overlapping segments). For every
// database window it binds one kernel and, per query offset, streams the
// λ/2+λ0 elements once, reading off the distance of every segment length on
// the way — 2λ0+1 segment evaluations for one pass instead of 2λ0+1
// independent DPs.
//
// It is read two ways, like the net's traversal. With perSeg it is the
// range filter: perSeg[i] collects the windows within eps of segment i. With
// perSeg nil it returns the least segment-to-window distance if that is at
// most eps, +Inf otherwise: eps is then a bound that drops to just under
// every distance found, and a pass stops once the kernel's Floor proves no
// longer segment can come back under it.
//
// Distance accounting matches the plain path: one counted evaluation per
// segment↔window pair of a pass, read or abandoned.
func (mt *Matcher[E]) kernelScan(q seq.Sequence[E], eps float64, sc *filterScratch[E], perSeg [][]seq.Window[E]) float64 {
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
	offsets := make([]int, maxLen-minLen+1)
	for n, off := minLen+1, 0; n <= maxLen; n++ {
		off += len(q) - (n - 1) + 1
		offsets[n-minLen] = off
	}
	items := mt.linear.Items()
	// The immutable window preprocessing is shared matcher-wide; this
	// worker carries one kernel state and rebinds it window to window, so
	// steady-state kernel memory is O(windows), not O(windows × workers).
	// The linear scan touches every window per query, so the lazy slots
	// all fill on the first query and later queries read them for free.
	mt.preparedInit()
	best := math.Inf(1)
	var evals int64
	for wi, w := range items {
		sc.kstate = dist.BindKernel(sc.kstate, mt.preparedAt(int32(wi)))
		k := sc.kstate
		for a := 0; a+minLen <= len(q); a++ {
			k.Reset()
			top := maxLen
			if a+top > len(q) {
				top = len(q) - a
			}
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
					perSeg[offsets[n-minLen]+a] = append(perSeg[offsets[n-minLen]+a], w)
				}
			}
			evals += int64(top - minLen + 1)
		}
	}
	mt.counter.Add(evals)
	return best
}

// minDist is ε₀ on the backends without a session: the least distance
// between any segment in sc.segs and any indexed window if that is at most
// epsMax, +Inf otherwise. The linear scan with a kernel reads it off
// kernelScan. The others range-query each segment at the best distance so
// far and price what comes back through the counted distance, so the radius
// shrinks from segment to segment.
func (mt *Matcher[E]) minDist(q seq.Sequence[E], epsMax float64, sc *filterScratch[E]) float64 {
	if mt.linear != nil && mt.kernelTraversal() {
		return mt.kernelScan(q, epsMax, sc, nil)
	}
	best, bound := math.Inf(1), epsMax
	for _, s := range sc.segs {
		if bound < 0 {
			break
		}
		probe := probeOf(s)
		for _, w := range mt.index.Range(probe, bound) {
			if d := mt.counter.Distance(probe, w); d <= bound {
				best, bound = d, math.Nextafter(d, math.Inf(-1))
			}
		}
	}
	return best
}

// FindAll answers query Type I: it returns every pair of similar
// subsequences reachable from the per-hit candidate regions of Section 7 —
// pairs (SQ, SX) with |SQ| ≥ λ, |SX| ≥ λ, ||SQ|−|SX|| ≤ λ0 and
// δ(SQ,SX) ≤ eps. As in the paper, each hit's candidate region bounds the
// enumerated supersequences (SX start within λ/2 before its window, end
// within λ/2+λ/2 after, and correspondingly for SQ), so arbitrarily long
// matches are the domain of Longest (Type II); completeness is exact for
// pair lengths up to λ.
func (mt *Matcher[E]) FindAll(q seq.Sequence[E], eps float64) []Match {
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	hits := mt.filterHits(q, eps, sc)
	return mt.verifier.verifyAll(q, hits, eps)
}

// Longest answers query Type II: among all similar pairs at radius eps it
// returns one maximising the query subsequence length |SQ|. It concatenates
// hits on consecutive windows into chains, then verifies candidates from
// the longest chain downwards, as in Section 7. The boolean reports whether
// any similar pair exists.
func (mt *Matcher[E]) Longest(q seq.Sequence[E], eps float64) (Match, bool) {
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	hits := mt.filterHits(q, eps, sc)
	return mt.verifier.verifyLongest(q, hits, eps)
}

// NearestOptions tunes Nearest (query Type III).
type NearestOptions struct {
	// EpsMax is the largest radius considered: a pair farther apart than
	// EpsMax is never returned, and if no pair exists within it Nearest
	// reports not found.
	EpsMax float64
	// EpsInc is the paper's ǫ_inc: the resolution of the radius search and
	// the radius increment between verification rounds. Choose a small
	// fraction of typical pairwise distances.
	EpsInc float64
}

// Nearest answers query Type III: it returns a pair minimising δ(SQ,SX)
// subject to the length constraints, if one exists within EpsMax.
//
// Section 7 binary-searches the least radius at which the filter produces
// any segment hit, then verifies, enlarging the radius by EpsInc until a
// pair is confirmed. Every probe of that search asks whether its radius
// reaches ε₀, the least distance between any query segment and any window —
// so ε₀ is found once, by one nearest-neighbour search capped at EpsMax
// (refnet.Session.MinDist on the net, minDist elsewhere), and the bisection
// is replayed on that number with the arithmetic it always had: the radius
// it ends at is bit for bit the one a filter run per probe would give.
//
// The verification rounds then run at that radius, +EpsInc, +2·EpsInc, …,
// each clamped to EpsMax, and end with the first round that confirms a pair
// or with the round at EpsMax. On the net they are Range reads of the
// session MinDist ran on, which evaluates no (segment, window) pair twice
// over the whole query; on the other backends each is a filter run.
func (mt *Matcher[E]) Nearest(q seq.Sequence[E], opts NearestOptions) (Match, bool) {
	if opts.EpsMax <= 0 || opts.EpsInc <= 0 {
		return Match{}, false
	}
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0)
	if len(sc.segs) == 0 {
		return Match{}, false
	}
	var eps0 float64
	var round func(eps float64) []Hit[E]
	if mt.net != nil {
		s := mt.openSession(q, sc)
		defer s.Close()
		eps0 = s.MinDist(opts.EpsMax)
		round = func(eps float64) []Hit[E] { return mt.sessionHits(s, eps, sc) }
	} else {
		eps0 = mt.minDist(q, opts.EpsMax, sc)
		round = func(eps float64) []Hit[E] { return mt.filterHits(q, eps, sc) }
	}
	if eps0 > opts.EpsMax {
		return Match{}, false
	}
	lo, hi := 0.0, opts.EpsMax
	if eps0 <= 0 {
		hi = 0
	}
	for hi-lo > opts.EpsInc {
		if mid := lo + (hi-lo)/2; eps0 <= mid {
			hi = mid
		} else {
			lo = mid
		}
	}
	for eps := hi; ; eps += opts.EpsInc {
		eps = min(eps, opts.EpsMax)
		if best, ok := mt.verifier.verifyNearest(q, round(eps), eps); ok {
			return best, true
		}
		if eps == opts.EpsMax {
			return Match{}, false
		}
	}
}
