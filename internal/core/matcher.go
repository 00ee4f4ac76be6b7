package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/metric"
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

// Matcher is the subsequence-retrieval engine. Construct with NewMatcher,
// which runs the two offline steps (dataset windowing, index construction);
// the query methods FindAll, Longest and Nearest run the online steps.
// A Matcher is safe for concurrent queries.
type Matcher[E any] struct {
	measure dist.Measure[E]
	cfg     Config
	db      []seq.Sequence[E]
	windows []seq.Window[E]
	// index is the window index behind the backend contract (backend.go):
	// the one thing the query and lifecycle paths know about it.
	index backend[E]

	// counter wraps the window distance the index stores. Queries price
	// through their own scratch (filterScratch.cost), so only construction
	// and mutation call it and its count is the build count.
	counter *metric.Counter[seq.Window[E]]
	// filterCalls and verifyCalls total the cost records of the queries
	// that have finished.
	filterCalls, verifyCalls atomic.Int64
	// verifier handles candidate generation + verification (step 5).
	verifier *verifier[E]
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

// cost is one query's distance evaluations, in the units of
// FilterDistanceCalls and VerifyDistanceCalls: one per kernel pass, and one
// per Fn or Bounded call where no kernel prices.
type cost struct{ filter, verify int64 }

// filterScratch is the reusable per-query working set of the filter steps.
type filterScratch[E any] struct {
	// cost is the query's record, which putScratch adds to the totals. fn
	// and bounded (nil without m.Bounded) are the window distances counted
	// into it; deval prices the net's probes through them without a kernel.
	cost    cost
	fn      metric.DistFunc[seq.Window[E]]
	bounded metric.BoundedDistFunc[seq.Window[E]]
	deval   refnet.DistEvaluator[seq.Window[E]]

	segs   []seq.Segment[E]
	probes []seq.Window[E]
	hits   []Hit[E]
	// perSeg collects, on the kernel linear scan, the windows hit by each
	// segment so results can be emitted in the same segment-major order as
	// every other path.
	perSeg [][]seq.Window[E]
	// kstate is the per-worker mutable half of the incremental kernels:
	// a single state, rebound window to window against the matcher's
	// shared prepared tables. Kernel state is single-threaded, so it lives
	// in the scratch (one per concurrent query); the immutable window
	// preprocessing it points at is shared matcher-wide.
	kstate dist.Kernel[E]
	// free is the free-start pre-pass of whichever kernel consumer the
	// query's session is: the net's evaluator or the kernel scan.
	free freePass[E]
	// keval is the grouped kernel evaluator driving kernel-aware index
	// traversals (refnet sessions); it owns its own kernel state. next and
	// pos are the index buffers of the probe layout a session is opened over
	// (netBackend.open); the kernel scan keeps its segment offsets in next.
	keval     kernelEvaluator[E]
	next, pos []int32
	// The query's session lives in the one of these its backend's form
	// uses, so opening it allocates nothing.
	netSession   netSession[E]
	rangeSession rangeSession[E]
	scanSession  scanSession[E]
}

func (mt *Matcher[E]) getScratch() *filterScratch[E] {
	if sc, ok := mt.scratch.Get().(*filterScratch[E]); ok {
		return sc
	}
	sc, m := &filterScratch[E]{}, mt.measure
	sc.fn = func(a, b seq.Window[E]) float64 {
		sc.cost.filter++
		return m.Fn(a.Data, b.Data)
	}
	if m.Bounded != nil {
		sc.bounded = func(a, b seq.Window[E], eps float64) float64 {
			sc.cost.filter++
			return m.Bounded(a.Data, b.Data, eps)
		}
	}
	return sc
}

// putScratch ends the query: its cost record goes to the totals, one atomic
// add each, and the scratch back to the pool.
func (mt *Matcher[E]) putScratch(sc *filterScratch[E]) {
	mt.filterCalls.Add(sc.cost.filter)
	mt.verifyCalls.Add(sc.cost.verify)
	sc.cost = cost{}
	mt.scratch.Put(sc)
}

// NewMatcher builds a matcher over db: it validates the configuration,
// partitions every database sequence into windows of length λ/2 (step 1)
// and builds the window index (step 2).
func NewMatcher[E any](m dist.Measure[E], cfg Config, db []seq.Sequence[E]) (*Matcher[E], error) {
	return newMatcher(m, cfg, db, buildBackend[E])
}

// newMatcher is everything NewMatcher and NewMatcherFromSavedIndex share,
// which is everything but where the index comes from: index builds or
// restores it over mt.windows through mt.counter.
func newMatcher[E any](m dist.Measure[E], cfg Config, db []seq.Sequence[E],
	index func(*Matcher[E]) (backend[E], error)) (*Matcher[E], error) {
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
	var err error
	if mt.index, err = index(mt); err != nil {
		return nil, err
	}
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
// index (offline cost) and on every append and retire since, an append the
// index refused included. A restored matcher starts at zero: decoding
// computes no distances.
func (mt *Matcher[E]) BuildDistanceCalls() int64 { return mt.counter.Calls() }

// FilterDistanceCalls reports the distance computations spent by the index
// on queries since the last ResetFilterCalls — the quantity Figures 8–11 of
// the paper compare against a full scan. An early-abandoned bounded
// evaluation counts as one computation; a streamed kernel pass pricing a
// whole group of same-offset probes also counts as one (it costs one
// longest-member evaluation), and so does the free-start pass that bounds
// every group at a node, or every offset against a window on the kernel
// scan — which is how the kernel-fed filters drop below one counted
// evaluation per probe. A query's evaluations land when it finishes.
func (mt *Matcher[E]) FilterDistanceCalls() int64 { return mt.filterCalls.Load() }

// ResetFilterCalls zeroes the query-side filter total.
func (mt *Matcher[E]) ResetFilterCalls() { mt.filterCalls.Store(0) }

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
func (mt *Matcher[E]) VerifyDistanceCalls() int64 { return mt.verifyCalls.Load() }

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
// paths (FindAll, Longest) consume the hits before returning the scratch, so
// steady-state queries allocate neither probe windows nor hit slices.
func (mt *Matcher[E]) filterHits(q seq.Sequence[E], eps float64, sc *filterScratch[E]) []Hit[E] {
	s := mt.openQuery(q, sc)
	if s == nil {
		return nil
	}
	defer s.close()
	return s.hits(eps)
}

// openQuery extracts q's segments into sc and opens the query's session on
// the index over them; nil when q is too short to have a segment. The
// caller closes the session.
func (mt *Matcher[E]) openQuery(q seq.Sequence[E], sc *filterScratch[E]) session[E] {
	sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0)
	if len(sc.segs) == 0 {
		return nil
	}
	return mt.index.open(q, sc)
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
	return mt.verifier.verifyAll(q, hits, eps, &sc.cost)
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
	return mt.verifier.verifyLongest(q, hits, eps, &sc.cost)
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

// MaxNearestSteps is the largest EpsMax/EpsInc a Type III query may ask for:
// the number of verification rounds between radius 0 and EpsMax, and 2 to
// the number of bisection steps. The serving and CLI default is
// EpsMax/16 (DefaultNearestOptions); a caller may ask for any EpsInc down
// to EpsMax/MaxNearestSteps, and the tests do.
const MaxNearestSteps = 1 << 12

// DefaultNearestOptions is the Type III schedule for a caller that names
// only EpsMax — what serve and subseqctl run when no eps_inc is given:
// EpsInc = EpsMax/16, so at most 16 verification rounds.
func DefaultNearestOptions(epsMax float64) NearestOptions {
	return NearestOptions{EpsMax: epsMax, EpsInc: epsMax / 16}
}

// The errors NearestOptions.Validate returns.
var (
	ErrNearestEpsNotPositive = errors.New("core: nearest: EpsMax and EpsInc must be > 0")
	ErrNearestEpsIncTooSmall = fmt.Errorf("core: nearest: EpsInc must be at least EpsMax/%d", MaxNearestSteps)
)

// Validate reports whether the options describe a radius schedule Nearest
// can run: both radii positive, and EpsInc no finer than EpsMax /
// MaxNearestSteps. Below that the schedule is unbounded work in one call —
// 10⁹ rounds at EpsMax/EpsInc = 10⁹ — and under one ulp of the radius
// (eps + EpsInc == eps) it never ends.
func (o NearestOptions) Validate() error {
	if !(o.EpsMax > 0 && o.EpsInc > 0) {
		return ErrNearestEpsNotPositive
	}
	if !(o.EpsMax/o.EpsInc <= MaxNearestSteps) {
		return ErrNearestEpsIncTooSmall
	}
	return nil
}

// Nearest answers query Type III: it returns a pair minimising δ(SQ,SX)
// subject to the length constraints, if one exists within EpsMax. Options
// that do not Validate find nothing.
//
// Section 7 binary-searches the least radius at which the filter produces
// any segment hit, then verifies, enlarging the radius by EpsInc until a
// pair is confirmed. Every probe of that search asks whether its radius
// reaches ε₀, the least distance between any query segment and any window —
// so ε₀ is found once, by one nearest-neighbour search capped at EpsMax (the
// session's minDist), and the bisection is replayed on that number with the
// arithmetic it always had: the radius it ends at is bit for bit the one a
// filter run per probe would give.
//
// The verification rounds then run at that radius, +EpsInc, +2·EpsInc, …,
// each clamped to EpsMax, and end with the first round that confirms a pair
// or with the round at EpsMax. Each is a hits read of the session minDist
// ran on. On the net the rounds are one continued traversal: the first
// walks from the root, and each wider one goes on from the frontier the
// last one left, taking up only the pairs whose lower bound the new radius
// reaches — no exact distance is computed twice and no settled pair is
// walked again (a proof may be followed by one exact pass under a bound it
// no longer exceeds). The other session forms run the filter again.
func (mt *Matcher[E]) Nearest(q seq.Sequence[E], opts NearestOptions) (Match, bool) {
	if opts.Validate() != nil {
		return Match{}, false
	}
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	s := mt.openQuery(q, sc)
	if s == nil {
		return Match{}, false
	}
	defer s.close()
	eps0 := s.minDist(opts.EpsMax)
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
		if best, ok := mt.verifier.verifyNearest(q, s.hits(eps), eps, &sc.cost); ok {
			return best, true
		}
		if eps == opts.EpsMax {
			return Match{}, false
		}
	}
}
