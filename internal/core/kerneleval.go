package core

import (
	"slices"
	"sync"

	"repro/internal/dist"
	"repro/internal/seq"
)

// Kernel-fed index traversal (ROADMAP: kernel-aware metric-index traversal
// below one-evaluation-per-probe).
//
// The filter's probes are query segments, and segments that share a start
// offset differ only in length: q[a:a+L] for L = λ/2−λ0 … λ/2+λ0. When the
// reference net's traversal needs the distances from several such probes to
// one database window, a single incremental-kernel pass prices all of them
// — bind the window's kernel, feed the longest member's elements, and read
// the distance off at every member length. kernelEvaluator implements the
// BatchEvaluator hook of a refnet session with exactly that grouping,
// turning up to 2λ0+1 probe evaluations per (node, offset) into one streamed
// evaluation plus O(1) reads.
//
// Memory discipline mirrors the linear backend: the immutable window
// preprocessing (dist.Prepared — Myers peq tables, edit base rows) is built
// lazily, once per window on first touch, and shared matcher-wide
// (preparedAt), while each evaluator carries a single rebindable kernel
// state. Steady-state kernel memory is therefore O(touched windows) +
// O(concurrent evaluators), never O(windows × workers) — and a selective
// workload never pays for windows its traversals skip.

// preparedSlot is one window's share of the prepared-table array: the
// preprocessing plus the once that builds it on first touch. Building
// lazily matters for serving workloads — a selective query stream over a
// large index touches a sliver of the windows, and eager construction
// would pay O(windows) preprocessing (Myers peq tables are ~2KB per
// 64-byte window) at the first query.
type preparedSlot[E any] struct {
	once sync.Once
	p    dist.Prepared[E]
}

// preparedInit builds, once per matcher, the empty slot array and the
// window→slot map (keyed like the verifier's winKey, by sequence and
// ordinal) — no Prepare calls happen here; slots fill on first touch.
// Requires measure.Prepare != nil.
func (mt *Matcher[E]) preparedInit() {
	mt.preparedOnce.Do(func() {
		mt.prepared = make([]*preparedSlot[E], len(mt.windows))
		for i := range mt.prepared {
			mt.prepared[i] = &preparedSlot[E]{}
		}
		index := make(map[winKey]int32, len(mt.windows))
		for i, w := range mt.windows {
			index[winKey{w.SeqID, w.Ord}] = int32(i)
		}
		mt.winIndex = index
	})
}

// preparedAt resolves slot i, building its preprocessing on first touch.
// Safe for concurrent use: the winning goroutine builds, the rest wait on
// the slot's once and read the published value.
func (mt *Matcher[E]) preparedAt(i int32) dist.Prepared[E] {
	s := mt.prepared[i]
	s.once.Do(func() { s.p = mt.measure.Prepare(mt.windows[i].Data) })
	return s.p
}

// preparedFor resolves the shared preprocessing of an indexed window.
func (mt *Matcher[E]) preparedFor(w seq.Window[E]) dist.Prepared[E] {
	mt.preparedInit()
	return mt.preparedAt(mt.winIndex[winKey{w.SeqID, w.Ord}])
}

// kernelTraversal reports whether index traversals should evaluate probes
// through grouped incremental kernels: the measure must carry Prepare, and
// there must be more than one segment length per offset to group (λ0 > 0 —
// with a single length a kernel pass equals a plain evaluation).
func (mt *Matcher[E]) kernelTraversal() bool {
	return mt.measure.Prepare != nil && mt.cfg.Params.Lambda0 > 0
}

// freePass is the free-start half of a pooled filter scratch: a second
// kernel state, fed through FeedFree, and the bounds its last pass left. It
// is what lets the filter price a window against a whole stretch of the
// query at once — offset a+1 shares all but one element with offset a, so
// one pass over q[lo:hi] with the start left free gives, at every end e, a
// lower bound on the segments of every start and length that end there, and
// only the offsets that bound cannot rule out earn an exact pass.
type freePass[E any] struct {
	// k is nil when the measure's kernel has no free-start mode (asked once,
	// of the first window a session is opened over: known).
	k     dist.FreeStartKernel[E]
	known bool
	lower []float64
}

// open resolves, the first time the scratch meets a non-empty index, whether
// the measure's kernel has the mode.
func (f *freePass[E]) open(mt *Matcher[E]) {
	if !f.known && len(mt.windows) > 0 {
		mt.preparedInit()
		f.k, f.known = dist.BindFreeStart(nil, mt.preparedAt(0)), true
	}
}

// run feeds q to the free-start kernel over p's window and returns lower,
// where lower[n] = min over 0 ≤ s ≤ n of δ(q[s:n], w) for every 1 ≤ n ≤
// len(q) (lower[0] is not set); nil when the kernel has no such mode. The
// slice is valid until the next run.
func (f *freePass[E]) run(p dist.Prepared[E], q []E) []float64 {
	if f.k == nil {
		return nil
	}
	if f.k = dist.BindFreeStart(f.k, p); f.k == nil {
		return nil
	}
	f.lower = slices.Grow(f.lower[:0], len(q)+1)[:len(q)+1]
	for n, x := range q {
		f.lower[n+1] = f.k.FeedFree(x)
	}
	return f.lower
}

// kernelEvaluator implements metric.BatchEvaluator over segment probes by
// streaming each probe group — probes sharing a query offset — through the
// target window's shared incremental kernel. It lives in the pooled filter
// scratch, so each concurrent traversal owns one kernel state (and the
// scratch's free-start state). Each EvalBatch adds one filter distance
// evaluation per kernel pass to the query's record, the pre-pass included
// (an exact pass costs one longest-member evaluation), which is what makes
// the refnet filter's counted cost drop below one evaluation per probe.
//
// probes must be ordered offset-major — by (Start, length), as
// filterScratch.offsetMajorProbes lays them out. The traversal hands every
// node its probe indices ascending (refnet.OpenSession), so each idxs
// then arrives already grouped by offset, shortest member first, and
// EvalBatch only walks the runs: nothing is sorted per visited node. In a
// session traversed more than once (Nearest) a run may arrive without the
// members an earlier traversal priced against this node; the pass then runs
// to the longest member that is left.
type kernelEvaluator[E any] struct {
	mt     *Matcher[E]
	q      seq.Sequence[E]
	probes []seq.Window[E]
	state  dist.Kernel[E]
	sc     *filterScratch[E] // its free-start pass and cost record
}

// open points the evaluator at one query's probes, laid out in sc.
func (ev *kernelEvaluator[E]) open(mt *Matcher[E], q seq.Sequence[E], sc *filterScratch[E]) {
	sc.free.open(mt)
	ev.mt, ev.q, ev.probes, ev.sc = mt, q, sc.probes, sc
}

// Exact is false once there is a pre-pass: what it writes for a run it rules
// out is a proof that the run is over bound, not a distance.
func (ev *kernelEvaluator[E]) Exact() bool { return ev.sc.free.k == nil }

// EvalBatch prices the runs in idxs against item. With more than one run
// pending it first runs one free-start pass from the lowest pending start to
// the largest pending end: a run whose members' ends are all bounded over
// bound is written as those bounds and costs nothing more — what an
// abandoned Bounded evaluation tells the traversal — and only the runs left
// stream their exact pass. A lone run's exact pass (its longest member) is
// shorter than any pre-pass, so it goes straight to it.
func (ev *kernelEvaluator[E]) EvalBatch(item seq.Window[E], idxs []int32, bound float64, out []float64) {
	p, probes := ev.mt.preparedFor(item), ev.probes
	var lower []float64
	lo := probes[idxs[0]].Start
	if probes[idxs[len(idxs)-1]].Start != lo {
		// The pass must reach the largest end, not the last run's: a run with
		// a smaller start can end later when members are missing.
		hi := lo
		for _, i := range idxs {
			hi = max(hi, probes[i].End())
		}
		if lower = ev.sc.free.run(p, ev.q[lo:hi]); lower != nil {
			ev.sc.cost.filter++
		}
	}
	for s := 0; s < len(idxs); {
		start := probes[idxs[s]].Start
		e := s + 1
		for e < len(idxs) && probes[idxs[e]].Start == start {
			e++
		}
		k := s
		if lower != nil {
			for k < e {
				if out[k] = lower[probes[idxs[k]].End()-lo]; out[k] <= bound {
					break
				}
				k++
			}
		}
		if k < e {
			// One streamed pass prices the whole run: every member is a
			// prefix of the last (longest) member's data.
			ev.state = dist.BindKernel(ev.state, p)
			longest := probes[idxs[e-1]].Data
			k = s
			for n := 1; n <= len(longest); n++ {
				d := ev.state.Feed(longest[n-1])
				for k < e && len(probes[idxs[k]].Data) == n {
					out[k] = d
					k++
				}
			}
			ev.sc.cost.filter++
		}
		s = e
	}
}

// offsetMajorProbes lays the segments out as index probes ordered by
// (Start, length) into sc.probes and returns pos, where pos[i] is the probe
// position of segs[i] — the inverse the caller emits hits through to keep
// them segment-major. segs arrive length-major (seq.AppendSegments), so a
// stable counting sort on Start alone leaves each offset's members shortest
// first. Both index buffers are pooled in the scratch.
func (sc *filterScratch[E]) offsetMajorProbes(segs []seq.Segment[E], qlen int) (pos []int32) {
	sc.next = slices.Grow(sc.next[:0], qlen+1)[:qlen+1]
	sc.pos = slices.Grow(sc.pos[:0], len(segs))[:len(segs)]
	sc.probes = slices.Grow(sc.probes[:0], len(segs))[:len(segs)]
	next, pos := sc.next, sc.pos
	clear(next)
	for _, s := range segs {
		next[s.Start+1]++
	}
	for a := 1; a <= qlen; a++ {
		next[a] += next[a-1]
	}
	for i, s := range segs {
		j := next[s.Start]
		next[s.Start]++
		pos[i] = j
		sc.probes[j] = probeOf(s)
	}
	return pos
}
