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

// kernelEvaluator implements metric.BatchEvaluator over segment probes by
// streaming each probe group — probes sharing a query offset — through the
// target window's shared incremental kernel. It lives in the pooled filter
// scratch, so each concurrent traversal owns one kernel state. Each
// EvalBatch counts one filter distance evaluation per kernel pass (a pass
// costs one longest-member evaluation), which is what makes the refnet
// filter's counted cost drop below one evaluation per probe.
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
	probes []seq.Window[E]
	state  dist.Kernel[E]
}

func (ev *kernelEvaluator[E]) Exact() bool { return true }

func (ev *kernelEvaluator[E]) EvalBatch(item seq.Window[E], idxs []int32, _ float64, out []float64) {
	p := ev.mt.preparedFor(item)
	var passes int64
	for s := 0; s < len(idxs); {
		start := ev.probes[idxs[s]].Start
		e := s + 1
		for e < len(idxs) && ev.probes[idxs[e]].Start == start {
			e++
		}
		// One streamed pass prices the whole run: every member is a prefix
		// of the last (longest) member's data.
		ev.state = dist.BindKernel(ev.state, p)
		longest := ev.probes[idxs[e-1]].Data
		k := s
		for n := 1; n <= len(longest); n++ {
			d := ev.state.Feed(longest[n-1])
			for k < e && len(ev.probes[idxs[k]].Data) == n {
				out[k] = d
				k++
			}
		}
		passes++
		s = e
	}
	ev.mt.counter.Add(passes)
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
