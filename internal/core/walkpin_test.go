package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

// The reference net's walk under the kernel evaluator, pinned on the two
// shapes of net the -seq workloads query: 500 protein windows under
// levenshtein-fast and 500 trajectory windows under ERP, λ = 40, λ0 = 1. Each
// of 40 random queries opens one session and reads it the way Nearest does —
// MinDist capped at 8, then Range at 1, 2 and 4. The test hashes every
// EvalBatch call in call order (the window, the probe indices, the bound and
// every value returned), every MinDist answer and every hit, and pins the
// sha256 beside the counted filter evaluations. A changed hash means the walk
// asked the evaluator for different pairs, in a different order or under
// different bounds, or answered differently; re-pin only on purpose.
func TestSessionWalkPinned(t *testing.T) {
	p := Params{Lambda: 40, Lambda0: 1}
	t.Run("proteins/levenshtein-fast", func(t *testing.T) {
		runWalkPin(t, dist.LevenshteinFastMeasure(), p, data.Proteins(500, 20, 1), 0.1, data.MutateAA, walkPin{
			sum:   "6657d786e45e3d9a708255632c48f11066d89df53f750ee3b35ff1854574a8c1",
			calls: 94771,
		})
	})
	t.Run("traj/erp", func(t *testing.T) {
		runWalkPin(t, dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), p, data.Trajectories(500, 20, 1), 0.02, data.MutatePoint, walkPin{
			sum:   "26ac415fd9bdbb878f4a05d88f44b78654056ae8d1020579bb9f2f90a18f1c6f",
			calls: 15137,
		})
	})
}

// walkPin is one net's constants: the sha256 of the walk's transcript and the
// filter evaluations its queries counted.
type walkPin struct {
	sum   string
	calls int64
}

// hashingEval wraps the kernel evaluator and writes every call it serves,
// with what it returned, to h.
type hashingEval[E any] struct {
	inner *kernelEvaluator[E]
	h     hash.Hash
	buf   []byte
}

func (e *hashingEval[E]) Exact() bool { return e.inner.Exact() }

func (e *hashingEval[E]) put(vs ...uint64) {
	e.buf = e.buf[:0]
	for _, v := range vs {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
	e.h.Write(e.buf)
}

func (e *hashingEval[E]) EvalBatch(item seq.Window[E], idxs []int32, bound float64, out []float64) {
	e.inner.EvalBatch(item, idxs, bound, out)
	e.put('E', uint64(item.SeqID), uint64(item.Ord), uint64(len(idxs)), math.Float64bits(bound))
	for k, qi := range idxs {
		e.put(uint64(qi), math.Float64bits(out[k]))
	}
}

func runWalkPin[E any](t *testing.T, m dist.Measure[E], p Params, ds data.Dataset[E], rate float64,
	mutate func(*rand.Rand, E) E, want walkPin) {
	mt, err := NewMatcher(m, Config{Params: p, Index: IndexRefNet}, ds.Sequences)
	if err != nil {
		t.Fatal(err)
	}
	net := mt.index.(*netBackend[E]).net
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	ev := &hashingEval[E]{inner: &sc.keval, h: sha256.New()}
	var hits int
	for i := 0; i < 40; i++ {
		q := data.RandomQuery(ds, 45, rate, mutate, uint64(i+1))
		sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, p.Lambda, p.Lambda0)
		sc.offsetMajorProbes(sc.segs, len(q))
		sc.keval.open(mt, q, sc)
		s := net.OpenSession(sc.probes, ev)
		ev.put('M', math.Float64bits(s.MinDist(8)))
		for _, eps := range []float64{1, 2, 4} {
			ev.put('R', math.Float64bits(eps))
			for pi, wins := range s.Range(eps) {
				for _, w := range wins {
					ev.put(uint64(pi), uint64(w.SeqID), uint64(w.Ord))
					hits++
				}
			}
		}
		s.Close()
	}
	got := walkPin{sum: fmt.Sprintf("%x", ev.h.Sum(nil)), calls: mt.FilterDistanceCalls()}
	t.Logf("%d hits, %d counted filter evaluations", hits, got.calls)
	if hits == 0 {
		t.Fatal("vacuous: no read found a hit")
	}
	if got != want {
		t.Errorf("walk transcript sha256 %s, %d filter evaluations; pinned %s, %d", got.sum, got.calls, want.sum, want.calls)
	}
}
