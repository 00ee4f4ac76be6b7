package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// passCounting wraps a measure's kernels to count the passes run on them: a
// rewound state's first feed, in either mode, begins one.
func passCounting(m dist.Measure[byte], passes *int64) dist.Measure[byte] {
	prepare := m.Prepare
	m.Prepare = func(w []byte) dist.Prepared[byte] { return passCountingPrepared{prepare(w), passes} }
	return m
}

type passCountingPrepared struct {
	dist.Prepared[byte]
	passes *int64
}

func (p passCountingPrepared) NewState() dist.Kernel[byte] {
	return &passCountingState{p.Prepared.NewState().(dist.FreeStartKernel[byte]), p.passes, true}
}

// passCountingState is not Rebindable, so every bind mints a rewound one.
type passCountingState struct {
	dist.FreeStartKernel[byte]
	passes  *int64
	rewound bool
}

func (s *passCountingState) begin() {
	if s.rewound {
		*s.passes++
		s.rewound = false
	}
}

func (s *passCountingState) Feed(x byte) float64 {
	s.begin()
	return s.FreeStartKernel.Feed(x)
}

func (s *passCountingState) FeedFree(x byte) float64 {
	s.begin()
	return s.FreeStartKernel.FeedFree(x)
}

func (s *passCountingState) Reset() {
	s.rewound = true
	s.FreeStartKernel.Reset()
}

// withoutFreeStart is m as a caller might have assembled it before the mode
// existed: the same kernels, minus FeedFree.
func withoutFreeStart(m dist.Measure[byte]) dist.Measure[byte] {
	prepare := m.Prepare
	m.Prepare = func(w []byte) dist.Prepared[byte] { return plainPrepared{prepare(w)} }
	return m
}

type plainPrepared struct{ dist.Prepared[byte] }

func (p plainPrepared) NewState() dist.Kernel[byte] {
	return struct{ dist.Kernel[byte] }{p.Prepared.NewState()}
}

// bruteHits is the filter by definition: every (segment, window) pair within
// eps under the plain Fn, and the least such distance over all pairs.
func bruteHits(mt *Matcher[byte], fn dist.Func[byte], q seq.Sequence[byte], eps float64) (map[string]bool, float64) {
	hits, least := map[string]bool{}, math.Inf(1)
	for _, s := range seq.SegmentsFor(q, mt.cfg.Params.Lambda, mt.cfg.Params.Lambda0) {
		for _, w := range mt.windows {
			d := fn(s.Data, w.Data)
			least = min(least, d)
			if d <= eps {
				hits[w.String()+s.String()] = true
			}
		}
	}
	return hits, least
}

func sameHitsAsBrute(t *testing.T, what string, got []Hit[byte], want map[string]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, brute force has %d", what, len(got), len(want))
	}
	for _, h := range got {
		if !want[h.Window.String()+h.Segment.String()] {
			t.Fatalf("%s: hit %v/%v is not a brute-force hit", what, h.Window, h.Segment)
		}
	}
}

// The pre-pass must run to the largest end among the pending probes, not to
// the last probe's: a run with a smaller start ends later whenever the
// bounds of phase 1, or an earlier traversal of the session, have taken the
// long members of the last run and left one of its own. A pass cut at the
// last probe's end leaves that run's bound unset — whatever the previous node
// wrote there — and the filter loses hits no digest of the benchmark sees.
// λ = 8, λ0 = 2 (five lengths a run) meets such pending sets at most nodes;
// the second half re-reads one session (MinDist, then Range at wider radii),
// where runs also arrive without the members the first traversal recorded.
func TestPrePassSpansLargestPendingEnd(t *testing.T) {
	p := Params{Lambda: 8, Lambda0: 2}
	for _, m := range []dist.Measure[byte]{dist.LevenshteinMeasure[byte](), dist.LevenshteinFastMeasure()} {
		rng := rand.New(rand.NewPCG(21, 2100))
		db, qs := batchQueries(rng, 6)
		mt, err := NewMatcher(m, Config{Params: p, Index: IndexRefNet}, db)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range qs {
			for _, eps := range []float64{0, 0.5, 1, 2, 3} {
				want, _ := bruteHits(mt, m.Fn, q, eps)
				sameHitsAsBrute(t, m.Name+" FilterHits", mt.FilterHits(q, eps), want)
			}
			sc := mt.getScratch()
			s := mt.openQuery(q, sc)
			if sc.keval.Exact() {
				t.Fatalf("%s: the kernel evaluator claims exact values with a pre-pass running", m.Name)
			}
			_, least := bruteHits(mt, m.Fn, q, 0)
			if got := s.minDist(4); got != least {
				t.Fatalf("%s query %d: minDist = %v, brute force %v", m.Name, qi, got, least)
			}
			for _, eps := range []float64{least, least + 1, least + 2.5} {
				want, _ := bruteHits(mt, m.Fn, q, eps)
				sameHitsAsBrute(t, m.Name+" hits after minDist", s.hits(eps), want)
			}
			s.close()
			mt.putScratch(sc)
		}
	}
}

// EvalBatch on pending sets built by hand, with the bound buffer poisoned
// between nodes: whatever it writes at or under bound is the exact distance,
// every distance at or under bound is written, and nothing it reads was left
// by an earlier call. The first set is the span bug's: the long member of a
// small start beside the short member of the largest.
func TestEvalBatchPrePassReadsOnlyItsOwnBounds(t *testing.T) {
	p := Params{Lambda: 8, Lambda0: 2}
	m := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(31, 3100))
	db, qs := batchQueries(rng, 2)
	mt, err := NewMatcher(m, Config{Params: p, Index: IndexRefNet}, db)
	if err != nil {
		t.Fatal(err)
	}
	sc := mt.getScratch()
	defer mt.putScratch(sc)
	q := qs[0]
	sc.segs = seq.AppendSegmentsFor(sc.segs[:0], q, p.Lambda, p.Lambda0)
	sc.offsetMajorProbes(sc.segs, len(q))
	sc.keval.open(mt, q, sc)
	// probe returns the index of the probe at (start, length).
	probe := func(start, n int) int32 {
		for i, pr := range sc.probes {
			if pr.Start == start && len(pr.Data) == n {
				return int32(i)
			}
		}
		t.Fatalf("no probe at start %d of length %d", start, n)
		return 0
	}
	sets := [][]int32{
		{probe(0, 6), probe(3, 2)},
		{probe(2, 2), probe(2, 6), probe(5, 3), probe(9, 2), probe(9, 3)},
		{probe(4, 6), probe(20, 2), probe(20, 6)},
		{probe(7, 4)},
	}
	out := make([]float64, 8)
	for _, w := range mt.windows {
		for si, idxs := range sets {
			for _, bound := range []float64{0, 1, 2, 4} {
				poison := sc.free.lower[:cap(sc.free.lower)]
				for i := range poison {
					poison[i] = math.Inf(1)
				}
				before := sc.cost.filter
				sc.keval.EvalBatch(w, idxs, bound, out)
				// At most the pre-pass and one exact pass a run.
				if passes := sc.cost.filter - before; passes < 1 || passes > int64(len(idxs))+1 {
					t.Fatalf("set %d bound %v: %d passes counted for %d probes", si, bound, passes, len(idxs))
				}
				for k, i := range idxs {
					d := m.Fn(sc.probes[i].Data, w.Data)
					if got := out[k]; (got <= bound || d <= bound) && got != d {
						t.Fatalf("set %d window %v bound %v: probe (start %d, len %d) priced %v, Fn = %v",
							si, w, bound, sc.probes[i].Start, len(sc.probes[i].Data), got, d)
					}
				}
			}
		}
	}
}

// A measure a caller assembled with Prepare but whose kernels lack the
// free-start mode takes the same code with the pre-pass skipped: the
// evaluator stays exact and the net counts what it counted before there was
// a pre-pass (12 002 passes on this input at the parent commit), the scan
// runs one pass per window and offset; with the mode, both run fewer passes
// for the same hits.
func TestKernelWithoutFreeStartSkipsThePrePass(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2100))
	db, qs := batchQueries(rng, 6)
	p := Params{Lambda: 8, Lambda0: 2}
	radii := []float64{0.5, 1, 2}
	offsets := len(qs[0]) - (p.WindowLen() - p.Lambda0) + 1
	for _, index := range []IndexKind{IndexRefNet, IndexLinearScan} {
		full, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: index}, db)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := NewMatcher(withoutFreeStart(dist.LevenshteinMeasure[byte]()), Config{Params: p, Index: index}, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			for _, eps := range radii {
				sameHits(t, index.String()+" without the mode", bare.FilterHits(q, eps), full.FilterHits(q, eps))
			}
		}
		old := int64(12002) // passes without the mode
		if index == IndexLinearScan {
			old = int64(len(qs) * len(radii) * offsets * len(bare.windows))
		}
		if got := bare.FilterDistanceCalls(); got != old {
			t.Fatalf("%v: %d passes counted without the mode, want the %d of the path before the pre-pass", index, got, old)
		}
		if got := full.FilterDistanceCalls(); got >= old {
			t.Fatalf("%v: %d passes counted with the pre-pass, %d without — no reduction", index, got, old)
		} else {
			t.Logf("%v: %d passes with the pre-pass, %d without", index, got, old)
		}
		if index == IndexRefNet {
			sc := bare.getScratch()
			bare.openQuery(qs[0], sc).close()
			if !sc.keval.Exact() {
				t.Fatal("a kernel evaluator with no pre-pass to run gave up its exact contract")
			}
			bare.putScratch(sc)
		}
	}
}
