package refnet

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// batchCountingEval is an exact BatchEvaluator that records how many
// EvalBatch calls and how many probe evaluations it served.
type batchCountingEval struct {
	qs     []float64
	calls  int
	probes int
}

func (e *batchCountingEval) Exact() bool { return true }

func (e *batchCountingEval) EvalBatch(item float64, idxs []int32, _ float64, out []float64) {
	e.calls++
	e.probes += len(idxs)
	for k, qi := range idxs {
		out[k] = math.Abs(e.qs[qi] - item)
	}
}

// A session priced by an exact custom evaluator must return exactly what a
// linear scan of the items returns, and must have batched the probes:
// strictly fewer EvalBatch calls than probe evaluations once several probes
// survive to the same nodes.
func TestSessionEvaluatorMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	n := New(absDist)
	var items []float64
	for i := 0; i < 400; i++ {
		items = append(items, rng.Float64()*100)
		n.Insert(items[i])
	}
	qs := make([]float64, 24)
	for i := range qs {
		qs[i] = rng.Float64() * 100
	}
	const eps = 3.0
	ev := &batchCountingEval{qs: qs}
	s := n.OpenSession(qs, ev)
	got := s.Range(eps)
	s.Close()
	for i, q := range qs {
		g := append([]float64(nil), got[i]...)
		sort.Float64s(g)
		if w := sortedScan(items, q, eps); !equalFloats(g, w) {
			t.Fatalf("query %d: session %v, linear scan %v", i, g, w)
		}
	}
	if ev.calls == 0 || ev.probes == 0 {
		t.Fatal("evaluator never invoked")
	}
	if ev.calls >= ev.probes {
		t.Fatalf("no batching: %d EvalBatch calls for %d probe evaluations", ev.calls, ev.probes)
	}
}

// A bounded evaluation armed via SetBounded must leave every Range and
// BatchRange result what a linear scan returns — abandoned probes only ever
// prune subtrees that hold nothing inside the ball.
func TestBoundedTraversalMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	boundedNet := New(absDist)
	boundedNet.SetBounded(func(a, b float64, eps float64) float64 {
		d := math.Abs(a - b)
		if d > eps {
			return math.Inf(1) // abandoned: any value > eps
		}
		return d
	})
	var items []float64
	for i := 0; i < 500; i++ {
		items = append(items, rng.Float64()*200)
		boundedNet.Insert(items[i])
	}
	qs := make([]float64, 16)
	for i := range qs {
		qs[i] = rng.Float64() * 200
	}
	for _, eps := range []float64{0, 1.5, 10, 60} {
		gotB := boundedNet.BatchRange(qs, eps)
		for i, q := range qs {
			want := sortedScan(items, q, eps)
			if got := sortedRange(boundedNet, q, eps); !equalFloats(got, want) {
				t.Fatalf("eps=%v q=%v: bounded Range %v, linear scan %v", eps, q, got, want)
			}
			g := append([]float64(nil), gotB[i]...)
			sort.Float64s(g)
			if !equalFloats(g, want) {
				t.Fatalf("eps=%v query %d: bounded BatchRange %v, linear scan %v", eps, i, g, want)
			}
		}
	}
}

// The bounded traversal must actually abandon: with a counting bounded
// function, small-radius queries on clustered data see most evaluations
// stop early.
func TestBoundedTraversalAbandons(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 61))
	n := New(absDist)
	abandoned := 0
	n.SetBounded(func(a, b float64, eps float64) float64 {
		d := math.Abs(a - b)
		if d > eps {
			abandoned++
			return math.Inf(1)
		}
		return d
	})
	for i := 0; i < 1000; i++ {
		cluster := float64(i%10) * 1000
		n.Insert(cluster + rng.Float64())
	}
	n.Range(5000.5, 2)
	if abandoned == 0 {
		t.Fatal("bounded evaluation never abandoned on clustered data")
	}
}

// BatchRange must reuse its traversal state: after a warm-up call, repeat
// calls allocate only the result slices, not fresh frame state per
// inconclusive node.
func TestBatchRangeActiveListReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	n := New(absDist)
	for i := 0; i < 600; i++ {
		n.Insert(rng.Float64() * 50)
	}
	qs := make([]float64, 12)
	for i := range qs {
		qs[i] = rng.Float64() * 50
	}
	// A small radius keeps result sets tiny (their growth is inherent
	// allocation) while the traversal still walks many inconclusive nodes —
	// the shape where the old fresh-list-per-node path allocated hundreds.
	const eps = 0.05
	// Warm the pools, then measure.
	n.BatchRange(qs, eps)
	results := 0
	for _, r := range n.BatchRange(qs, eps) {
		results += len(r)
	}
	if results == 0 {
		t.Fatal("queries found nothing; test is vacuous")
	}
	if raceEnabled {
		// The race detector makes sync.Pool drop Put items at random, so
		// reuse-dependent allocation counts are nondeterministic there.
		t.Skip("allocation pinning is meaningless under the race detector")
	}
	allocs := testing.AllocsPerRun(20, func() {
		n.BatchRange(qs, eps)
	})
	// out, a slice per non-empty result set, plus small pool slack; fresh
	// frame state per inconclusive node would add tens to hundreds.
	if limit := float64(2*len(qs) + 8); allocs > limit {
		t.Fatalf("BatchRange allocates %v objects per call, want ≤ %v", allocs, limit)
	}
}
