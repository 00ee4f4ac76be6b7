package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

// refNearest is Section 7 taken literally, the way Nearest ran before it
// computed ε₀: a radius "has hits" when FilterHits at that radius returns
// any, the least such radius is binary-searched to within EpsInc, and
// verification rounds run from there in steps of EpsInc — each clamped to
// EpsMax, the last one at EpsMax. It returns how many rounds it ran.
func refNearest[E any](mt *Matcher[E], q seq.Sequence[E], opts NearestOptions) (m Match, found bool, rounds int) {
	has := func(r float64) bool { return len(mt.FilterHits(q, r)) > 0 }
	if opts.EpsMax <= 0 || opts.EpsInc <= 0 || !has(opts.EpsMax) {
		return Match{}, false, 0
	}
	lo, hi := 0.0, opts.EpsMax
	if has(0) {
		hi = 0
	}
	for hi-lo > opts.EpsInc {
		if mid := lo + (hi-lo)/2; has(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	for eps := hi; ; eps += opts.EpsInc {
		eps = min(eps, opts.EpsMax)
		rounds++
		if best, ok := mt.verifier.verifyNearest(q, mt.FilterHits(q, eps), eps); ok {
			return best, true, rounds
		}
		if eps == opts.EpsMax {
			return Match{}, false, rounds
		}
	}
}

// nearestTally counts the shapes TestNearestMatchesBisectionReference must
// have seen for its comparison to mean anything.
type nearestTally struct {
	cases       int
	foundAtCap  int // found although EpsMax is ε₀ itself
	notFound    int
	threeRounds int // the reference ran three verification rounds or more
	zeroEps0    int // some segment equals some window
}

// nearestCase builds a matcher per backend over random sequences of
// gen-drawn elements and holds Nearest to refNearest field for field — Dist
// by bits — on three kinds of query, at EpsMax below, at and above each
// query's ε₀, at three values of EpsInc.
func nearestCase[E any](t *testing.T, name string, m dist.Measure[E], p Params, seed uint64,
	gen func(*rand.Rand) E, tally *nearestTally) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 2500))
	lam, l := p.Lambda, p.WindowLen()
	db := make([]seq.Sequence[E], 3)
	for i := range db {
		db[i] = make(seq.Sequence[E], 2*lam+i)
		for j := range db[i] {
			db[i][j] = gen(rng)
		}
	}
	random := func(n int) seq.Sequence[E] {
		q := make(seq.Sequence[E], n)
		for i := range q {
			q[i] = gen(rng)
		}
		return q
	}
	// centred: λ elements cut from half a window into the database, with the
	// one window they hold whole changed in one place. No segment equals a
	// window, and the whole query is a pair at about the least segment
	// distance: the case that is found with EpsMax = ε₀.
	centred := append(seq.Sequence[E](nil), db[0][l/2+l:l/2+l+lam]...)
	centred[lam/2] = gen(rng)
	// planted: one database window copied into foreign elements. ε₀ is 0 and
	// the nearest pair, if any is in reach, lies many rounds above it.
	planted := random(lam + 2)
	copy(planted[l/2+1:], db[1][2*l:3*l])
	// worn: a database stretch with a change every few elements.
	worn := append(seq.Sequence[E](nil), db[2][l+1:l+1+lam+3]...)
	for i := 1; i < len(worn); i += max(2, l/3) {
		worn[i] = gen(rng)
	}
	queries := []seq.Sequence[E]{centred, planted, worn}

	for _, kind := range []IndexKind{IndexRefNet, IndexCoverTree, IndexMV, IndexLinearScan} {
		mt, err := NewMatcher(m, Config{Params: p, Index: kind, MVRefs: 3}, db)
		if err != nil {
			t.Fatalf("%s on %v: %v", name, kind, err)
		}
		for qi, q := range queries {
			eps0 := math.Inf(1)
			for _, s := range seq.AppendSegmentsFor(nil, q, p.Lambda, p.Lambda0) {
				for _, w := range mt.Windows() {
					eps0 = min(eps0, m.Fn(s.Data, w.Data))
				}
			}
			if eps0 == 0 {
				tally.zeroEps0++
			}
			for _, epsMax := range []float64{0.6 * eps0, eps0, 1.5*eps0 + 2} {
				for _, epsInc := range []float64{1, 0.3, epsMax / 16} {
					opts := NearestOptions{EpsMax: epsMax, EpsInc: epsInc}
					want, wok, rounds := refNearest(mt, q, opts)
					got, gok := mt.Nearest(q, opts)
					if gok != wok || !sameMatch(got, want) {
						t.Fatalf("%s on %v, query %d (ε₀ %v), EpsMax %v, EpsInc %v: Nearest = %v, %v; the bisection reference says %v, %v",
							name, kind, qi, eps0, epsMax, epsInc, got, gok, want, wok)
					}
					tally.cases++
					if !wok {
						tally.notFound++
					} else if epsMax == eps0 {
						tally.foundAtCap++
					}
					if rounds >= 3 {
						tally.threeRounds++
					}
				}
			}
		}
	}
}

// Nearest finds ε₀ once and replays the radius bisection on it; the answer
// must be the one the bisection run on the filter itself gives, on every
// backend and every kind of measure: bit-parallel in its one-word and its
// block form, row kernels over bytes, floats and points, the two lock-step
// measures (λ0 = 0, so no kernel-fed traversal), and one with no kernel at
// all.
func TestNearestMatchesBisectionReference(t *testing.T) {
	acids := []byte("ACDEFGHIKLMNPQRSTVWY")
	letter := func(rng *rand.Rand) byte { return acids[rng.IntN(4)] }
	acid := func(rng *rand.Rand) byte { return acids[rng.IntN(len(acids))] }
	level := func(rng *rand.Rand) float64 { return float64(rng.IntN(9)) / 2 }
	point := func(rng *rand.Rand) seq.Point2 { return seq.Point2{X: rng.Float64() * 3, Y: rng.Float64() * 3} }

	var tally nearestTally
	nearestCase(t, "levenshtein-fast/word", dist.LevenshteinFastMeasure(), Params{Lambda: 12, Lambda0: 1}, 1, letter, &tally)
	if !testing.Short() { // two thirds of the test's time; make nearest-equiv runs it
		nearestCase(t, "levenshtein-fast/block", dist.LevenshteinFastMeasure(), Params{Lambda: 132, Lambda0: 1}, 2, letter, &tally)
	}
	nearestCase(t, "erp/point2", dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), Params{Lambda: 8, Lambda0: 2}, 3, point, &tally)
	nearestCase(t, "protein-edit", dist.ProteinEditMeasure(), Params{Lambda: 10, Lambda0: 1}, 4, acid, &tally)
	nearestCase(t, "euclidean", dist.EuclideanMeasure(dist.AbsDiff), Params{Lambda: 10, Lambda0: 0}, 5, level, &tally)
	nearestCase(t, "hamming", dist.HammingMeasure[byte](), Params{Lambda: 10, Lambda0: 0}, 6, letter, &tally)
	nearestCase(t, "dfd", dist.DiscreteFrechetMeasure(dist.AbsDiff), Params{Lambda: 8, Lambda0: 1}, 7, level, &tally)

	t.Logf("%d cases: %d found at EpsMax = ε₀, %d not found, %d with three rounds or more, %d with ε₀ = 0",
		tally.cases, tally.foundAtCap, tally.notFound, tally.threeRounds, tally.zeroEps0)
	if tally.foundAtCap == 0 || tally.notFound == 0 || tally.threeRounds == 0 || tally.zeroEps0 == 0 {
		t.Fatal("vacuous: a shape the comparison is there for never occurred")
	}
}

// Type III's rounds on the net are one continued traversal. Under the
// serving schedule, EpsInc = EpsMax/16, a query runs up to 16 of them; each
// must give the answer a round on a session of its own gives. On the two
// -seq workloads' shapes — 500 protein windows under levenshtein-fast and
// 500 trajectory windows under ERP, λ = 40, λ0 = 1 — 40 queries each are
// held field for field, Dist by bits, to refNearest, whose every round is a
// FilterHits call: a session opened, read once and closed.
func TestNearestManyRoundsMatchesFreshRounds(t *testing.T) {
	p := Params{Lambda: 40, Lambda0: 1}
	t.Run("proteins/levenshtein-fast", func(t *testing.T) {
		manyRounds(t, dist.LevenshteinFastMeasure(), p, data.Proteins(500, 20, 1), 0.1, data.MutateAA, 8)
	})
	t.Run("traj/erp", func(t *testing.T) {
		manyRounds(t, dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), p, data.Trajectories(500, 20, 1), 0.02, data.MutatePoint, 4)
	})
}

func manyRounds[E any](t *testing.T, m dist.Measure[E], p Params, ds data.Dataset[E], rate float64,
	mutate func(*rand.Rand, E) E, epsMax float64) {
	mt, err := NewMatcher(m, Config{Params: p, Index: IndexRefNet}, ds.Sequences)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultNearestOptions(epsMax)
	most, found := 0, 0
	for i := 0; i < 40; i++ {
		q := data.RandomQuery(ds, 45, rate, mutate, uint64(i+1))
		want, wok, rounds := refNearest(mt, q, opts)
		got, gok := mt.Nearest(q, opts)
		if gok != wok || !sameMatch(got, want) {
			t.Fatalf("query %d, %d rounds: Nearest = %v, %v; with a session per round %v, %v", i, rounds, got, gok, want, wok)
		}
		most = max(most, rounds)
		if wok {
			found++
		}
	}
	t.Logf("%d of 40 found; at most %d rounds", found, most)
	if most < 5 || found == 0 {
		t.Fatalf("vacuous: at most %d rounds, %d found", most, found)
	}
}

// nearestLockStep is the set-up the two EpsMax tests share: Euclidean
// distance, λ = 40, λ0 = 0, one 40-element sequence.
func nearestLockStep(t *testing.T) (*Matcher[float64], seq.Sequence[float64]) {
	t.Helper()
	x := make(seq.Sequence[float64], 40)
	for i := range x {
		x[i] = float64(i%7) * 3
	}
	mt, err := NewMatcher(dist.EuclideanMeasure(dist.AbsDiff), Config{Params: Params{Lambda: 40, Lambda0: 0}}, []seq.Sequence[float64]{x})
	if err != nil {
		t.Fatal(err)
	}
	return mt, x
}

// Nearest must never return a pair farther apart than EpsMax. The query is
// the sequence + 0.5: both halves sit at 0.5·√20 = 2.2361, so the radius
// search ends at 2.25 and the next round is due at 3.25 — above EpsMax = 3,
// where the only pair there is, at 0.5·√40 = 3.1623, would be confirmed.
func TestNearestNeverExceedsEpsMax(t *testing.T) {
	mt, x := nearestLockStep(t)
	q := make(seq.Sequence[float64], len(x))
	for i := range x {
		q[i] = x[i] + 0.5
	}
	if m, ok := mt.Nearest(q, NearestOptions{EpsMax: 3, EpsInc: 1}); ok {
		t.Fatalf("Nearest with EpsMax 3 returned %v", m)
	}
	m, ok := mt.Nearest(q, NearestOptions{EpsMax: 3.5, EpsInc: 1})
	if !ok || math.Abs(m.Dist-0.5*math.Sqrt(40)) > 1e-9 {
		t.Fatalf("Nearest with EpsMax 3.5 = %v, %v; want the pair at 3.1623", m, ok)
	}
}

// Nearest must reach EpsMax. The query is the sequence + 0.15 on its first
// half and + 0.631 on its second: the radius search ends at 0.75, the rounds
// at 0.75, 1.75 and 2.75 confirm nothing, and the pair at 2.9006 is within
// EpsMax = 3 — the last round has to run there.
func TestNearestReachesEpsMax(t *testing.T) {
	mt, x := nearestLockStep(t)
	q := make(seq.Sequence[float64], len(x))
	for i := range x {
		q[i] = x[i] + 0.15
		if i >= 20 {
			q[i] = x[i] + 0.631
		}
	}
	want := math.Sqrt(20*0.15*0.15 + 20*0.631*0.631)
	for _, epsMax := range []float64{3, 4} {
		m, ok := mt.Nearest(q, NearestOptions{EpsMax: epsMax, EpsInc: 1})
		if !ok || math.Abs(m.Dist-want) > 1e-9 {
			t.Fatalf("Nearest with EpsMax %v = %v, %v; want the pair at %.4f", epsMax, m, ok, want)
		}
	}
}

// Nearest must return whatever EpsInc it is handed. With EpsInc under one ulp
// of the radius the bisection's midpoint rounds onto an end and hi−lo never
// falls to EpsInc; a little above that the rounds advance EpsMax/EpsInc ≈ 10⁹
// times. Both used to hold a worker for good (nothing below the scheduler can
// be cancelled); now options that do not Validate find nothing. The query is
// TestNearestNeverExceedsEpsMax's, which has no pair within EpsMax = 3, so a
// schedule that is run at all is run to its end.
func TestNearestReturnsForTinyEpsInc(t *testing.T) {
	mt, x := nearestLockStep(t)
	q := make(seq.Sequence[float64], len(x))
	for i := range x {
		q[i] = x[i] + 0.5
	}
	for _, inc := range []float64{1e-17, 1e-9, 3.0 / (2 * MaxNearestSteps)} {
		done := make(chan bool, 1)
		go func() {
			_, ok := mt.Nearest(q, NearestOptions{EpsMax: 3, EpsInc: inc})
			done <- ok
		}()
		select {
		case ok := <-done:
			if ok {
				t.Fatalf("EpsInc %g: Nearest found a pair on options that do not validate", inc)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("EpsInc %g: Nearest still running after 5 s", inc)
		}
	}
	// The finest schedule allowed runs, to the end, and stays cheap.
	if m, ok := mt.Nearest(q, NearestOptions{EpsMax: 3, EpsInc: 3.0 / MaxNearestSteps}); ok {
		t.Fatalf("Nearest with EpsMax 3 returned %v", m)
	}
	if m, ok := mt.Nearest(q, NearestOptions{EpsMax: 3.5, EpsInc: 3.5 / MaxNearestSteps}); !ok || math.Abs(m.Dist-0.5*math.Sqrt(40)) > 1e-9 {
		t.Fatalf("Nearest at the finest EpsInc = %v, %v; want the pair at 3.1623", m, ok)
	}
}

func TestNearestOptionsValidate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		opts NearestOptions
		want error
	}{
		{NearestOptions{8, 1}, nil},
		{NearestOptions{8, 0.5}, nil},
		{NearestOptions{8, 8.0 / MaxNearestSteps}, nil},
		{NearestOptions{8, 100}, nil}, // coarser than the whole range: one round at EpsMax
		{NearestOptions{8, inf}, nil},
		{NearestOptions{0, 1}, ErrNearestEpsNotPositive},
		{NearestOptions{-1, 1}, ErrNearestEpsNotPositive},
		{NearestOptions{8, 0}, ErrNearestEpsNotPositive},
		{NearestOptions{8, -1}, ErrNearestEpsNotPositive},
		{NearestOptions{nan, 1}, ErrNearestEpsNotPositive},
		{NearestOptions{8, nan}, ErrNearestEpsNotPositive},
		{NearestOptions{8, math.Nextafter(8.0/MaxNearestSteps, 0)}, ErrNearestEpsIncTooSmall},
		{NearestOptions{8, 1e-9}, ErrNearestEpsIncTooSmall},
		{NearestOptions{8, 1e-17}, ErrNearestEpsIncTooSmall},
		{NearestOptions{inf, 1}, ErrNearestEpsIncTooSmall},
		{NearestOptions{inf, inf}, ErrNearestEpsIncTooSmall},
	} {
		if err := c.opts.Validate(); !errors.Is(err, c.want) || (c.want == nil && err != nil) {
			t.Errorf("%+v.Validate() = %v, want %v", c.opts, err, c.want)
		}
	}
}
