package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/seq"
)

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
