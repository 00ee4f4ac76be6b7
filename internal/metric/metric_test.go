package metric

import (
	"math"
	"sync"
	"testing"
)

func absDist(a, b float64) float64 { return math.Abs(a - b) }

func TestLinearScanRange(t *testing.T) {
	s := NewLinearScan(absDist)
	for _, v := range []float64{0, 1, 2, 3, 10, 20} {
		s.Insert(v)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	got := s.Range(1.5, 1.5)
	want := map[float64]bool{0: true, 1: true, 2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("Range returned %v, want the set %v", got, want)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected item %v", v)
		}
	}
}

func TestLinearScanRangeInclusiveBoundary(t *testing.T) {
	s := NewLinearScan(absDist)
	s.Insert(5.0)
	if got := s.Range(3.0, 2.0); len(got) != 1 {
		t.Errorf("boundary item not included: %v", got)
	}
	if got := s.Range(3.0, 1.999999); len(got) != 0 {
		t.Errorf("item beyond radius included: %v", got)
	}
}

func TestCounterCounts(t *testing.T) {
	c := NewCounter(absDist)
	if c.Calls() != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Distance(1, 2)
	c.Distance(3, 4)
	if c.Calls() != 2 {
		t.Errorf("Calls = %d, want 2", c.Calls())
	}
	c.Reset()
	if c.Calls() != 0 {
		t.Errorf("Calls after Reset = %d, want 0", c.Calls())
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter(absDist)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Distance(float64(i), 0)
			}
		}()
	}
	wg.Wait()
	if c.Calls() != workers*per {
		t.Errorf("Calls = %d, want %d", c.Calls(), workers*per)
	}
}

func TestLinearScanComputesExactlyNDistances(t *testing.T) {
	c := NewCounter(absDist)
	s := NewLinearScan(c.Distance)
	for i := 0; i < 50; i++ {
		s.Insert(float64(i))
	}
	c.Reset()
	s.Range(25, 3)
	if c.Calls() != 50 {
		t.Errorf("linear scan made %d distance calls, want 50", c.Calls())
	}
}

// A bounded evaluation must not change which items Range returns, and must
// be consulted.
func TestLinearScanBounded(t *testing.T) {
	plain := NewLinearScan(DistFunc[float64](func(a, b float64) float64 { return math.Abs(a - b) }))
	armed := NewLinearScan(DistFunc[float64](func(a, b float64) float64 { return math.Abs(a - b) }))
	evals := 0
	armed.SetBounded(func(a, b, eps float64) float64 {
		evals++
		if d := math.Abs(a - b); d <= eps {
			return d
		}
		return eps + 1 // early-abandon stand-in
	})
	for i := 0; i < 50; i++ {
		plain.Insert(float64(i))
		armed.Insert(float64(i))
	}
	for _, eps := range []float64{0, 1.5, 7, 100} {
		got, want := armed.Range(25.2, eps), plain.Range(25.2, eps)
		if len(got) != len(want) {
			t.Fatalf("eps=%v: bounded Range %d items, plain %d", eps, len(got), len(want))
		}
	}
	if evals == 0 {
		t.Fatal("bounded evaluation never consulted")
	}
}

// CountBounded must feed the same counter as Distance.
func TestCounterBoundedAndAdd(t *testing.T) {
	c := NewCounter(DistFunc[int](func(a, b int) float64 { return float64(a - b) }))
	bounded := c.CountBounded(func(a, b int, eps float64) float64 { return float64(a - b) })
	c.Distance(3, 1)
	bounded(5, 2, 10)
	if got := c.Calls(); got != 2 {
		t.Fatalf("Calls = %d, want 2", got)
	}
	c.Reset()
	if got := c.Calls(); got != 0 {
		t.Fatalf("Calls after Reset = %d", got)
	}
}
