package covertree

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/metric"
)

func absDist(a, b float64) float64 { return math.Abs(a - b) }

func sortedRange(t *Tree[float64], q, eps float64) []float64 {
	out := t.Range(q, eps)
	sort.Float64s(out)
	return out
}

func sortedScan(items []float64, q, eps float64) []float64 {
	var out []float64
	for _, v := range items {
		if absDist(q, v) <= eps {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := New(absDist, 1)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.Range(0, 10); got != nil {
		t.Errorf("Range on empty tree = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	tr := New(absDist, 1)
	var items []float64
	for i := 0; i < 600; i++ {
		v := rng.Float64() * 500
		items = append(items, v)
		tr.Insert(v)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	for _, eps := range []float64{0, 0.5, 2, 10, 100, 1000} {
		for trial := 0; trial < 20; trial++ {
			q := rng.Float64()*600 - 50
			if !equalFloats(sortedRange(tr, q, eps), sortedScan(items, q, eps)) {
				t.Fatalf("mismatch at q=%v eps=%v", q, eps)
			}
		}
	}
}

func TestRangeMatchesLinearScanClustered(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	tr := New(absDist, 1)
	var items []float64
	for c := 0; c < 8; c++ {
		center := float64(c * 53)
		for i := 0; i < 50; i++ {
			v := center + rng.NormFloat64()*0.5
			items = append(items, v)
			tr.Insert(v)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	for trial := 0; trial < 40; trial++ {
		q := rng.Float64() * 420
		eps := rng.Float64() * 30
		if !equalFloats(sortedRange(tr, q, eps), sortedScan(items, q, eps)) {
			t.Fatalf("mismatch at q=%v eps=%v", q, eps)
		}
	}
}

func TestSingleParentInvariant(t *testing.T) {
	// Every item except the root contributes exactly one edge.
	rng := rand.New(rand.NewPCG(35, 36))
	tr := New(absDist, 1)
	for i := 0; i < 300; i++ {
		tr.Insert(rng.NormFloat64() * 20)
	}
	st := tr.Stats()
	if st.Edges != st.Nodes-1 {
		t.Errorf("Edges = %d, want Nodes-1 = %d (single-parent tree)", st.Edges, st.Nodes-1)
	}
	if len(tr.Items()) != 300 {
		t.Errorf("Items() = %d", len(tr.Items()))
	}
}

func TestDuplicates(t *testing.T) {
	tr := New(absDist, 1)
	for i := 0; i < 7; i++ {
		tr.Insert(1.5)
	}
	if got := tr.Range(1.5, 0); len(got) != 7 {
		t.Errorf("Range found %d duplicates, want 7", len(got))
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBaseValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive base")
		}
	}()
	New(absDist, 0)
}

func TestPruningEffective(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	counter := metric.NewCounter(absDist)
	tr := New(counter.Distance, 1)
	const N = 2000
	for i := 0; i < N; i++ {
		cluster := float64(i%20) * 1000
		tr.Insert(cluster + rng.Float64())
	}
	counter.Reset()
	tr.Range(7000.5, 2)
	if calls := counter.Calls(); calls >= N/2 {
		t.Errorf("range query computed %d distances out of %d; pruning ineffective", calls, N)
	}
}

func TestInfiniteDistancePanics(t *testing.T) {
	d := func(a, b float64) float64 {
		if a != b {
			return math.Inf(1)
		}
		return 0
	}
	tr := New(d, 1)
	tr.Insert(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-finite distance")
		}
	}()
	tr.Insert(2)
}

// An insert refused for its non-finite distance to the root leaves the tree
// as it was: same Len, still valid, same answers.
func TestRefusedInsertLeavesTreeUnchanged(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 40))
	tr := New(absDist, 1)
	var items []float64
	for i := 0; i < 50; i++ {
		v := rng.Float64() * 100
		items = append(items, v)
		tr.Insert(v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for non-finite distance")
			}
		}()
		tr.Insert(math.Inf(1))
	}()
	if tr.Len() != len(items) {
		t.Errorf("Len = %d after a refused insert, want %d", tr.Len(), len(items))
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("after a refused insert: %v", err)
	}
	for _, eps := range []float64{0, 5, 200} {
		if got, want := sortedRange(tr, 50, eps), sortedScan(items, 50, eps); !equalFloats(got, want) {
			t.Errorf("Range(50, %v) = %v after a refused insert, linear scan %v", eps, got, want)
		}
	}
}

// The measured cover radius the traversals prune with: after every insert
// Validate holds it equal to the max over children of (edge distance +
// child's radius), and a brute walk finds no descendant beyond it. Integer
// points under the L1 metric, so distances tie and the bound is met with
// equality somewhere.
func TestCoverRadiusMeasuredOnInsert(t *testing.T) {
	type pt [2]float64
	l1 := func(a, b pt) float64 { return math.Abs(a[0]-b[0]) + math.Abs(a[1]-b[1]) }
	rng := rand.New(rand.NewPCG(37, 38))
	tr := New(l1, 0.75)
	tight := false
	for i := 0; i < 250; i++ {
		tr.Insert(pt{float64(rng.IntN(30)), float64(rng.IntN(30))})
		if err := tr.Validate(); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		var walk func(n *node[pt])
		walk = func(n *node[pt]) {
			var under func(c *node[pt])
			under = func(c *node[pt]) {
				for _, e := range c.children {
					d := l1(n.item, e.n.item)
					if d > n.rho {
						t.Fatalf("insert %d: descendant at %v, beyond its ancestor's rho %v", i, d, n.rho)
					}
					tight = tight || (d == n.rho && d > 0)
					under(e.n)
				}
			}
			under(n)
			for _, e := range n.children {
				walk(e.n)
			}
		}
		walk(tr.root)
	}
	if !tight {
		t.Fatal("vacuous: no descendant ever sat exactly at its ancestor's rho")
	}
}
