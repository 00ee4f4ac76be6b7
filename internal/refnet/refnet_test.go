package refnet

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/metric"
)

func absDist(a, b float64) float64 { return math.Abs(a - b) }

func pointDist(a, b [2]float64) float64 {
	return math.Hypot(a[0]-b[0], a[1]-b[1])
}

// sortedRange runs a range query and returns sorted results for
// set comparison.
func sortedRange(t *Net[float64], q, eps float64) []float64 {
	out := t.Range(q, eps)
	sort.Float64s(out)
	return out
}

// minDist is a one-probe session's MinDist read under cap.
func minDist[T any](n *Net[T], q T, cap float64) float64 {
	s := n.OpenSession([]T{q}, nil)
	defer s.Close()
	return s.MinDist(cap)
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

func TestEmptyNet(t *testing.T) {
	n := New(absDist)
	if n.Len() != 0 {
		t.Errorf("empty net Len = %d", n.Len())
	}
	if got := n.Range(0, 100); got != nil {
		t.Errorf("empty net Range = %v", got)
	}
	if got := minDist(n, 0, 100); !math.IsInf(got, 1) {
		t.Errorf("empty net MinDist = %v, want +Inf", got)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("empty net invalid: %v", err)
	}
}

func TestSingleItem(t *testing.T) {
	n := New(absDist)
	n.Insert(5)
	if n.Len() != 1 {
		t.Fatalf("Len = %d", n.Len())
	}
	if got := n.Range(5, 0); len(got) != 1 || got[0] != 5 {
		t.Errorf("Range(5,0) = %v", got)
	}
	if got := n.Range(7, 1); len(got) != 0 {
		t.Errorf("Range(7,1) = %v, want empty", got)
	}
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDuplicateItems(t *testing.T) {
	n := New(absDist)
	for i := 0; i < 10; i++ {
		n.Insert(3)
	}
	if n.Len() != 10 {
		t.Fatalf("Len = %d, want 10", n.Len())
	}
	if got := n.Range(3, 0); len(got) != 10 {
		t.Errorf("Range found %d duplicates, want 10", len(got))
	}
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEpsAndCoverRadius(t *testing.T) {
	n := New(absDist, WithBase(0.5))
	if got := n.eps(0); got != 0.5 {
		t.Errorf("eps(0) = %v", got)
	}
	if got := n.eps(3); got != 4 {
		t.Errorf("eps(3) = %v, want 4", got)
	}
	if got := n.coverRadius(0); got != 0 {
		t.Errorf("coverRadius(0) = %v", got)
	}
	// ρ(l) = Σ_{k=1..l} ǫ'·2^k = 0.5·(2+4+8) = 7 for l = 3.
	if got := n.coverRadius(3); got != 7 {
		t.Errorf("coverRadius(3) = %v, want 7", got)
	}
}

func TestRangeMatchesLinearScanUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := New(absDist)
	var items []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 1000
		items = append(items, v)
		n.Insert(v)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid net after inserts: %v", err)
	}
	for _, eps := range []float64{0, 0.5, 3, 10, 50, 500, 2000} {
		for trial := 0; trial < 20; trial++ {
			q := rng.Float64()*1200 - 100
			got := sortedRange(n, q, eps)
			want := sortedScan(items, q, eps)
			if !equalFloats(got, want) {
				t.Fatalf("eps=%v q=%v: got %d items, want %d", eps, q, len(got), len(want))
			}
		}
	}
}

func TestRangeMatchesLinearScanClustered(t *testing.T) {
	// Clustered data stresses multi-parent membership: points sit within
	// several references' radii simultaneously.
	rng := rand.New(rand.NewPCG(3, 4))
	n := New(absDist)
	var items []float64
	for c := 0; c < 10; c++ {
		center := float64(c * 37)
		for i := 0; i < 40; i++ {
			v := center + rng.NormFloat64()
			items = append(items, v)
			n.Insert(v)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid net: %v", err)
	}
	for _, eps := range []float64{0.1, 1, 5, 40, 400} {
		for trial := 0; trial < 20; trial++ {
			q := rng.Float64() * 400
			if !equalFloats(sortedRange(n, q, eps), sortedScan(items, q, eps)) {
				t.Fatalf("mismatch at eps=%v q=%v", eps, q)
			}
		}
	}
}

func TestRangeMatchesLinearScan2D(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	n := New(pointDist)
	var items [][2]float64
	for i := 0; i < 400; i++ {
		p := [2]float64{rng.Float64() * 100, rng.Float64() * 100}
		items = append(items, p)
		n.Insert(p)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("invalid net: %v", err)
	}
	for _, eps := range []float64{0, 1, 7, 30, 200} {
		for trial := 0; trial < 10; trial++ {
			q := [2]float64{rng.Float64() * 100, rng.Float64() * 100}
			got := n.Range(q, eps)
			var want int
			for _, p := range items {
				if pointDist(q, p) <= eps {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("eps=%v: got %d items, want %d", eps, len(got), want)
			}
			for _, p := range got {
				if pointDist(q, p) > eps {
					t.Fatalf("result %v outside radius %v of %v", p, eps, q)
				}
			}
		}
	}
}

func TestMaxParentsCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, cap := range []int{1, 2, 5} {
		n := New(absDist, WithMaxParents(cap))
		var items []float64
		for i := 0; i < 300; i++ {
			v := rng.NormFloat64() * 5 // dense: many parent candidates
			items = append(items, v)
			n.Insert(v)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("cap=%d: invalid net: %v", cap, err)
		}
		st := n.Stats()
		if st.AvgParents > float64(cap)+1e-9 {
			t.Errorf("cap=%d: avg parents %v exceeds cap", cap, st.AvgParents)
		}
		// Queries must stay exact under the cap.
		for trial := 0; trial < 10; trial++ {
			q := rng.NormFloat64() * 5
			if !equalFloats(sortedRange(n, q, 3), sortedScan(items, q, 3)) {
				t.Fatalf("cap=%d: range mismatch", cap)
			}
		}
	}
}

func TestWithBaseAffectsScale(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	var items []float64
	for i := 0; i < 200; i++ {
		items = append(items, rng.Float64()*100)
	}
	for _, base := range []float64{0.25, 1, 4} {
		n := New(absDist, WithBase(base))
		for _, v := range items {
			n.Insert(v)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("base=%v: %v", base, err)
		}
		if !equalFloats(sortedRange(n, 50, 10), sortedScan(items, 50, 10)) {
			t.Fatalf("base=%v: range mismatch", base)
		}
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero base":        func() { New(absDist, WithBase(0)) },
		"negative base":    func() { New(absDist, WithBase(-1)) },
		"negative parents": func() { New(absDist, WithMaxParents(-2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInfiniteDistancePanics(t *testing.T) {
	d := func(a, b float64) float64 {
		if a != b {
			return math.Inf(1)
		}
		return 0
	}
	n := New(d)
	n.Insert(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-finite distance")
		}
	}()
	n.Insert(2)
}

// An insert refused for its non-finite distance to the root leaves the net
// as it was: same Len, still valid, same answers.
func TestRefusedInsertLeavesNetUnchanged(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	n := New(absDist)
	var items []float64
	for i := 0; i < 50; i++ {
		v := rng.Float64() * 100
		items = append(items, v)
		n.Insert(v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for non-finite distance")
			}
		}()
		n.Insert(math.Inf(1))
	}()
	if n.Len() != len(items) {
		t.Errorf("Len = %d after a refused insert, want %d", n.Len(), len(items))
	}
	if err := n.Validate(); err != nil {
		t.Errorf("after a refused insert: %v", err)
	}
	for _, eps := range []float64{0, 5, 200} {
		if got, want := sortedRange(n, 50, eps), sortedScan(items, 50, eps); !equalFloats(got, want) {
			t.Errorf("Range(50, %v) = %v after a refused insert, linear scan %v", eps, got, want)
		}
	}
}

func TestBatchRangeMatchesIndividualQueries(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	n := New(absDist)
	var items []float64
	for i := 0; i < 300; i++ {
		v := rng.Float64() * 100
		items = append(items, v)
		n.Insert(v)
	}
	qs := make([]float64, 25)
	for i := range qs {
		qs[i] = rng.Float64() * 100
	}
	const eps = 4.0
	batch := n.BatchRange(qs, eps)
	if len(batch) != len(qs) {
		t.Fatalf("batch returned %d result sets, want %d", len(batch), len(qs))
	}
	for i, q := range qs {
		got := append([]float64(nil), batch[i]...)
		sort.Float64s(got)
		want := sortedScan(items, q, eps)
		if !equalFloats(got, want) {
			t.Errorf("query %d (q=%v): batch %d items, scan %d", i, q, len(got), len(want))
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	n := New(absDist)
	for i := 0; i < 100; i++ {
		n.Insert(float64(i))
	}
	st := n.Stats()
	if st.Nodes != 100 {
		t.Errorf("Stats.Nodes = %d", st.Nodes)
	}
	if st.ParentLinks < 99 {
		t.Errorf("ParentLinks = %d, want ≥ 99 (every non-root node has ≥ 1 parent)", st.ParentLinks)
	}
	if st.AvgParents < 1 {
		t.Errorf("AvgParents = %v, want ≥ 1", st.AvgParents)
	}
	if st.StructBytes <= 0 {
		t.Errorf("StructBytes = %d", st.StructBytes)
	}
	withPayload := n.StatsWithPayload(func(float64) int { return 8 })
	if withPayload.PayloadBytes != 800 {
		t.Errorf("PayloadBytes = %d, want 800", withPayload.PayloadBytes)
	}
	if withPayload.TotalBytes() != withPayload.StructBytes+800 {
		t.Errorf("TotalBytes inconsistent")
	}
}

func TestPruningBeatsLinearScanOnClusteredData(t *testing.T) {
	// The net must actually prune: on well-separated clusters, a small
	// range query should compute far fewer distances than a full scan.
	rng := rand.New(rand.NewPCG(13, 14))
	counter := metric.NewCounter(absDist)
	n := New(counter.Distance)
	const N = 2000
	for i := 0; i < N; i++ {
		cluster := float64(i%20) * 1000
		n.Insert(cluster + rng.Float64())
	}
	counter.Reset()
	n.Range(5000.5, 2)
	calls := counter.Calls()
	if calls >= N/2 {
		t.Errorf("range query computed %d distances out of %d; pruning ineffective", calls, N)
	}
}

// TestKNNClusteredPrunes holds the net's nearest-neighbour read, a
// session's MinDist under a wide cap, to a linear scan on 20 well-separated
// clusters, and to far fewer distances than the scan computes.
func TestKNNClusteredPrunes(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 64))
	counter := metric.NewCounter(absDist)
	n := New(counter.Distance)
	const N = 2000
	least := math.Inf(1)
	for i := 0; i < N; i++ {
		v := float64(i%20)*1000 + rng.Float64()
		n.Insert(v)
		least = min(least, absDist(5000.5, v))
	}
	counter.Reset()
	if got := minDist(n, 5000.5, 1000); got != least {
		t.Fatalf("MinDist = %v, linear scan %v", got, least)
	}
	if calls := counter.Calls(); calls >= N/2 {
		t.Errorf("MinDist computed %d distances of %d; branch-and-bound ineffective", calls, N)
	}
}

func TestLevelHistogram(t *testing.T) {
	n := New(absDist)
	for i := 0; i < 64; i++ {
		n.Insert(float64(i))
	}
	hist := n.LevelHistogram()
	if len(hist) == 0 {
		t.Fatal("empty level histogram")
	}
	total := 0
	prev := -1 << 30
	for _, h := range hist {
		if h.Level <= prev {
			t.Error("histogram not sorted by level")
		}
		prev = h.Level
		total += h.Count
	}
	if total != 64 {
		t.Errorf("histogram total %d, want 64", total)
	}
}
