package dist

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestDTWValues(t *testing.T) {
	dtw := DTW(AbsDiff)
	if d := dtw([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Errorf("DTW identical = %v", d)
	}
	// Warping absorbs repeats at no cost.
	if d := dtw([]float64{1, 2}, []float64{1, 2, 2, 2}); d != 0 {
		t.Errorf("DTW repeat warp = %v, want 0", d)
	}
	if d := dtw([]float64{0}, []float64{5}); d != 5 {
		t.Errorf("DTW singletons = %v", d)
	}
	if d := dtw(nil, nil); d != 0 {
		t.Errorf("DTW empty/empty = %v", d)
	}
	if d := dtw(nil, []float64{1}); !math.IsInf(d, 1) {
		t.Errorf("DTW empty/nonempty = %v, want +Inf", d)
	}
	// The textbook triangle-inequality violation that bars DTW from metric
	// indexes: warping lets both d(a,b) and d(b,c) collapse while d(a,c)
	// stays large.
	a, b, c := []float64{0, 0, 0}, []float64{0, 4, 0}, []float64{0, 4, 4, 0}
	if dtw(a, c) > dtw(a, b)+dtw(b, c) {
		t.Logf("DTW violates triangle: d(a,c)=%v > %v+%v — as documented",
			dtw(a, c), dtw(a, b), dtw(b, c))
	}
}

func TestERPValues(t *testing.T) {
	erp := ERP(AbsDiff, 0)
	if d := erp([]float64{1, 2, 3}, []float64{1, 3}); d != 2 {
		t.Errorf("ERP = %v, want 2 (gap the 2)", d)
	}
	if d := erp(nil, []float64{3, 4}); d != 7 {
		t.Errorf("ERP empty vs [3,4] = %v, want 7 (total gap cost)", d)
	}
	if d := erp(nil, nil); d != 0 {
		t.Errorf("ERP empty/empty = %v", d)
	}
	if d := erp([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("ERP identical = %v", d)
	}
}

func TestDiscreteFrechetValues(t *testing.T) {
	dfd := DiscreteFrechet(AbsDiff)
	if d := dfd([]float64{1, 2, 3, 4}, []float64{2, 2, 4, 4}); d != 1 {
		t.Errorf("DFD = %v, want 1", d)
	}
	// Max aggregation: one far-away element dominates.
	if d := dfd([]float64{0, 0, 100, 0}, []float64{0, 0, 0}); d != 100 {
		t.Errorf("DFD = %v, want 100", d)
	}
	if d := dfd(nil, nil); d != 0 {
		t.Errorf("DFD empty/empty = %v", d)
	}
	if d := dfd([]float64{1}, nil); !math.IsInf(d, 1) {
		t.Errorf("DFD nonempty/empty = %v, want +Inf", d)
	}
}

func randWalk(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += rng.Float64()*2 - 1
		s[i] = v
	}
	return s
}

// warpRule is a warping measure's recurrence written as its moves between
// pairs of prefix lengths: step is the cost of the move onto (i, j), a[:i]
// against b[:j], from (i-di, j-dj), +Inf where the measure makes no
// such move, and join folds a move's cost into the cost of the path before
// it. (0, 0) is the empty coupling, at cost 0.
type warpRule struct {
	step func(a, b []float64, i, j, di, dj int) float64
	join func(path, step float64) float64
}

var warpMoves = [...][2]int{{1, 1}, {1, 0}, {0, 1}}

// dtwRule and dfdRule make only the moves that couple two elements, the
// cost of the landing pair summed (DTW) or maxed (discrete Fréchet);
// erpRule also moves along the borders, pricing an element aligned with
// the gap element 0.
var (
	dtwRule = warpRule{step: coupledStep, join: func(p, c float64) float64 { return p + c }}
	dfdRule = warpRule{step: coupledStep, join: func(p, c float64) float64 { return max(p, c) }}
	erpRule = warpRule{
		step: func(a, b []float64, i, j, di, dj int) float64 {
			switch {
			case di == 1 && dj == 1:
				return coupledStep(a, b, i, j, di, dj)
			case di == 1:
				return AbsDiff(a[i-1], 0)
			default:
				return AbsDiff(b[j-1], 0)
			}
		},
		join: func(p, c float64) float64 { return p + c },
	}
)

func coupledStep(a, b []float64, i, j, _, _ int) float64 {
	if i == 0 || j == 0 {
		return math.Inf(1)
	}
	return AbsDiff(a[i-1], b[j-1])
}

// recurse is r's distance between the prefixes a[:i] and b[:j], written as
// plain recursion over the moves onto (i, j): slow, and independent of the
// rolling rows the measures fill.
func recurse(r warpRule, a, b []float64, i, j int) float64 {
	if i == 0 && j == 0 {
		return 0
	}
	v := math.Inf(1)
	for _, mv := range warpMoves {
		if i >= mv[0] && j >= mv[1] {
			v = min(v, r.join(recurse(r, a, b, i-mv[0], j-mv[1]), r.step(a, b, i, j, mv[0], mv[1])))
		}
	}
	return v
}

// optimalCoupling returns r's distance between a and b and an optimal
// coupling: the cells of a path from (0, 0) to (len(a), len(b)), traced
// back through moves whose folded cost equals the recurrence's value. It
// returns no path when the distance is +Inf.
func optimalCoupling(r warpRule, a, b []float64) (float64, [][2]int) {
	v := recurse(r, a, b, len(a), len(b))
	if math.IsInf(v, 1) {
		return v, nil
	}
	path := [][2]int{{len(a), len(b)}}
	for i, j := len(a), len(b); i > 0 || j > 0; path = append(path, [2]int{i, j}) {
		here := recurse(r, a, b, i, j)
		for _, mv := range warpMoves {
			if i >= mv[0] && j >= mv[1] &&
				r.join(recurse(r, a, b, i-mv[0], j-mv[1]), r.step(a, b, i, j, mv[0], mv[1])) == here {
				i, j = i-mv[0], j-mv[1]
				break
			}
		}
	}
	slices.Reverse(path)
	return v, path
}

// checkAlignment holds fn to r on random walks of 0 to 6 elements: fn's
// value equals the recurrence's bit for bit, and the traced path is a
// coupling from (0, 0) to (len(a), len(b)) of unit moves, each one the
// measure makes, whose folded costs equal that value bit for bit. A pair
// with one empty side has no coupling under DTW and discrete Fréchet, so
// fn must read +Inf there.
func checkAlignment(t *testing.T, fn Func[float64], r warpRule, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed))
	for trial := 0; trial < 300; trial++ {
		a, b := randWalk(rng, rng.IntN(7)), randWalk(rng, rng.IntN(7))
		v, path := optimalCoupling(r, a, b)
		if got := fn(a, b); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("trial %d: distance(%v, %v) = %v, recurrence %v", trial, a, b, got, v)
		}
		if path == nil {
			continue
		}
		if path[0] != ([2]int{0, 0}) || path[len(path)-1] != ([2]int{len(a), len(b)}) {
			t.Fatalf("trial %d: coupling %v does not run from (0,0) to (%d,%d)", trial, path, len(a), len(b))
		}
		var sum float64
		for k := 1; k < len(path); k++ {
			i, j := path[k][0], path[k][1]
			di, dj := i-path[k-1][0], j-path[k-1][1]
			c := r.step(a, b, i, j, di, dj)
			if !slices.Contains(warpMoves[:], [2]int{di, dj}) || math.IsInf(c, 1) {
				t.Fatalf("trial %d: coupling %v makes the move %v -> %v", trial, path, path[k-1], path[k])
			}
			sum = r.join(sum, c)
		}
		if math.Float64bits(sum) != math.Float64bits(v) {
			t.Fatalf("trial %d: coupling %v costs %v, distance %v", trial, path, sum, v)
		}
	}
}

func TestDTWAlignmentAgreesWithDistance(t *testing.T) {
	checkAlignment(t, DTW(AbsDiff), dtwRule, 1)
}

func TestFrechetAlignmentAgreesWithDistance(t *testing.T) {
	checkAlignment(t, DiscreteFrechet(AbsDiff), dfdRule, 2)
}

func TestERPAlignmentAgreesWithDistance(t *testing.T) {
	checkAlignment(t, ERP(AbsDiff, 0), erpRule, 3)
}
