package refnet

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// The measured cover radius under mutation. Every traversal prunes with
// Node.rho, so these tests hold it to its definition after every insert,
// delete and Save→Load, and hold every query surface to a linear scan —
// in particular at the radii where the pruning rules sit on their
// boundary.

// stormPt carries an identity so result sets compare exactly even when
// coordinates repeat (the integer metric produces many duplicates and
// ties on purpose). Exported fields: Save encodes items with gob.
type stormPt struct {
	ID   int
	X, Y float64
}

// manhattan on integer coordinates is an integer-valued metric: sums and
// differences of its values are exact in float64, so d == ε and
// d == ε + ρ occur exactly and often.
func manhattan(a, b stormPt) float64 { return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y) }

func euclid(a, b stormPt) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// scratchRho recomputes every cover radius bottom-up from the stored edge
// distances alone, independently of raise and settle.
func scratchRho[T any](n *Net[T]) map[*Node[T]]float64 {
	memo := map[*Node[T]]float64{}
	var rec func(x *Node[T]) float64
	rec = func(x *Node[T]) float64 {
		if v, ok := memo[x]; ok {
			return v
		}
		var r float64
		for _, e := range x.children {
			if v := e.d + rec(e.n); v > r {
				r = v
			}
		}
		memo[x] = r
		return r
	}
	n.walk(func(x *Node[T]) { rec(x) })
	return memo
}

// checkRho asserts, for every node, that rho equals the from-scratch
// recompute bit for bit and that a brute walk of the subtree finds no
// descendant farther than rho (slack absorbs float rounding in the
// triangle inequality; the integer metric runs with 0).
func checkRho[T any](t *testing.T, n *Net[T], slack float64) {
	t.Helper()
	want := scratchRho(n)
	n.walk(func(x *Node[T]) {
		if math.Float64bits(x.rho) != math.Float64bits(want[x]) {
			t.Fatalf("level-%d node holds rho %v, bottom-up recompute gives %v", x.level, x.rho, want[x])
		}
		seen := map[*Node[T]]bool{}
		var down func(y *Node[T])
		down = func(y *Node[T]) {
			for _, e := range y.children {
				if seen[e.n] {
					continue
				}
				seen[e.n] = true
				if d := n.dist(x.item, e.n.item); d > x.rho+slack {
					t.Fatalf("level-%d node has a descendant at %v, beyond its rho %v", x.level, d, x.rho)
				}
				down(e.n)
			}
		}
		down(x)
	})
}

func ids(items []stormPt) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	slices.Sort(out)
	return out
}

// checkQueries holds Range and BatchRange to a linear scan of the live
// items (checkSession does the same for MinDist), at a random radius, at 0,
// and at the two boundary radii of a random node c: ε = δ(q,c) (c sits
// exactly on the ball) and ε = δ(q,c) − ρ(c) (c sits at exactly ε + ρ,
// where rule 3 must not prune). It returns how many (query, radius) pairs had an item at exactly
// d = ε and at exactly d = ε + ρ of some node, so the storm can prove the
// boundary cases ran.
func checkQueries(t *testing.T, n *Net[stormPt], live []*Node[stormPt], rng *rand.Rand, draw func() stormPt) (onBall, onCover int) {
	t.Helper()
	items := make([]stormPt, len(live))
	for i, h := range live {
		items[i] = h.item
	}
	for range 3 {
		q := draw()
		if len(items) > 0 && rng.IntN(2) == 0 {
			q = items[rng.IntN(len(items))]
		}
		radii := []float64{0, rng.Float64() * 30}
		if len(live) > 0 {
			c := live[rng.IntN(len(live))]
			d := n.dist(q, c.item)
			radii = append(radii, d)
			if d >= c.rho {
				radii = append(radii, d-c.rho)
			}
		}
		for _, eps := range radii {
			var want []stormPt
			for _, it := range items {
				if n.dist(q, it) <= eps {
					want = append(want, it)
				}
			}
			for _, h := range live {
				d := n.dist(q, h.item)
				if d == eps {
					onBall++
				}
				if h.rho > 0 && d == eps+h.rho {
					onCover++
				}
			}
			if got := n.Range(q, eps); !slices.Equal(ids(got), ids(want)) {
				t.Fatalf("Range(%v, %v) = ids %v, linear scan %v", q, eps, ids(got), ids(want))
			}
			// The batch carries q beside two other probes so frame masks
			// split and merge on the way down.
			qs := []stormPt{draw(), q, draw()}
			for i, got := range n.BatchRange(qs, eps) {
				var w []stormPt
				for _, it := range items {
					if n.dist(qs[i], it) <= eps {
						w = append(w, it)
					}
				}
				if !slices.Equal(ids(got), ids(w)) {
					t.Fatalf("BatchRange probe %d (%v, %v) = ids %v, linear scan %v", i, qs[i], eps, ids(got), ids(w))
				}
			}
		}
	}
	return onBall, onCover
}

// stormEval prices probes through the net's distance and audits what a
// session asks of its evaluator: every idxs ascending, and no (probe, item)
// pair asked again once its exact distance has been returned. When bounded
// it answers the next float above the bound for a pair over it — the least
// an abandoned evaluation proves, and a lower bound as the BatchEvaluator
// contract asks — and such an answer records nothing: the session cannot
// have kept it either.
type stormEval struct {
	t       *testing.T
	dist    func(a, b stormPt) float64
	qs      []stormPt
	bounded bool
	known   map[[2]int]bool // (probe index, item ID) → exact distance returned
	priced  int
}

func (e *stormEval) Exact() bool { return !e.bounded }

func (e *stormEval) EvalBatch(item stormPt, idxs []int32, bound float64, out []float64) {
	if !slices.IsSorted(idxs) {
		e.t.Fatalf("EvalBatch got idxs %v, not ascending", idxs)
	}
	for k, qi := range idxs {
		key := [2]int{int(qi), item.ID}
		if e.known[key] {
			e.t.Fatalf("probe %d priced against item %d a second time in one session", qi, item.ID)
		}
		e.priced++
		out[k] = e.dist(e.qs[qi], item)
		if e.bounded && out[k] > bound {
			out[k] = math.Nextafter(bound, math.Inf(1))
			continue
		}
		e.known[key] = true
	}
}

// checkSession holds a session's two reads to a linear scan: MinDist at a cap just below, at and above the true
// minimum, then Range at three radii ascending and again descending, all on
// the one session, under an exact and under a bounded evaluator. It returns
// the evaluations the sessions asked for and the evaluations the same Range
// calls cost without a session, so the storm can prove distances were kept.
func checkSession(t *testing.T, n *Net[stormPt], live []*Node[stormPt], rng *rand.Rand, draw func() stormPt) (kept, fresh int) {
	t.Helper()
	qs := []stormPt{draw(), draw(), draw(), draw()}
	if rng.IntN(2) == 0 {
		qs[1] = live[rng.IntN(len(live))].item
	}
	least := math.Inf(1)
	for _, q := range qs {
		for _, h := range live {
			least = min(least, n.dist(q, h.item))
		}
	}
	c := live[rng.IntN(len(live))]
	radii := []float64{least, n.dist(qs[2], c.item), least + rng.Float64()*12}
	slices.Sort(radii)
	radii = append(radii, radii[2], radii[1], radii[0])
	for _, bounded := range []bool{false, true} {
		ev := &stormEval{t: t, dist: n.dist, qs: qs, bounded: bounded, known: map[[2]int]bool{}}
		s := n.OpenSession(qs, ev)
		for _, cap := range []float64{math.Nextafter(least, math.Inf(-1)), least, least + 1.5} {
			want := least
			if least > cap {
				want = math.Inf(1)
			}
			if got := s.MinDist(cap); got != want {
				t.Fatalf("MinDist(%v) = %v (bounded evaluator: %v), linear scan says %v", cap, got, bounded, want)
			}
		}
		for _, eps := range radii {
			// The same read on a session of its own, for what it costs
			// with nothing kept.
			count := &stormEval{t: t, dist: n.dist, qs: qs, known: map[[2]int]bool{}}
			fs := n.OpenSession(qs, count)
			fs.Range(eps)
			fs.Close()
			fresh += count.priced
			for i, got := range s.Range(eps) {
				var want []stormPt
				for _, h := range live {
					if n.dist(qs[i], h.item) <= eps {
						want = append(want, h.item)
					}
				}
				if !slices.Equal(ids(got), ids(want)) {
					t.Fatalf("session Range(%v) probe %d = ids %v (bounded evaluator: %v), linear scan %v",
						eps, i, ids(got), bounded, ids(want))
				}
			}
		}
		s.Close()
		kept += ev.priced
	}
	return kept, fresh
}

func TestCoverRadiusStorm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dist    func(a, b stormPt) float64
		integer bool
		parents int
	}{
		{"integer/uncapped", manhattan, true, 0},
		{"integer/max2", manhattan, true, 2},
		{"float/uncapped", euclid, false, 0},
		{"float/max2", euclid, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(2207, uint64(len(tc.name))))
			nextID := 0
			draw := func() stormPt {
				nextID++
				if tc.integer {
					return stormPt{nextID, float64(rng.IntN(24)), float64(rng.IntN(24))}
				}
				return stormPt{nextID, rng.Float64() * 24, rng.Float64() * 24}
			}
			slack := 1e-9
			if tc.integer {
				slack = 0
			}
			n := New(tc.dist, WithBase(0.75), WithMaxParents(tc.parents))
			var live []*Node[stormPt]
			var onBall, onCover, deletes, rootDeletes, loads, kept, fresh int
			for step := 0; step < 220; step++ {
				switch r := rng.IntN(20); {
				case r == 0 && len(live) > 0:
					// Save → Load: carry on with the restored net, handles
					// re-collected in its walk order.
					var buf bytes.Buffer
					if err := n.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(&buf, tc.dist)
					if err != nil {
						t.Fatal(err)
					}
					n, live = loaded, live[:0]
					n.Walk(func(h *Node[stormPt]) { live = append(live, h) })
					loads++
				case r < 8 && len(live) > 8:
					i := rng.IntN(len(live))
					if r == 1 {
						i = slices.Index(live, n.root)
						rootDeletes++
					}
					if err := n.Delete(live[i]); err != nil {
						t.Fatal(err)
					}
					live = slices.Delete(live, i, i+1)
					deletes++
				default:
					live = append(live, n.InsertTracked(draw()))
				}
				if err := n.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkRho(t, n, slack)
				b, c := checkQueries(t, n, live, rng, draw)
				onBall, onCover = onBall+b, onCover+c
				k, f := checkSession(t, n, live, rng, draw)
				kept, fresh = kept+k, fresh+f
			}
			if deletes < 20 || rootDeletes == 0 || loads == 0 {
				t.Fatalf("storm too tame: %d deletes, %d of the root, %d reloads", deletes, rootDeletes, loads)
			}
			t.Logf("sessions: %d evaluations for 3 MinDist + 6 Range reads; the Range reads alone, sessionless: %d", kept, fresh)
			if kept >= fresh {
				t.Fatalf("sessions kept nothing: %d evaluations for three MinDist and six Range reads, %d for the Range reads alone without a session", kept, fresh)
			}
			if onBall == 0 || onCover == 0 {
				t.Fatalf("boundary radii never hit: %d items at d = ε, %d at d = ε + ρ", onBall, onCover)
			}
		})
	}
}

// A net restored from a snapshot holds, on every node, the very cover
// radius the live net held when it was saved — the stream does not carry
// radii, Load re-derives them from the stored edge distances.
func TestLoadRestoresCoverRadii(t *testing.T) {
	rng := rand.New(rand.NewPCG(2208, 1))
	n := New(euclid, WithBase(0.5))
	var live []*Node[stormPt]
	for i := 0; i < 300; i++ {
		live = append(live, n.InsertTracked(stormPt{i, rng.Float64() * 40, rng.Float64() * 40}))
	}
	for i := 0; i < 80; i++ {
		j := rng.IntN(len(live))
		if err := n.Delete(live[j]); err != nil {
			t.Fatal(err)
		}
		live = slices.Delete(live, j, j+1)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, euclid)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	// Save writes nodes in walk order and Load keeps child order, so the
	// two walks pair the nodes up.
	var was, is []*Node[stormPt]
	n.Walk(func(h *Node[stormPt]) { was = append(was, h) })
	loaded.Walk(func(h *Node[stormPt]) { is = append(is, h) })
	if len(was) != len(is) {
		t.Fatalf("%d nodes saved, %d restored", len(was), len(is))
	}
	nonzero := 0
	for i := range was {
		if was[i].item.ID != is[i].item.ID {
			t.Fatalf("walk position %d: item %d saved, %d restored", i, was[i].item.ID, is[i].item.ID)
		}
		if math.Float64bits(was[i].rho) != math.Float64bits(is[i].rho) {
			t.Fatalf("item %d: rho %v live, %v restored", was[i].item.ID, was[i].rho, is[i].rho)
		}
		if was[i].rho > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("vacuous: no node with children")
	}
}
