package store

// The oracle: every query path of a live store held to one brute-force model.
// The hits at radius ε are every (segment, window) pair within ε (Lemma 3);
// the answer is what Section 7's candidate regions of those hits verify to.
// model computes that over a plain slice of sequences (nil when retired) and
// touches no Matcher, index, session or verifier: Fn prices every segment ×
// window, the regions follow the rule written on core's runRegions, one
// kernel table per start pair prices their union (TestKernelTablesMatchFn
// holds its cells to Fn), and Nearest's schedule is replayed on ε₀.

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

type model[E any] struct {
	m  dist.Measure[E]
	p  core.Params
	db []seq.Sequence[E]
}

type (
	span struct{ start, n int } // a query segment [start, start+n)
	win  struct{ seqID, ord int }
	// box is a candidate region: inclusive ranges for the starts and ends of
	// SQ and SX.
	box struct{ seqID, qs0, qs1, qe0, qe1, xs0, xs1, xe0, xe1 int }
)

// windows lists the live windows, l = λ/2 elements each.
func (mo *model[E]) windows() []win {
	var out []win
	for id, x := range mo.db {
		for ord := 0; (ord+1)*mo.p.WindowLen() <= len(x); ord++ {
			out = append(out, win{id, ord})
		}
	}
	return out
}

// mquery is the model of one query: its segments (lengths λ/2−λ0 … λ/2+λ0
// clamped to [1, |Q|], length by length), their distances to every window
// (d, and ascending in all), and the candidate prices found so far.
type mquery[E any] struct {
	*model[E]
	q      seq.Sequence[E]
	segs   []span
	wins   []win
	d      [][]float64
	all    []float64
	price  map[uint64]float64
	prep   dist.Prepared[E]
	k      dist.Kernel[E]
	widest int // the widest database side a table was bound to
}

func (mo *model[E]) query(q seq.Sequence[E]) *mquery[E] {
	o := &mquery[E]{model: mo, q: q, wins: mo.windows(), price: map[uint64]float64{}}
	l, lam0 := mo.p.WindowLen(), mo.p.Lambda0
	for n := max(l-lam0, 1); n <= min(l+lam0, len(q)); n++ {
		for s := 0; s+n <= len(q); s++ {
			o.segs = append(o.segs, span{s, n})
		}
	}
	for _, sg := range o.segs {
		row := make([]float64, len(o.wins))
		for j, w := range o.wins {
			row[j] = mo.m.Fn(q[sg.start:sg.start+sg.n], mo.db[w.seqID][w.ord*l:(w.ord+1)*l])
		}
		o.d = append(o.d, row)
		o.all = append(o.all, row...)
	}
	sort.Float64s(o.all)
	return o
}

// boxes are Section 7's candidate regions of the hits within eps. A hit of
// segment [a, b) on window [c, c+l) spans SQ start ∈ [a−l−λ0, a], SQ end ∈
// [b, b+l+λ0], SX start ∈ [c−l, c], SX end ∈ [c+l, c+2l], clamped. With runs,
// so does a pair of hits on the first and last of m ≥ 2 consecutive hit
// windows whose query span spanQ (first start to last end) is positive and
// within (m+1)·λ0 of m·l: with the first hit's starts and the last one's ends.
func (o *mquery[E]) boxes(eps float64, runs bool) []box {
	l, lam0 := o.p.WindowLen(), o.p.Lambda0
	hitOn := map[win][]int{} // the segments hitting each window
	for si, row := range o.d {
		for wi, d := range row {
			if d <= eps {
				hitOn[o.wins[wi]] = append(hitOn[o.wins[wi]], si)
			}
		}
	}
	seen := map[box]bool{}
	var out []box
	add := func(seqID, a, b, c, e int) {
		nq, nx := len(o.q), len(o.db[seqID])
		r := box{seqID, clamp(a-l-lam0, nq), clamp(a, nq), clamp(b, nq), clamp(b+l+lam0, nq),
			clamp(c-l, nx), clamp(c, nx), clamp(e, nx), clamp(e+l, nx)}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for w, sis := range hitOn {
		for _, si := range sis {
			a, c := o.segs[si].start, w.ord*l
			add(w.seqID, a, a+o.segs[si].n, c, c+l)
			for m := 2; runs; m++ {
				last, ok := hitOn[win{w.seqID, w.ord + m - 1}]
				if !ok {
					break
				}
				for _, sj := range last {
					b := o.segs[sj].start + o.segs[sj].n
					if spanQ := b - a; spanQ > 0 && max(spanQ-m*l, m*l-spanQ) <= (m+1)*lam0 {
						add(w.seqID, a, b, c, c+m*l)
					}
				}
			}
		}
	}
	return out
}

func clamp(v, hi int) int { return min(max(v, 0), hi) }

// key packs a candidate into one word: 16 bits of sequence ID, 12 of each
// coordinate.
func key(seqID, qs, qe, xs, xe int) uint64 {
	return uint64(seqID)<<48 | uint64(qs)<<36 | uint64(qe)<<24 | uint64(xs)<<12 | uint64(xe)
}

// candidates returns every candidate of the union of bs (SQ, SX ≥ λ long,
// lengths at most λ0 apart) with its distance, pricing new ones by start
// pair: a kernel bound to x[xs:] and fed q[qs:] holds δ(q[qs:qe], x[xs:xe]).
func (o *mquery[E]) candidates(bs []box) []core.Match {
	lam, lam0 := o.p.Lambda, o.p.Lambda0
	seen := map[uint64]bool{}
	var out []core.Match
	todo := map[[3]int][][2]int{} // (seqID, qs, xs) → unpriced (qe, xe)
	for _, r := range bs {
		for qs := r.qs0; qs <= r.qs1 && qs+lam <= r.qe1; qs++ {
			for xs := r.xs0; xs <= r.xs1 && xs+lam <= r.xe1; xs++ {
				for xe := max(r.xe0, xs+lam); xe <= r.xe1; xe++ {
					for qe := max(r.qe0, qs+lam, qs+xe-xs-lam0); qe <= min(r.qe1, qs+xe-xs+lam0); qe++ {
						if k := key(r.seqID, qs, qe, xs, xe); !seen[k] {
							seen[k] = true
							out = append(out, core.Match{SeqID: r.seqID, QStart: qs, QEnd: qe, XStart: xs, XEnd: xe})
							if _, ok := o.price[k]; !ok {
								todo[[3]int{r.seqID, qs, xs}] = append(todo[[3]int{r.seqID, qs, xs}], [2]int{qe, xe})
							}
						}
					}
				}
			}
		}
	}
	for st, ends := range todo {
		slices.SortFunc(ends, func(a, b [2]int) int { return a[0] - b[0] })
		cols := 0
		for _, e := range ends {
			cols = max(cols, e[1]-st[2])
		}
		o.widest = max(o.widest, cols)
		o.prep = o.m.Reprepare(o.prep, o.db[st[0]][st[2]:st[2]+cols])
		o.k = dist.BindKernel(o.k, o.prep)
		for i, e := 1, 0; e < len(ends); i++ {
			o.k.Feed(o.q[st[1]+i-1])
			for ; e < len(ends) && ends[e][0]-st[1] == i; e++ {
				o.price[key(st[0], st[1], ends[e][0], st[2], ends[e][1])] = o.k.At(ends[e][1] - st[2])
			}
		}
	}
	for i, m := range out {
		out[i].Dist = o.price[key(m.SeqID, m.QStart, m.QEnd, m.XStart, m.XEnd)]
	}
	return out
}

// findAll is Type I: every candidate of the single-hit regions within eps,
// in canonical order.
func (o *mquery[E]) findAll(eps float64) []core.Match {
	out := slices.DeleteFunc(o.candidates(o.boxes(eps, false)), func(m core.Match) bool { return m.Dist > eps })
	slices.SortFunc(out, core.CanonicalCompare)
	return out
}

// pick is the least candidate within eps under a strict total order, and
// whether another candidate has its distance.
func pick(ms []core.Match, eps float64, before func(a, b core.Match) bool) (best core.Match, found, tie bool) {
	for _, m := range ms {
		if m.Dist <= eps && (!found || before(m, best)) {
			best, found = m, true
		}
	}
	for _, m := range ms {
		tie = tie || found && m.Dist == best.Dist && m != best
	}
	return best, found, tie
}

// nearest is Type III as Nearest's doc and NearestOptions.Validate write it:
// the bisection of [0, EpsMax] on ε₀ to within EpsInc, then rounds at hi,
// +EpsInc, … clamped to EpsMax, until one confirms a pair or runs at EpsMax.
func (o *mquery[E]) nearest(opts core.NearestOptions) (best core.Match, found bool, rounds int, tie bool) {
	if !(opts.EpsMax > 0 && opts.EpsInc > 0 && opts.EpsMax/opts.EpsInc <= core.MaxNearestSteps) ||
		len(o.all) == 0 || o.all[0] > opts.EpsMax {
		return core.Match{}, false, 0, false
	}
	lo, hi := 0.0, opts.EpsMax
	if o.all[0] <= 0 {
		hi = 0
	}
	for hi-lo > opts.EpsInc {
		if mid := lo + (hi-lo)/2; o.all[0] <= mid {
			hi = mid
		} else {
			lo = mid
		}
	}
	hits := -1
	for eps := hi; ; eps += opts.EpsInc {
		eps = min(eps, opts.EpsMax)
		rounds++
		// A round that adds no hit has the last one's candidates.
		if n := sort.Search(len(o.all), func(i int) bool { return o.all[i] > eps }); n != hits {
			hits = n
			best, found, tie = pick(o.candidates(o.boxes(eps, true)), math.Inf(1), core.NearestBefore)
		}
		if found && best.Dist <= eps {
			return best, true, rounds, tie
		}
		if eps == opts.EpsMax {
			return core.Match{}, false, rounds, false
		}
	}
}

// hits checks a filter read: in segment order, each segment's windows within
// eps as a set (the net may order them differently).
func (o *mquery[E]) hits(got []core.Hit[E], eps float64) error {
	l, si := o.p.WindowLen(), 0
	gotBy := make([][]win, len(o.segs))
	for _, h := range got {
		for si < len(o.segs) && o.segs[si] != (span{h.Segment.Start, len(h.Segment.Data)}) {
			si++
		}
		if w := h.Window; si == len(o.segs) || w.Start != w.Ord*l || len(w.Data) != l {
			return fmt.Errorf("hit %v/%v is out of segment order or not a window", h.Segment, h.Window)
		}
		gotBy[si] = append(gotBy[si], win{h.Window.SeqID, h.Window.Ord})
	}
	for si, row := range o.d {
		var want []win
		for wi, d := range row {
			if d <= eps {
				want = append(want, o.wins[wi])
			}
		}
		slices.SortFunc(gotBy[si], func(a, b win) int { return 1<<20*(a.seqID-b.seqID) + a.ord - b.ord })
		if !slices.Equal(gotBy[si], want) {
			return fmt.Errorf("segment %v: windows %v, the oracle %v", o.segs[si], gotBy[si], want)
		}
	}
	return nil
}

// sameMatch compares field for field, Dist by its bits.
func sameMatch(a, b core.Match) bool {
	return a == b && math.Float64bits(a.Dist) == math.Float64bits(b.Dist)
}

func sameList(got, want []core.Match) error {
	if !slices.EqualFunc(got, want, sameMatch) {
		return fmt.Errorf("%d matches, the oracle %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	return nil
}

type op string

const (
	opFilter  op = "filter"
	opFindAll op = "findall"
	opLongest op = "longest"
	opNearest op = "nearest"
	opAppend  op = "append"
	opRetire  op = "retire"
	opRestore op = "restore"
)

// step is one step of a program: a query step answers Qs on Path at Eps
// (Opts for Type III); append adds X; retire retires ID.
type step[E any] struct {
	Op   op
	Path string
	Qs   []seq.Sequence[E]
	Eps  float64
	Opts core.NearestOptions
	X    seq.Sequence[E]
	ID   int
}

var (
	paths       = []string{"view", "batch", "pool1", "pool2", "pool5", "pool16", "submit"}
	poolWorkers = map[string]int{"pool1": 1, "pool2": 2, "pool5": 5, "pool16": 16, "submit": 2}
	allKinds    = []core.IndexKind{core.IndexRefNet, core.IndexCoverTree, core.IndexMV, core.IndexLinearScan}
)

// maxRounds caps a drawn Type III schedule: under -race thousands of rounds
// priced by Fn take minutes.
const maxRounds = 64

// shape is a measure with the stores its programs run on.
type shape[E any] struct {
	name   string
	m      dist.Measure[E]
	lambda int
	lam0s  []int // a program's λ0, rotating with backend and program
	kinds  []core.IndexKind
	elem   func(*rand.Rand) E
	seqLen int // the longest sequence generated
	qLen   int
	grid   float64 // radii on the grid are grid·0 … grid·gridN
	gridN  int
	steps  int
	// rounds makes every query Type III with EpsMax and EpsInc on the grid,
	// so every round runs at a radius a distance can equal.
	rounds   bool
	programs int // played per backend; 1 when unset
}

// config is a program's fixed part.
type config[E any] struct {
	sh   *shape[E]
	kind core.IndexKind
	p    core.Params
	db   []seq.Sequence[E]
}

// tally counts the shapes the programs met, so none goes missing unseen.
type tally map[string]int

func (sh *shape[E]) random(rng *rand.Rand, n int) seq.Sequence[E] {
	s := make(seq.Sequence[E], n)
	for i := range s {
		s[i] = sh.elem(rng)
	}
	return s
}

// cut copies n elements of a random live sequence at least n long and
// changes up to n/8+1 of them; without one it draws n fresh elements.
func (sh *shape[E]) cut(rng *rand.Rand, db []seq.Sequence[E], n int) seq.Sequence[E] {
	from := slices.DeleteFunc(slices.Clone(db), func(x seq.Sequence[E]) bool { return len(x) < n })
	if len(from) == 0 || rng.IntN(5) == 0 {
		return sh.random(rng, n)
	}
	x := from[rng.IntN(len(from))]
	at := rng.IntN(len(x) - n + 1)
	out := slices.Clone(x[at : at+n])
	for k := rng.IntN(n/8 + 2); k > 0; k-- {
		out[rng.IntN(n)] = sh.elem(rng)
	}
	return out
}

// centred cuts λ elements from half a window into a live sequence and changes
// the one window they hold whole in one place: the whole query is then a pair
// at about ε₀, found with EpsMax = ε₀.
func (c *config[E]) centred(rng *rand.Rand, db []seq.Sequence[E]) seq.Sequence[E] {
	lam, l := c.p.Lambda, c.p.WindowLen()
	from := slices.DeleteFunc(slices.Clone(db), func(x seq.Sequence[E]) bool { return len(x) < lam+l })
	if len(from) == 0 {
		return c.sh.cut(rng, db, c.sh.qLen)
	}
	x := from[rng.IntN(len(from))]
	at := l/2 + l*rng.IntN((len(x)-lam-l/2)/l+1)
	q := slices.Clone(x[at : at+lam])
	q[l] = c.sh.elem(rng)
	return q
}

// generate draws n steps, keeping a model to cut queries and draw radii from.
func (c *config[E]) generate(rng *rand.Rand, n int) []step[E] {
	mo := &model[E]{c.sh.m, c.p, slices.Clone(c.db)}
	var prog []step[E]
	for len(prog) < n {
		var st step[E]
		switch k := rng.IntN(20); {
		case k < 3:
			st = step[E]{Op: opAppend, X: c.sh.cut(rng, mo.db, 1+rng.IntN(c.sh.seqLen))}
			mo.db = append(mo.db, st.X)
		case k < 5:
			st = step[E]{Op: opRetire, ID: rng.IntN(len(mo.db) + 1)}
			if st.ID < len(mo.db) && c.kind != core.IndexCoverTree {
				mo.db[st.ID] = nil
			}
		case k < 6:
			st = step[E]{Op: opRestore}
		default:
			ops := []op{opFilter, opFindAll, opLongest, opNearest, opNearest}
			if c.sh.rounds {
				ops = ops[3:]
			}
			st = step[E]{Op: ops[rng.IntN(len(ops))], Path: paths[rng.IntN(len(paths))]}
			for range 1 + rng.IntN(3) {
				n := c.sh.qLen - 2 + rng.IntN(5)
				if rng.IntN(16) == 0 {
					n = 1 + rng.IntN(c.p.WindowLen()) // shorter than some segments, or all
				}
				st.Qs = append(st.Qs, c.sh.cut(rng, mo.db, n))
			}
			if st.Op == opNearest && rng.IntN(3) == 0 {
				st.Qs[0] = c.centred(rng, mo.db)
			}
			if st.Op == opNearest {
				st.Path = strings.Replace(st.Path, "batch", "view", 1) // there is no NearestBatch
			}
			switch o := mo.query(st.Qs[0]); {
			case st.Op != opNearest:
				st.Eps = c.radius(rng, o)
			case c.sh.rounds:
				st.Opts = core.NearestOptions{EpsMax: c.sh.grid * float64(2+2*rng.IntN(4)), EpsInc: c.sh.grid * float64(1+rng.IntN(2))}
			default:
				for st.Opts = c.nearestOptions(rng, o); slices.ContainsFunc(st.Qs, func(q seq.Sequence[E]) bool {
					_, _, rounds, _ := mo.query(q).nearest(st.Opts)
					return rounds > maxRounds
				}); st.Opts = c.nearestOptions(rng, o) {
				}
			}
		}
		prog = append(prog, st)
	}
	return prog
}

// radius draws ε on the grid, at a small segment–window distance, or at a
// candidate's distance.
func (c *config[E]) radius(rng *rand.Rand, o *mquery[E]) float64 {
	grid := float64(rng.IntN(c.sh.gridN+1)) * c.sh.grid
	switch rng.IntN(3) {
	case 1:
		if len(o.all) > 0 {
			return o.all[rng.IntN(1+len(o.all)/8)]
		}
	case 2:
		if ms := o.findAll(grid); len(ms) > 0 {
			return ms[rng.IntN(len(ms))].Dist
		}
	}
	return grid
}

// nearestOptions draws EpsMax at ε₀, under it, off the grid, or at 2^k grid
// steps (the bisection then ends on the grid), and EpsInc as the serving
// default, the finest allowed, the grid step, or off-grid between.
func (c *config[E]) nearestOptions(rng *rand.Rand, o *mquery[E]) core.NearestOptions {
	eps0, top := math.Inf(1), float64(c.sh.gridN)*c.sh.grid
	if len(o.all) > 0 {
		eps0 = o.all[0]
	}
	onGrid := c.sh.grid * float64(int(1)<<rng.IntN(4))
	epsMax := []float64{eps0, 0.6 * eps0, eps0 + rng.Float64()*top, onGrid}[rng.IntN(4)]
	if !(epsMax > 0) || math.IsInf(epsMax, 1) {
		epsMax = onGrid
	}
	switch rng.IntN(4) {
	case 0:
		return core.DefaultNearestOptions(epsMax)
	case 1:
		return core.NearestOptions{EpsMax: epsMax, EpsInc: epsMax / core.MaxNearestSteps}
	case 2:
		return core.NearestOptions{EpsMax: epsMax, EpsInc: c.sh.grid}
	}
	return core.NearestOptions{EpsMax: epsMax, EpsInc: epsMax / math.Exp(rng.Float64()*math.Log(core.MaxNearestSteps))}
}

// runner plays one program.
type runner[E any] struct {
	c     *config[E]
	s     *Store[E]
	mo    *model[E]
	pools map[int]*core.QueryPool[E]
	tl    tally
	// queried and restored track a restore in the middle of a program.
	queried, restored bool
}

// run plays prog against a store and the model; it returns the first
// divergence.
func (c *config[E]) run(prog []step[E], tl tally) (err error) {
	r := &runner[E]{c: c, mo: &model[E]{c.sh.m, c.p, slices.Clone(c.db)}, pools: map[int]*core.QueryPool[E]{}, tl: tl}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
		r.closePools()
	}()
	if r.s, err = New(c.sh.m, core.Config{Params: c.p, Index: c.kind, MVRefs: 3}, slices.Clone(c.db)); err != nil {
		return err
	}
	for i, st := range prog {
		if st.Path == "" {
			err = r.mutate(st)
		} else {
			err = r.query(st)
		}
		if err != nil {
			return fmt.Errorf("step %d (%s %s): %w", i, st.Op, st.Path, err)
		}
	}
	return nil
}

func (r *runner[E]) pool(path string) *core.QueryPool[E] {
	w := poolWorkers[path]
	if r.pools[w] == nil {
		r.pools[w] = r.s.NewQueryPool(w)
	}
	return r.pools[w]
}

func (r *runner[E]) closePools() {
	for w, p := range r.pools {
		p.Close()
		delete(r.pools, w)
	}
}

func (r *runner[E]) mutate(st step[E]) error {
	l := r.c.p.WindowLen()
	switch st.Op {
	case opAppend:
		got, err := r.s.Append(st.X)
		if want := (AppendResult{SeqID: len(r.mo.db), Windows: len(st.X) / l}); err != nil || got != want {
			return fmt.Errorf("Append = %+v, %v; want %+v", got, err, want)
		}
		r.mo.db = append(r.mo.db, st.X)
	case opRetire:
		switch removed, err := r.s.Retire(st.ID); {
		case st.ID >= len(r.mo.db) || r.mo.db[st.ID] == nil:
			if err == nil {
				return fmt.Errorf("Retire(%d) of no live sequence removed %d", st.ID, removed)
			}
		case r.c.kind == core.IndexCoverTree:
			if !errors.Is(err, core.ErrRetireUnsupported) {
				return fmt.Errorf("cover tree Retire = %d, %v; want ErrRetireUnsupported", removed, err)
			}
			r.tl["a refused cover-tree retire"]++
		case err != nil || removed != len(r.mo.db[st.ID])/l:
			return fmt.Errorf("Retire = %d, %v; want %d", removed, err, len(r.mo.db[st.ID])/l)
		default:
			r.mo.db[st.ID] = nil
		}
	case opRestore:
		var buf bytes.Buffer
		if err := r.s.Snapshot(&buf); err != nil {
			return err
		}
		s, err := Open(&buf, r.c.sh.m, nil)
		if err != nil {
			return err
		}
		r.closePools()
		r.s, r.restored = s, r.queried
	}
	mt := r.s.Matcher()
	if !slices.EqualFunc(mt.DB(), r.mo.db, func(a, b seq.Sequence[E]) bool { return len(a) == len(b) && (a == nil) == (b == nil) }) ||
		mt.NumWindows() != len(r.mo.windows()) {
		return fmt.Errorf("store holds %d windows over %d sequences; the model %d over %d", mt.NumWindows(), len(mt.DB()), len(r.mo.windows()), len(r.mo.db))
	}
	return nil
}

// answer is what one query of a step got back.
type answer[E any] struct {
	hits []core.Hit[E]
	ms   []core.Match
	best core.QueryResult
}

func (r *runner[E]) query(st step[E]) error {
	if r.restored {
		r.tl["a query after a mid-program restore"]++
	}
	r.queried = true
	// A panic on a barrier worker ends the binary before the shrinker runs,
	// so a pool step is answered under View first, where it is recovered.
	ps := []string{st.Path}
	if strings.HasPrefix(st.Path, "pool") {
		ps = []string{"view", st.Path}
	}
	models := make([]*mquery[E], len(st.Qs))
	for i, q := range st.Qs {
		models[i] = r.mo.query(q)
	}
	for _, path := range ps {
		got, err := r.ask(st, path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for i, o := range models {
			if err := r.check(st, o, got[i]); err != nil {
				return fmt.Errorf("%s, query %d %v: %w", path, i, o.q, err)
			}
			if o.widest > 64 {
				r.tl["a bound window over 64 elements"]++
			}
		}
	}
	return nil
}

// ask runs st's queries on path.
func (r *runner[E]) ask(st step[E], path string) ([]answer[E], error) {
	qs, eps, out := st.Qs, st.Eps, make([]answer[E], len(st.Qs))
	switch path {
	case "view":
		mt, release := r.s.View()
		defer release()
		for i, q := range qs {
			var m core.Match
			var ok bool
			switch st.Op {
			case opFilter:
				out[i].hits = mt.FilterHits(q, eps)
			case opFindAll:
				out[i].ms = mt.FindAll(q, eps)
			case opLongest:
				m, ok = mt.Longest(q, eps)
			case opNearest:
				m, ok = mt.Nearest(q, st.Opts)
			}
			out[i].best = core.QueryResult{Match: m, Found: ok}
		}
	case "submit":
		p, ctx := r.pool(path), context.Background()
		var awaits []func() error
		for i, q := range qs {
			switch st.Op {
			case opFilter:
				f := p.SubmitFilter(ctx, q, eps)
				awaits = append(awaits, func() (err error) { out[i].hits, err = f.Await(ctx); return err })
			case opFindAll:
				f := p.Submit(ctx, q, eps)
				awaits = append(awaits, func() (err error) { out[i].ms, err = f.Await(ctx); return err })
			case opLongest:
				f := p.SubmitLongest(ctx, q, eps)
				awaits = append(awaits, func() (err error) { out[i].best, err = f.Await(ctx); return err })
			case opNearest:
				f := p.SubmitNearest(ctx, q, st.Opts)
				awaits = append(awaits, func() (err error) { out[i].best, err = f.Await(ctx); return err })
			}
		}
		for _, await := range awaits {
			if err := await(); err != nil {
				return nil, err
			}
		}
	default: // the *Batch loops or a pool barrier
		var hits [][]core.Hit[E]
		var ms [][]core.Match
		var best []core.Match
		var found []bool
		if path == "batch" {
			mt, release := r.s.View()
			defer release()
			switch st.Op {
			case opFilter:
				hits = mt.FilterHitsBatch(qs, eps)
			case opFindAll:
				ms = mt.FindAllBatch(qs, eps)
			case opLongest:
				best, found = mt.LongestBatch(qs, eps)
			}
		} else {
			switch p := r.pool(path); st.Op {
			case opFilter:
				hits = p.FilterHits(qs, eps)
			case opFindAll:
				ms = p.FindAll(qs, eps)
			case opLongest:
				best, found = p.Longest(qs, eps)
			case opNearest:
				best, found = p.Nearest(qs, st.Opts)
			}
		}
		for i := range out {
			switch {
			case hits != nil:
				out[i].hits = hits[i]
			case ms != nil:
				out[i].ms = ms[i]
			default:
				out[i].best = core.QueryResult{Match: best[i], Found: found[i]}
			}
		}
	}
	return out, nil
}

// check holds one answer to the model and tallies the shapes it shows.
func (r *runner[E]) check(st step[E], o *mquery[E], got answer[E]) error {
	var want core.Match
	var found bool
	switch st.Op {
	case opFilter:
		return o.hits(got.hits, st.Eps)
	case opFindAll:
		ms := o.findAll(st.Eps)
		if slices.ContainsFunc(ms, func(m core.Match) bool { return m.Dist == st.Eps }) {
			r.tl["a match at d == ε"]++
		}
		return sameList(got.ms, ms)
	case opLongest:
		if want, found, _ = pick(o.candidates(o.boxes(st.Eps, true)), st.Eps, core.LongestBefore); found && want.Dist == st.Eps {
			r.tl["a match at d == ε"]++
		}
	case opNearest:
		var rounds int
		var tie bool
		want, found, rounds, tie = o.nearest(st.Opts)
		for what, saw := range map[string]bool{
			"ε₀ = 0":                   len(o.all) > 0 && o.all[0] == 0,
			"found at EpsMax = ε₀":     found && st.Opts.EpsMax == o.all[0],
			"a Type III not found":     !found,
			"three rounds or more":     rounds >= 3,
			"a Type III canonical tie": found && tie,
			"five rounds on " + r.c.sh.name + " under DefaultNearestOptions": rounds >= 5 && st.Opts == core.DefaultNearestOptions(st.Opts.EpsMax),
		} {
			if saw {
				r.tl[what]++
			}
		}
	}
	if got.best.Found != found || found && !sameMatch(got.best.Match, want) {
		return fmt.Errorf("%v, %v; the oracle %v, %v", got.best.Match, got.best.Found, want, found)
	}
	return nil
}

// fail shrinks a failing program by greedy step deletion and prints it.
func (c *config[E]) fail(t *testing.T, seed uint64, prog []step[E], err error) {
	t.Helper()
	n := len(prog)
	for shrunk := true; shrunk; {
		shrunk = false
		for i := len(prog) - 1; i >= 0; i-- {
			shorter := slices.Delete(slices.Clone(prog), i, i+1)
			if e := c.run(shorter, tally{}); e != nil {
				prog, err, shrunk = shorter, e, true
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %v, λ=%d λ0=%d, seed %d: %v\n", c.sh.name, c.kind, c.p.Lambda, c.p.Lambda0, seed, err)
	if len(c.db) <= 8 {
		fmt.Fprintf(&b, "database:\n\t%#v\n", c.db)
	}
	fmt.Fprintf(&b, "program, shrunk from %d steps to %d:\n", n, len(prog))
	for _, st := range prog {
		fmt.Fprintf(&b, "\t%#v,\n", st)
	}
	t.Fatal(b.String())
}

// runShape plays seeded programs of sh on its backends, none after a failure.
func runShape[E any](t *testing.T, tl tally, sh shape[E]) {
	for k, kind := range sh.kinds {
		if t.Failed() {
			return
		}
		t.Run(sh.name+"/"+kind.String(), func(t *testing.T) {
			for i := range max(sh.programs, 1) {
				seed := uint64(100*i + k)
				rng := rand.New(rand.NewPCG(seed, uint64(len(sh.name))))
				c := &config[E]{sh: &sh, kind: kind, p: core.Params{Lambda: sh.lambda, Lambda0: sh.lam0s[(i+k)%len(sh.lam0s)]}}
				for range 3 {
					c.db = append(c.db, sh.random(rng, sh.seqLen/2+rng.IntN(sh.seqLen/2+1)))
				}
				prog := c.generate(rng, sh.steps)
				if err := c.run(prog, tl); err != nil {
					c.fail(t, seed, prog, err)
				}
			}
		})
	}
}

// runSeqShape plays Type III under the serving schedule on a -seq workload's
// shape: the net over a dataset, λ = 40, λ0 = 1, 45-element queries.
func runSeqShape[E any](t *testing.T, tl tally, name string, m dist.Measure[E], ds data.Dataset[E],
	rate float64, mutate func(*rand.Rand, E) E, epsMax float64, queries int) {
	if t.Failed() {
		return
	}
	t.Run(name, func(t *testing.T) {
		c := &config[E]{sh: &shape[E]{name: name, m: m}, kind: core.IndexRefNet, p: core.Params{Lambda: 40, Lambda0: 1}, db: ds.Sequences}
		var prog []step[E]
		for i := range queries {
			prog = append(prog, step[E]{Op: opNearest, Path: []string{"view", "pool2", "submit"}[i%3],
				Qs: []seq.Sequence[E]{data.RandomQuery(ds, 45, rate, mutate, uint64(i+1))}, Opts: core.DefaultNearestOptions(epsMax)})
		}
		if err := c.run(prog, tl); err != nil {
			c.fail(t, 0, prog, err)
		}
	})
}

// Every query path of a live store answers what the model answers, through
// appends, retires and restores, on every backend and kind of measure: Myers
// in word and block form, row kernels over bytes, floats and points, DFD and
// DTW with no kernel, the lock-step measures, and bound-only and Fn-only.
func TestProgramsMatchOracle(t *testing.T) {
	seqWindows, seqQueries := 200, 12
	if testing.Short() {
		seqWindows, seqQueries = 120, 12
	}
	tl := tally{}
	letter := func(rng *rand.Rand) byte { return "ACGT"[rng.IntN(4)] }
	residue := func(rng *rand.Rand) byte { return "ACDEFGHIKLMNPQRSTVWY"[rng.IntN(20)] }
	level := func(rng *rand.Rand) float64 { return float64(rng.IntN(5)) }
	point := func(rng *rand.Rand) seq.Point2 {
		return seq.Point2{X: float64(rng.IntN(4)) + rng.Float64()/8, Y: float64(rng.IntN(4))}
	}
	shift, lockStep := []int{2, 1, 3, 0}, []int{0}
	boundedOnly := dist.LevenshteinMeasure[byte]()
	boundedOnly.Name, boundedOnly.Prepare = "levenshtein-bounded", nil
	fnOnly := boundedOnly
	fnOnly.Name, fnOnly.Bounded = "levenshtein-fn", nil
	for _, sh := range []shape[byte]{
		{name: "levenshtein", m: dist.LevenshteinMeasure[byte](), lam0s: shift, elem: letter},
		// Continued reads at radii a distance can equal: a pair at exactly
		// such a radius decides about one program in three, so eight run.
		{name: "levenshtein/rounds", m: dist.LevenshteinMeasure[byte](), lam0s: shift, elem: letter, rounds: true,
			kinds: []core.IndexKind{core.IndexRefNet}, programs: 8},
		{name: "levenshtein-fast/word", m: dist.LevenshteinFastMeasure(), lam0s: shift, elem: residue},
		{name: "protein-edit", m: dist.ProteinEditMeasure(), lam0s: shift, elem: residue},
		{name: "weighted-edit", m: dist.WeightedEditMeasure(), lam0s: shift, elem: letter},
		{name: "hamming", m: dist.HammingMeasure[byte](), lam0s: lockStep, elem: letter},
		// Without a kernel every candidate the verifier reads is an Fn call.
		{name: "levenshtein-bounded", m: boundedOnly, lam0s: shift, elem: letter, steps: 12},
		{name: "levenshtein-fn", m: fnOnly, lam0s: shift, elem: letter, steps: 12},
	} {
		sh.lambda, sh.seqLen, sh.qLen, sh.grid, sh.gridN = 8, 40, 16, 0.5, 3
		sh.steps = cmp.Or(sh.steps, 24)
		if sh.kinds == nil {
			sh.kinds = allKinds
		}
		runShape(t, tl, sh)
	}
	// Windows of 66: the filter and the verifier run the block kernel.
	runShape(t, tl, shape[byte]{name: "levenshtein-fast/block", m: dist.LevenshteinFastMeasure(), lambda: 132,
		lam0s: shift, kinds: allKinds, elem: letter, seqLen: 200, qLen: 136, grid: 2, gridN: 5, steps: 6})
	for _, sh := range []shape[float64]{
		{name: "erp/float64", m: dist.ERPMeasure(dist.AbsDiff, 0), kinds: allKinds, gridN: 4},
		// A Fréchet distance is one ground distance: wider levels select.
		{name: "dfd", m: dist.DiscreteFrechetMeasure(dist.AbsDiff), kinds: allKinds, gridN: 2,
			elem: func(rng *rand.Rand) float64 { return float64(rng.IntN(12)) }},
		{name: "dtw", m: dist.DTWMeasure(dist.AbsDiff), kinds: []core.IndexKind{core.IndexLinearScan}, gridN: 4},
		{name: "euclidean", m: dist.EuclideanMeasure(dist.AbsDiff), lam0s: lockStep, kinds: allKinds, gridN: 4},
	} {
		sh.lambda, sh.seqLen, sh.qLen, sh.grid, sh.steps = 8, 40, 16, 0.5, 24
		if sh.elem == nil {
			sh.elem = level
		}
		if sh.lam0s == nil {
			sh.lam0s = shift
		}
		runShape(t, tl, sh)
	}
	runShape(t, tl, shape[seq.Point2]{name: "erp/point2", m: dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), lambda: 8,
		lam0s: shift, kinds: allKinds, elem: point, seqLen: 40, qLen: 16, grid: 0.5, gridN: 4, steps: 24})
	runSeqShape(t, tl, "proteins/levenshtein-fast", dist.LevenshteinFastMeasure(), data.Proteins(seqWindows, 20, 1), 0.1, data.MutateAA, 8, seqQueries)
	runSeqShape(t, tl, "traj/erp", dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), data.Trajectories(seqWindows, 20, 1), 0.02, data.MutatePoint, 4, seqQueries)

	if t.Failed() {
		return
	}
	t.Logf("%v", tl)
	for _, what := range []string{"a match at d == ε", "a Type III canonical tie", "found at EpsMax = ε₀",
		"a Type III not found", "three rounds or more", "ε₀ = 0", "a refused cover-tree retire",
		"a query after a mid-program restore", "a bound window over 64 elements",
		"five rounds on proteins/levenshtein-fast under DefaultNearestOptions",
		"five rounds on traj/erp under DefaultNearestOptions"} {
		if tl[what] == 0 {
			t.Errorf("vacuous: %s never occurred", what)
		}
	}
}

// Programs the oracle failed, shrunk, played on every backend.
func TestOracleRegressions(t *testing.T) {
	// Before the indexes allowed for rounding: THFQYK is exactly 2 from FQYK,
	// but the triangle bound through FYGR came out at 2.0000000000000004 and
	// the net, the cover tree and MV pruned the pair at ε = 2.
	regression(t, dist.ProteinEditMeasure(), core.Params{Lambda: 8, Lambda0: 2}, []seq.Sequence[byte]{
		seq.Sequence[byte]("ACMVQQEIFLKIERMIERIET"),
		seq.Sequence[byte]("IDRPVYKQGEQHPTDVTKMKGEHHAATNLLMHN"),
		seq.Sequence[byte]("HDRCAWWFFYGRRCTQFQYKHTWCKELVW"),
	}, step[byte]{Op: opFilter, Path: "batch", Qs: []seq.Sequence[byte]{seq.Sequence[byte]("CTHFQYKHTWCKEL")}, Eps: 2})
	// The same under ERP over points: segment [12,17) is exactly ε from
	// window 5 of sequence 1; the cover tree's bound came out an ulp over.
	regression(t, dist.ERPMeasure(dist.Point2Dist, seq.Point2{}), core.Params{Lambda: 8, Lambda0: 3}, []seq.Sequence[seq.Point2]{
		points(2.100911406602539, 3, 1.1197833280862426, 2, 3.119539067802346, 1, 3.0254728343889803, 0, 1.0430859734692992, 3, 0.005068290811081774, 1, 2.007275362512566, 2, 3.003812870697332, 0, 2.08372495934182, 3, 2.023986320310152, 1, 1.1206034973341428, 2, 0.0870072776109991, 0, 3.065433345212733, 3, 3.0397542043326933, 3, 0.01792433682591167, 3, 2.0401383996701696, 3, 3.1025225067583264, 0, 3.0586819856956837, 2, 1.0738330466502, 3, 1.0374442776418442, 0, 2.065002632713491, 3, 1.1148242510479731, 1, 2.090299278942428, 1, 1.077110147824444, 1, 3.0670475454708503, 1, 0.06514415375205544, 1, 3.041329614154737, 3, 1.0433710573752284, 3),
		points(3.1191794247327547, 1, 2.035493233087436, 1, 2.0977031493262714, 0, 3.0740749916846193, 2, 3.058785487042767, 2, 3.0832972551310247, 3, 1.0776888781543963, 0, 2.107569017984267, 1, 2.0712422622496716, 0, 0.0812320276174644, 0, 2.0150766304588723, 3, 0.10575405889449357, 3, 3.102369006055404, 3, 2.0003560481849485, 3, 3.076259184021689, 0, 0.11922846580066762, 2, 1.0315277193443306, 1, 1.0072343032792332, 1, 3.0924310005064304, 3, 3.0913731657264427, 3, 1.110128228952908, 1, 1.0913901776875183, 0, 3.0427754011000285, 1, 1.1094363600703183, 3, 0.09388021639476977, 0, 3.0223804629984015, 1, 3.0402134999607533, 1, 1.0427560583936428, 3, 3.0717158453785265, 3, 1.0416107561103058, 1, 1.0103034920158511, 3, 3.032253589875827, 3, 2.0585067358878253, 2, 3.0510597659365115, 0, 1.0468231768753238, 3, 1.0132063170476764, 3, 1.0524323478471465, 3, 0.04966417369854009, 2, 3.0374599185678286, 0),
		points(3.026355345350482, 2, 0.11981264332110148, 0, 2.0526789401421435, 2, 0.008741019842441675, 0, 2.0391175252580584, 1, 1.0602463398456479, 1, 0.0777951025671298, 3, 1.0189376640634513, 1, 3.0359438286794576, 0, 2.078774443822384, 1, 2.0248940493465857, 0, 0.038522858635631554, 2, 0.09232967247526357, 1, 3.0626523504364016, 1, 0.050621392578630006, 0, 2.031956316910966, 1, 0.03527687480369174, 1, 0.11487459818156487, 0, 2.0679609413337774, 1, 3.0632165032628613, 1, 0.003229633401084245, 2, 3.0972586961310027, 2, 0.024170913789265266, 3, 2.037842765398223, 3, 0.08136214275454022, 0, 2.1154990727007497, 0, 0.028988138213150036, 1, 0.07952643761889791, 0, 0.12101985757233823, 1, 2.0904695321253484, 3, 1.099469551174571, 0, 2.0130608996412973, 2, 1.1179667317727444, 0, 0.11349418032345901, 3, 3.1061949961920194, 2, 1.07529444757775, 0, 2.0602208954427916, 2, 1.1081570592169006, 2, 1.110829077771458, 2, 1.037001025849423, 3),
	}, step[seq.Point2]{Op: opFilter, Path: "pool1", Eps: 0.09388021639476977, Qs: []seq.Sequence[seq.Point2]{
		points(2.0712422622496716, 0, 0.0812320276174644, 0, 2.0150766304588723, 3, 0.10575405889449357, 3, 3.102369006055404, 3, 2.0003560481849485, 3, 3.0765732745029126, 3, 0.11922846580066762, 2, 1.0315277193443306, 1, 1.0072343032792332, 1, 3.0924310005064304, 3, 3.0913731657264427, 3, 1.110128228952908, 1, 1.0913901776875183, 0, 3.0427754011000285, 1, 1.1094363600703183, 3, 0.09388021639476977, 0)}})
}

// regression plays a one-step program over db on every backend.
func regression[E any](t *testing.T, m dist.Measure[E], p core.Params, db []seq.Sequence[E], st step[E]) {
	for _, kind := range allKinds {
		c := &config[E]{sh: &shape[E]{name: m.Name, m: m}, kind: kind, p: p, db: db}
		if err := c.run([]step[E]{st}, tally{}); err != nil {
			c.fail(t, 0, []step[E]{st}, err)
		}
	}
}

// points lays x, y pairs out as a trajectory.
func points(xy ...float64) seq.Sequence[seq.Point2] {
	out := make(seq.Sequence[seq.Point2], len(xy)/2)
	for i := range out {
		out[i] = seq.Point2{X: xy[2*i], Y: xy[2*i+1]}
	}
	return out
}
