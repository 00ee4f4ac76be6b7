package core

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// candidate is one candidate pair (SQ, SX) of a region: SQ = q[qs:qe] and
// SX = x[xs:xe] on sequence seqID.
type candidate struct{ seqID, qs, qe, xs, xe int }

// boxCandidates enumerates the union of regs' boxes under the length rules
// (|SQ|, |SX| ≥ λ, ||SQ|−|SX|| ≤ λ0), each candidate once, in canonical
// order.
func boxCandidates(p Params, regs []region) []candidate {
	seen := map[candidate]bool{}
	for _, r := range regs {
		for qs := r.qsMin; qs <= r.qsMax; qs++ {
			for qe := r.qeMin; qe <= r.qeMax; qe++ {
				for xs := r.xsMin; xs <= r.xsMax; xs++ {
					for xe := r.xeMin; xe <= r.xeMax; xe++ {
						if ql, xl := qe-qs, xe-xs; ql >= p.Lambda && xl >= p.Lambda && max(ql-xl, xl-ql) <= p.Lambda0 {
							seen[candidate{r.seqID, qs, qe, xs, xe}] = true
						}
					}
				}
			}
		}
	}
	out := make([]candidate, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b candidate) int {
		return CanonicalCompare(Match{SeqID: a.seqID, QStart: a.qs, QEnd: a.qe, XStart: a.xs, XEnd: a.xe},
			Match{SeqID: b.seqID, QStart: b.qs, QEnd: b.qe, XStart: b.xs, XEnd: b.xe})
	})
	return out
}

// fnMatches prices every candidate with Fn and returns those within eps.
func fnMatches[E any](m dist.Measure[E], db []seq.Sequence[E], q seq.Sequence[E], cands []candidate, eps float64) []Match {
	var out []Match
	for _, c := range cands {
		if d := m.Fn(q[c.qs:c.qe], db[c.seqID][c.xs:c.xe]); d <= eps {
			out = append(out, Match{SeqID: c.seqID, QStart: c.qs, QEnd: c.qe, XStart: c.xs, XEnd: c.xe, Dist: d})
		}
	}
	return out
}

// groupTally is the verifier's start-group schedule at a fixed radius,
// replayed from the candidates alone: the passes and pre-passes it runs, and
// the groups of two or more passes it skips and runs.
type groupTally struct{ passes, prePasses, skipped, ran int }

// replayGroups replays Type I's schedule over cands at radius eps. A start
// group is the query starts that hold candidates on one database start
// (seqID, xs), one pass each. With free set (the kernel has a free-start
// mode), a group of two or more first runs its pre-pass, whose cell (qe, xe)
// is the least Fn(q[s:qe], x[xs:xe]) over the starts s from the group's
// least to min(qe, its largest); the group runs only if some candidate's
// cell is within eps there. Fn prices every cell here, so the replay shares
// nothing with the kernels or with scan.
func replayGroups[E any](m dist.Measure[E], db []seq.Sequence[E], q seq.Sequence[E], cands []candidate, eps float64, free bool) groupTally {
	type key struct{ seqID, xs int }
	groups := map[key][]candidate{}
	for _, c := range cands {
		k := key{c.seqID, c.xs}
		groups[k] = append(groups[k], c)
	}
	var t groupTally
	for k, cs := range groups {
		starts := map[int]bool{}
		qsLo, qsHi := math.MaxInt, -1
		for _, c := range cs {
			starts[c.qs] = true
			qsLo, qsHi = min(qsLo, c.qs), max(qsHi, c.qs)
		}
		if free && len(starts) > 1 {
			t.prePasses++
			live := false
			for _, c := range cs {
				for s := qsLo; s <= min(qsHi, c.qe) && !live; s++ {
					live = m.Fn(q[s:c.qe], db[k.seqID][c.xs:c.xe]) <= eps
				}
			}
			if !live {
				t.skipped++
				continue
			}
			t.ran++
		}
		t.passes += len(starts)
	}
	return t
}

// hasFreeStart reports whether m's kernels have the free-start mode.
func hasFreeStart[E any](m dist.Measure[E], w []E) bool {
	return dist.BindFreeStart(nil, m.Reprepare(nil, w)) != nil
}

// checkVerifierByFn holds the three verifiers on each query's hits to an
// exhaustive Fn enumeration of their regions' candidates: verifyAll's
// matches by every field and Dist's bits, and verifyLongest's and
// verifyNearest's answers to the LongestBefore- and NearestBefore-least
// candidate within eps. verifyAll's count is held to the replayed schedule,
// or to one per candidate under the Fn adapter. It returns Type I's replayed group schedule, summed
// over the queries, and the matches found.
func checkVerifierByFn[E any](t *testing.T, name string, m dist.Measure[E], cfg Config, db, queries []seq.Sequence[E], eps float64) (groupTally, int) {
	t.Helper()
	mt, err := NewMatcher(m, cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	v := mt.verifier
	free := hasFreeStart(m, db[0][:1])
	var sum groupTally
	matches := 0
	for qi, q := range queries {
		hits := mt.FilterHits(q, eps)
		var regs []region
		for _, h := range hits {
			regs = append(regs, v.hitRegion(q, h))
		}
		cands := boxCandidates(cfg.Params, regs)
		want := fnMatches(m, db, q, cands, eps)
		var c cost
		got := v.verifyAll(q, hits, eps, &c)
		if len(got) != len(want) {
			t.Fatalf("%s query %d: verifyAll found %d matches, Fn over the candidates %d", name, qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("%s query %d: verifyAll match %d = %+v, Fn %+v", name, qi, i, got[i], want[i])
			}
		}
		matches += len(got)
		g := replayGroups(m, db, q, cands, eps, free)
		evals := int64(g.passes + g.prePasses)
		if m.Prepare == nil {
			evals = int64(len(cands))
		}
		if c.verify != evals {
			t.Fatalf("%s query %d: verifyAll counted %d evaluations, replayed %d (%+v, %d candidates)", name, qi, c.verify, evals, g, len(cands))
		}
		sum.passes += g.passes
		sum.prePasses += g.prePasses
		sum.skipped += g.skipped
		sum.ran += g.ran

		sc := v.getScratch()
		runs := slices.Clone(v.runRegions(q, hits, sc))
		v.putScratch(sc)
		within := fnMatches(m, db, q, boxCandidates(cfg.Params, runs), eps)
		for _, typ := range []struct {
			name   string
			before func(a, b Match) bool
			verify func(q seq.Sequence[E], hits []Hit[E], eps float64, c *cost) (Match, bool)
		}{
			{"verifyLongest", LongestBefore, v.verifyLongest},
			{"verifyNearest", NearestBefore, v.verifyNearest},
		} {
			var best Match
			for i, w := range within {
				if i == 0 || typ.before(w, best) {
					best = w
				}
			}
			got, ok := typ.verify(q, hits, eps, &c)
			if ok != (len(within) > 0) || ok && (got != best || math.Float64bits(got.Dist) != math.Float64bits(best.Dist)) {
				t.Fatalf("%s query %d: %s = %+v (found %v), Fn over the run regions' candidates %+v (%d within eps)",
					name, qi, typ.name, got, ok, best, len(within))
			}
		}
	}
	return sum, matches
}

// pointWalks makes n planar random walks of length m away from the origin
// (ERP's gap element) and queries cut from them with a little noise.
func pointWalks(rng *rand.Rand, n, m, queries, qlen int) (db, qs []seq.Sequence[seq.Point2]) {
	for range n {
		s, p := make(seq.Sequence[seq.Point2], m), seq.Point2{X: 3, Y: 3}
		for i := range s {
			p.X += rng.Float64() - 0.5
			p.Y += rng.Float64() - 0.5
			s[i] = p
		}
		db = append(db, s)
	}
	for range queries {
		src := db[rng.IntN(n)]
		a := rng.IntN(len(src) - qlen)
		q := make(seq.Sequence[seq.Point2], qlen)
		for i := range q {
			q[i] = seq.Point2{X: src[a+i].X + (rng.Float64()-0.5)*0.2, Y: src[a+i].Y + (rng.Float64()-0.5)*0.2}
		}
		qs = append(qs, q)
	}
	return db, qs
}

// residues makes n random amino-acid strings of length m and queries that
// carry a stretch of one with a few residues changed.
func residues(rng *rand.Rand, n, m, queries, qlen int) (db, qs []seq.Sequence[byte]) {
	const aa = "ACDEFGHIKLMNPQRSTVWY"
	gen := func(k int) seq.Sequence[byte] {
		s := make(seq.Sequence[byte], k)
		for i := range s {
			s[i] = aa[rng.IntN(len(aa))]
		}
		return s
	}
	for range n {
		db = append(db, gen(m))
	}
	for range queries {
		q := gen(qlen)
		src, motif := db[rng.IntN(n)], qlen-rng.IntN(qlen/3)
		a, b := rng.IntN(len(src)-motif), rng.IntN(qlen-motif+1)
		copy(q[b:], src[a:a+motif])
		for range 2 {
			q[b+rng.IntN(motif)] = aa[rng.IntN(len(aa))]
		}
		qs = append(qs, q)
	}
	return db, qs
}

// The verifier skips a start group on its free-start pre-pass alone, so
// every answer must still be the exhaustive one: each verifier is held to
// Fn over its regions' candidates on three measures whose kernels have the
// mode (ERP over points, levenshtein-fast, protein edit) and on one without
// it (DTW, read through the Fn adapter), and the test fails as vacuous
// unless groups were both skipped and run, and matches found, on each of
// the first three.
func TestVerifierGroupsMatchFnEnumeration(t *testing.T) {
	p := Params{Lambda: 8, Lambda0: 1}
	type outcome struct {
		name    string
		g       groupTally
		matches int
		free    bool
	}
	var out []outcome
	{
		db, qs := pointWalks(rand.New(rand.NewPCG(81, 8100)), 3, 60, 6, 24)
		m := dist.ERPMeasure(dist.Point2Dist, seq.Point2{})
		g, n := checkVerifierByFn(t, "erp", m, Config{Params: p}, db, qs, 1.0)
		out = append(out, outcome{"erp", g, n, true})
	}
	{
		db, qs := residues(rand.New(rand.NewPCG(82, 8200)), 3, 60, 6, 24)
		g, n := checkVerifierByFn(t, "levenshtein-fast", dist.LevenshteinFastMeasure(), Config{Params: p}, db, qs, 2)
		out = append(out, outcome{"levenshtein-fast", g, n, true})
		g, n = checkVerifierByFn(t, "protein-edit", dist.ProteinEditMeasure(), Config{Params: p}, db, qs, 1.5)
		out = append(out, outcome{"protein-edit", g, n, true})
	}
	{
		rng := rand.New(rand.NewPCG(83, 8300))
		db := []seq.Sequence[float64]{walk(rng, 50), walk(rng, 50)}
		var qs []seq.Sequence[float64]
		for range 4 {
			a := rng.IntN(30)
			qs = append(qs, slices.Clone(db[rng.IntN(2)][a:a+20]))
		}
		g, n := checkVerifierByFn(t, "dtw", dist.DTWMeasure(dist.AbsDiff), Config{Params: p, Index: IndexLinearScan}, db, qs, 1.0)
		out = append(out, outcome{"dtw", g, n, false})
	}
	for _, o := range out {
		t.Logf("%s: %d passes, %d pre-passes, %d groups skipped, %d run; %d matches", o.name, o.g.passes, o.g.prePasses, o.g.skipped, o.g.ran, o.matches)
		switch {
		case !o.free && o.g.prePasses != 0:
			t.Fatalf("%s: %d pre-passes replayed for a measure without a free-start mode", o.name, o.g.prePasses)
		case o.free && (o.g.skipped == 0 || o.g.ran == 0 || o.matches == 0):
			t.Fatalf("%s: vacuous (%d groups skipped, %d run, %d matches)", o.name, o.g.skipped, o.g.ran, o.matches)
		case o.matches == 0:
			t.Fatalf("%s: vacuous (no match)", o.name)
		}
	}
}

// prePassCounting is m with kernels that count, into *n, the passes that
// begin with FeedFree: in the verifier, its group pre-passes.
func prePassCounting(m dist.Measure[byte], n *int) dist.Measure[byte] {
	prepare := m.Prepare
	m.Prepare = func(w []byte) dist.Prepared[byte] { return prePassPrepared{prepare(w), n} }
	return m
}

type prePassPrepared struct {
	dist.Prepared[byte]
	n *int
}

func (p prePassPrepared) NewState() dist.Kernel[byte] {
	return &prePassState{p.Prepared.NewState().(dist.FreeStartKernel[byte]), p.n, true}
}

type prePassState struct {
	dist.FreeStartKernel[byte]
	n     *int
	fresh bool
}

func (s *prePassState) Reset() {
	s.fresh = true
	s.FreeStartKernel.Reset()
}

func (s *prePassState) Feed(x byte) float64 {
	s.fresh = false
	return s.FreeStartKernel.Feed(x)
}

func (s *prePassState) FeedFree(x byte) float64 {
	if s.fresh {
		*s.n++
		s.fresh = false
	}
	return s.FreeStartKernel.FeedFree(x)
}

// Type II runs its start groups whole, the one with the longest pass first,
// so that scan's group pre-pass applies to it: its answer is the one of the
// passes run longest first one by one (the order that split the groups),
// and it runs more pre-passes than that order, some query more than one.
func TestLongestKeepsStartGroups(t *testing.T) {
	p := Params{Lambda: 8, Lambda0: 1}
	db, qs := residues(rand.New(rand.NewPCG(84, 8400)), 3, 60, 8, 24)
	var prePasses int
	mt, err := NewMatcher(prePassCounting(dist.LevenshteinFastMeasure(), &prePasses), Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	v := mt.verifier
	grouped, split, most := 0, 0, 0
	for qi, q := range qs {
		hits := mt.FilterHits(q, 2)
		var c cost
		prePasses = 0
		got, ok := v.verifyLongest(q, hits, 2, &c)
		grouped, most = grouped+prePasses, max(most, prePasses)

		sc := v.getScratch()
		regs := v.runRegions(q, hits, sc)
		passes := v.passes(regs, sc)
		slices.SortStableFunc(passes, func(a, b pass) int { return cmp.Compare(b.rows, a.rows) })
		vis := longestMatch{eps: 2}
		prePasses = 0
		v.scan(q, regs, passes, sc, &vis, &c)
		v.putScratch(sc)
		split += prePasses
		if ok != vis.found || got != vis.best || math.Float64bits(got.Dist) != math.Float64bits(vis.best.Dist) {
			t.Fatalf("query %d: verifyLongest = %+v (found %v), passes longest first %+v (found %v)", qi, got, ok, vis.best, vis.found)
		}
	}
	t.Logf("pre-passes: %d grouped (at most %d on one query), %d split", grouped, most, split)
	if most < 2 || grouped <= split {
		t.Fatalf("verifyLongest ran %d pre-passes (at most %d on one query), passes longest first %d", grouped, most, split)
	}
}
