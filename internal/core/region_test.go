package core

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// VerifyDistanceCalls counts one evaluation per pass — a pass is one DP over
// its start pair's longest candidate, however many ends it prices — and one
// per start group's free-start pre-pass, run for a group of two or more
// passes on one database start, whose passes run only if it leaves them a
// cell within the radius; both are replayed from the candidates with Fn
// (replayGroups). For a measure without an incremental kernel it counts one
// per Fn call the adapter kernel makes, which is one per distinct
// candidate: no call the per-pair enumeration did not make.
func TestVerifyDistanceCallsCountsPasses(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	rng := rand.New(rand.NewPCG(4, 1100))
	db, q := randStrings(rng, 3, 60, 20, 8, false)
	const eps = 1

	// candidates lists the candidates of the hits' regions: the (qs, qe,
	// xs, xe) of a region's box with both lengths at least λ and at most λ0
	// apart.
	candidates := func(v *verifier[byte], hits []Hit[byte]) []candidate {
		var regs []region
		for _, h := range hits {
			regs = append(regs, v.hitRegion(q, h))
		}
		return boxCandidates(p, regs)
	}

	for _, m := range []dist.Measure[byte]{dist.LevenshteinMeasure[byte](), dist.LevenshteinFastMeasure()} {
		mt, err := NewMatcher(m, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		hits := mt.FilterHits(q, eps)
		cands := candidates(mt.verifier, hits)
		g := replayGroups(m, db, q, cands, eps, true)
		if g.skipped == 0 || g.ran == 0 || g.passes == len(cands) {
			t.Fatalf("%s: degenerate case: %+v over %d candidates", m.Name, g, len(cands))
		}
		var c cost
		mt.verifier.verifyAll(q, hits, eps, &c)
		if want := int64(g.passes + g.prePasses); c.verify != want {
			t.Errorf("%s: verifyAll counted %d, want %d passes + %d pre-passes = %d (groups skipped %d, run %d; candidates %d)",
				m.Name, c.verify, g.passes, g.prePasses, want, g.skipped, g.ran, len(cands))
		}
	}

	var fnCalls atomic.Int64
	lev := dist.Levenshtein[byte]()
	plain := dist.Measure[byte]{
		Name:  "levenshtein-plain",
		Fn:    func(a, b []byte) float64 { fnCalls.Add(1); return lev(a, b) },
		Props: dist.Properties{Consistent: true, Metric: true},
	}
	mt, err := NewMatcher(plain, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	hits := mt.FilterHits(q, eps)
	pairs := len(candidates(mt.verifier, hits))
	var c cost
	fnBefore := fnCalls.Load()
	mt.verifier.verifyAll(q, hits, eps, &c)
	got, fn := c.verify, fnCalls.Load()-fnBefore
	if got != fn || got != int64(pairs) {
		t.Errorf("adapter: verifyAll counted %d over %d Fn calls, want one per candidate = %d", got, fn, pairs)
	}
}

// sortedPasses is the enumeration passes replaced, kept as its reference:
// one entry per (region, database start), sorted by (seqID, xs, region),
// then a walk over each xs's group of regions.
func sortedPasses[E any](v *verifier[E], regs []region) ([]pass, []int32) {
	type startRef struct{ seqID, xs, reg int32 }
	var starts []startRef
	for i := range regs {
		r := &regs[i]
		for xs := r.xsMin; xs <= r.xsMax; xs++ {
			starts = append(starts, startRef{int32(r.seqID), int32(xs), int32(i)})
		}
	}
	slices.SortFunc(starts, func(a, b startRef) int {
		return cmp.Or(cmp.Compare(a.seqID, b.seqID), cmp.Compare(a.xs, b.xs), cmp.Compare(a.reg, b.reg))
	})
	var out []pass
	var members []int32
	for s := 0; s < len(starts); {
		e := s + 1
		for e < len(starts) && starts[e].seqID == starts[s].seqID && starts[e].xs == starts[s].xs {
			e++
		}
		group := starts[s:e]
		xs := int(group[0].xs)
		qsLo, qsHi := math.MaxInt, -1
		for _, g := range group {
			qsLo, qsHi = min(qsLo, regs[g.reg].qsMin), max(qsHi, regs[g.reg].qsMax)
		}
		for qs := qsLo; qs <= qsHi; qs++ {
			p := pass{seqID: group[0].seqID, xs: group[0].xs, qs: int32(qs), lo: int32(len(members))}
			for _, g := range group {
				r := &regs[g.reg]
				if qs < r.qsMin || qs > r.qsMax {
					continue
				}
				if rows, cols, ok := v.reach(r, qs, xs); ok {
					members = append(members, g.reg)
					p.rows, p.cols = max(p.rows, int32(rows)), max(p.cols, int32(cols))
				}
			}
			if p.hi = int32(len(members)); p.hi > p.lo {
				out = append(out, p)
			}
		}
		s = e
	}
	return out, members
}

// The sweep in passes must list what the sort it replaced listed: the same
// passes in the same (seqID, xs, qs) order with the same members in the
// same order. Type II's minQLen skips, and with them VerifyDistanceCalls,
// depend on that order. Region sets are random over several sequences and
// xs scales, so that xs ranges lie on different sequences, overlap, nest,
// leave gaps and abut; the test fails as vacuous if a shape never occurred.
func TestPassesMatchSortedEnumeration(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	v := newVerifier[byte](dist.LevenshteinMeasure[byte](), p, nil)
	sc := v.getScratch()
	check := func(regs []region) {
		t.Helper()
		want, wantMembers := sortedPasses(v, regs)
		got := v.passes(regs, sc)
		if !slices.Equal(got, want) || !slices.Equal(sc.members, wantMembers) {
			t.Fatalf("regions %+v:\nsweep  %v members %v\nsorted %v members %v", regs, got, sc.members, want, wantMembers)
		}
	}
	check(nil)
	if len(sc.passes) != 0 || len(sc.members) != 0 {
		t.Fatalf("no regions gave %d passes", len(sc.passes))
	}

	rng := rand.New(rand.NewPCG(40, 4000))
	var apart, overlap, nested, gapped, adjacent, total int
	for trial := 0; trial < 2000; trial++ {
		n, seqs, span, width := rng.IntN(8), 1+rng.IntN(3), 1+rng.IntN(60), 1+rng.IntN(12)
		regs := make([]region, n)
		for i := range regs {
			xs, qs := rng.IntN(span), rng.IntN(20)
			r := region{seqID: rng.IntN(seqs), xsMin: xs, xsMax: xs + rng.IntN(width), qsMin: qs, qsMax: qs + rng.IntN(width)}
			r.qeMin = r.qsMin + rng.IntN(p.Lambda+4)
			r.qeMax = r.qeMin + rng.IntN(10)
			r.xeMin = r.xsMin + rng.IntN(p.Lambda+4)
			r.xeMax = r.xeMin + rng.IntN(10)
			regs[i] = r
		}
		check(regs)
		total += len(sc.passes)
		for i, a := range regs {
			for _, b := range regs[i+1:] {
				switch {
				case a.seqID != b.seqID:
					apart++
				case a.xsMax+1 < b.xsMin || b.xsMax+1 < a.xsMin:
					gapped++
				case a.xsMax < b.xsMin || b.xsMax < a.xsMin:
					adjacent++
				case a.xsMin <= b.xsMin && b.xsMax <= a.xsMax || b.xsMin <= a.xsMin && a.xsMax <= b.xsMax:
					nested++
				default:
					overlap++
				}
			}
		}
	}
	if apart == 0 || overlap == 0 || nested == 0 || gapped == 0 || adjacent == 0 || total == 0 {
		t.Fatalf("vacuous: region pairs %d on two sequences, %d overlapping, %d nested, %d gapped, %d adjacent; %d passes",
			apart, overlap, nested, gapped, adjacent, total)
	}
}

// Matcher queries are documented as safe for concurrent use; exercise
// that with parallel queries over a shared matcher (run with -race in CI
// to make this decisive).
func TestMatcherConcurrentQueries(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(7, 2100))
	db, _ := randStrings(rng, 3, 40, 20, 8, true)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]seq.Sequence[byte], 8)
	for i := range queries {
		_, queries[i] = randStrings(rng, 1, 30, 20, 7, true)
	}
	ref := make([][]Match, len(queries))
	for i, q := range queries {
		ref[i] = mt.FindAll(q, 1.5)
	}
	done := make(chan error, len(queries))
	for i, q := range queries {
		go func(i int, q seq.Sequence[byte]) {
			got := mt.FindAll(q, 1.5)
			if len(got) != len(ref[i]) {
				done <- errMismatch
				return
			}
			for j := range got {
				if got[j] != ref[i][j] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(i, q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query result differs from sequential" }
