package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p    Params
		ok   bool
		name string
	}{
		{Params{Lambda: 8, Lambda0: 1}, true, "typical"},
		{Params{Lambda: 2, Lambda0: 0}, true, "minimal"},
		{Params{Lambda: 1, Lambda0: 0}, false, "lambda too small"},
		{Params{Lambda: 8, Lambda0: -1}, false, "negative lambda0"},
		{Params{Lambda: 8, Lambda0: 4}, false, "lambda0 not below window length"},
		{Params{Lambda: 8, Lambda0: 3}, true, "lambda0 at limit"},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestWindowLen(t *testing.T) {
	if got := (Params{Lambda: 40}).WindowLen(); got != 20 {
		t.Errorf("WindowLen = %d, want 20", got)
	}
	// Odd λ floors, which keeps l ≤ λ/2 (Lemma 2's requirement).
	if got := (Params{Lambda: 9}).WindowLen(); got != 4 {
		t.Errorf("WindowLen(9) = %d, want 4", got)
	}
}

func TestMeasureConfigRejections(t *testing.T) {
	db := []seq.Sequence[float64]{{1, 2, 3, 4, 5, 6, 7, 8}}
	p := Params{Lambda: 4, Lambda0: 1}

	// DTW is consistent but not metric: metric indexes must be rejected...
	dtw := dist.DTWMeasure(dist.AbsDiff)
	for _, kind := range []IndexKind{IndexRefNet, IndexCoverTree, IndexMV} {
		if _, err := NewMatcher(dtw, Config{Params: p, Index: kind}, db); err == nil {
			t.Errorf("DTW with %v index accepted; want rejection", kind)
		}
	}
	// ...but the linear-scan filter is fine.
	if _, err := NewMatcher(dtw, Config{Params: p, Index: IndexLinearScan}, db); err != nil {
		t.Errorf("DTW with linear scan rejected: %v", err)
	}

	// A non-consistent measure must be rejected outright.
	broken := dist.Measure[float64]{
		Name:  "broken",
		Fn:    dist.DTW(dist.AbsDiff),
		Props: dist.Properties{Metric: true, Consistent: false},
	}
	if _, err := NewMatcher(broken, Config{Params: p}, db); err == nil {
		t.Error("inconsistent measure accepted")
	}

	// Lock-step measures require λ0 = 0.
	eu := dist.EuclideanMeasure(dist.AbsDiff)
	if _, err := NewMatcher(eu, Config{Params: p}, db); err == nil {
		t.Error("Euclidean with λ0=1 accepted")
	}
	if _, err := NewMatcher(eu, Config{Params: Params{Lambda: 4}}, db); err != nil {
		t.Errorf("Euclidean with λ0=0 rejected: %v", err)
	}

	// Bad params propagate.
	if _, err := NewMatcher(eu, Config{Params: Params{Lambda: 1}}, db); err == nil {
		t.Error("invalid params accepted")
	}
}

// randStrings builds a db of random byte sequences plus a query that shares
// a planted motif with one of them (possibly mutated).
func randStrings(rng *rand.Rand, numSeqs, seqLen, qLen, motifLen int, mutate bool) ([]seq.Sequence[byte], seq.Sequence[byte]) {
	const alpha = "ABCD"
	randSeq := func(n int) seq.Sequence[byte] {
		s := make(seq.Sequence[byte], n)
		for i := range s {
			s[i] = alpha[rng.IntN(len(alpha))]
		}
		return s
	}
	db := make([]seq.Sequence[byte], numSeqs)
	for i := range db {
		db[i] = randSeq(seqLen)
	}
	q := randSeq(qLen)
	if motifLen > 0 && motifLen <= qLen && motifLen <= seqLen {
		motif := randSeq(motifLen)
		qPos := rng.IntN(qLen - motifLen + 1)
		copy(q[qPos:], motif)
		target := rng.IntN(numSeqs)
		xPos := rng.IntN(seqLen - motifLen + 1)
		copy(db[target][xPos:], motif)
		if mutate {
			db[target][xPos+rng.IntN(motifLen)] = alpha[rng.IntN(len(alpha))]
		}
	}
	return db, q
}

func matchSet(ms []Match) map[Match]bool {
	set := make(map[Match]bool, len(ms))
	for _, m := range ms {
		set[m] = true
	}
	return set
}

func TestFindAllContainsOracleLevenshtein(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 100))
		db, q := randStrings(rng, 2, 30, 20, 8, true)
		mt, err := NewMatcher(lev, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(lev, p, db)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1.0
		got := matchSet(mt.FindAll(q, eps))
		for _, want := range oracle.FindAll(q, eps, p.Lambda) {
			if !got[want] {
				t.Errorf("trial %d: oracle pair %v missed by framework", trial, want)
			}
		}
	}
}

func TestFindAllContainsOracleHammingLockStep(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 0}
	ham := dist.HammingMeasure[byte]()
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 200))
		db, q := randStrings(rng, 2, 24, 18, 7, true)
		mt, err := NewMatcher(ham, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(ham, p, db)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1.0
		got := matchSet(mt.FindAll(q, eps))
		for _, want := range oracle.FindAll(q, eps, p.Lambda) {
			if !got[want] {
				t.Errorf("trial %d: oracle pair %v missed (lock-step must be exact)", trial, want)
			}
		}
	}
}

// hitCovers re-derives the Section 7 candidate region for a hit,
// independently of the verifier's implementation, and reports whether it
// contains the match. Matches are already in-bounds, so the region's
// clamping to sequence bounds cannot change the answer.
func hitCovers[E any](p Params, h Hit[E], m Match) bool {
	l := p.WindowLen()
	return m.SeqID == h.Window.SeqID &&
		m.QStart >= h.Segment.Start-l-p.Lambda0 && m.QStart <= h.Segment.Start &&
		m.QEnd >= h.Segment.End() && m.QEnd <= h.Segment.End()+l+p.Lambda0 &&
		m.XStart >= h.Window.Start-l && m.XStart <= h.Window.Start &&
		m.XEnd >= h.Window.End() && m.XEnd <= h.Window.End()+l
}

// checkWarpedFindAll is the oracle comparison for warping distances. The
// paper's λ0 bounds the temporal shift a match may exhibit; matches whose
// optimal alignments warp a window's counterpart beyond the λ/2±λ0 segment
// lengths are out of the framework's declared scope (they produce no
// filter hit). So the strict assertion is completeness GIVEN coverage:
// every oracle pair covered by some hit's candidate region must be
// returned. Aggregate coverage is additionally required to be high, which
// guards against the filter silently degrading.
func checkWarpedFindAll[E any](t *testing.T, m dist.Measure[E], p Params, eps float64,
	mkDB func(rng *rand.Rand) ([]seq.Sequence[E], seq.Sequence[E]), trials int, seedStream uint64) {
	t.Helper()
	totalOracle, covered := 0, 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), seedStream))
		db, q := mkDB(rng)
		mt, err := NewMatcher(m, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(m, p, db)
		if err != nil {
			t.Fatal(err)
		}
		hits := mt.FilterHits(q, eps)
		got := matchSet(mt.FindAll(q, eps))
		for _, want := range oracle.FindAll(q, eps, p.Lambda) {
			totalOracle++
			isCovered := false
			for _, h := range hits {
				if hitCovers(p, h, want) {
					isCovered = true
					break
				}
			}
			if isCovered {
				covered++
				if !got[want] {
					t.Errorf("trial %d: hit-covered oracle pair %v missed", trial, want)
				}
			}
		}
	}
	if totalOracle > 0 && float64(covered) < 0.5*float64(totalOracle) {
		t.Errorf("filter covered only %d of %d oracle pairs; scope degradation", covered, totalOracle)
	}
	t.Logf("coverage: %d of %d oracle pairs within hit regions", covered, totalOracle)
}

func TestFindAllContainsOracleERP(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	checkWarpedFindAll(t, dist.ERPMeasure(dist.AbsDiff, 0), p, 0.75,
		func(rng *rand.Rand) ([]seq.Sequence[float64], seq.Sequence[float64]) {
			db := []seq.Sequence[float64]{walk(rng, 26), walk(rng, 26)}
			q := append(seq.Sequence[float64]{}, db[0][3:21]...)
			return db, q
		}, 15, 300)
}

func TestFindAllContainsOracleDFD(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	checkWarpedFindAll(t, dist.DiscreteFrechetMeasure(dist.AbsDiff), p, 0.5,
		func(rng *rand.Rand) ([]seq.Sequence[float64], seq.Sequence[float64]) {
			db := []seq.Sequence[float64]{walk(rng, 26), walk(rng, 26)}
			q := append(seq.Sequence[float64]{}, db[1][5:23]...)
			return db, q
		}, 15, 400)
}

// walk produces a bounded random walk, giving realistic overlap structure.
func walk(rng *rand.Rand, n int) seq.Sequence[float64] {
	s := make(seq.Sequence[float64], n)
	v := rng.Float64() * 4
	for i := range s {
		v += rng.Float64()*2 - 1
		if v < 0 {
			v = 0
		}
		if v > 8 {
			v = 8
		}
		s[i] = v
	}
	return s
}

func TestFindAllResultsAreValid(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(1, 500))
	db, q := randStrings(rng, 3, 30, 22, 9, false)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 2.0
	for _, m := range mt.FindAll(q, eps) {
		if m.SeqID < 0 || m.SeqID >= len(db) {
			t.Fatalf("bad SeqID in %v", m)
		}
		x := db[m.SeqID]
		if m.QStart < 0 || m.QEnd > len(q) || m.XStart < 0 || m.XEnd > len(x) {
			t.Fatalf("out-of-bounds match %v", m)
		}
		if m.QLen() < p.Lambda || m.XLen() < p.Lambda {
			t.Fatalf("match below λ: %v", m)
		}
		if d := m.QLen() - m.XLen(); d > p.Lambda0 || -d > p.Lambda0 {
			t.Fatalf("length difference beyond λ0: %v", m)
		}
		if m.Dist > eps {
			t.Fatalf("match beyond eps: %v", m)
		}
		if re := lev.Fn(q[m.QStart:m.QEnd], x[m.XStart:m.XEnd]); re != m.Dist {
			t.Fatalf("reported distance %v, recomputed %v", m.Dist, re)
		}
	}
}

func TestLongestFindsPlantedLongMatch(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(3, 700))
	// Plant a long exact shared run: 18 elements ≫ λ.
	db, q := randStrings(rng, 2, 40, 30, 0, false)
	motif := seq.Sequence[byte]("ABCDABCDDCBAABABCD")
	copy(q[5:], motif)
	copy(db[1][9:], motif)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := mt.Longest(q, 0)
	if !ok {
		t.Fatal("no match found for planted run")
	}
	if m.QLen() < len(motif) {
		t.Errorf("longest match %v shorter than planted run %d", m, len(motif))
	}
	if m.Dist != 0 {
		t.Errorf("planted exact run matched at distance %v", m.Dist)
	}
}

func TestLongestAgainstOracle(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 800))
		db, q := randStrings(rng, 2, 28, 20, 10, true)
		mt, err := NewMatcher(lev, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(lev, p, db)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1.0
		om, ook := oracle.Longest(q, eps)
		fm, fok := mt.Longest(q, eps)
		if ook != fok {
			t.Errorf("trial %d: oracle found=%v framework found=%v", trial, ook, fok)
			continue
		}
		if !ook {
			continue
		}
		if fm.QLen() < om.QLen() {
			t.Errorf("trial %d: framework longest %d < oracle longest %d (fm=%v om=%v)",
				trial, fm.QLen(), om.QLen(), fm, om)
		}
		if fm.Dist > eps {
			t.Errorf("trial %d: framework match beyond eps: %v", trial, fm)
		}
	}
}

func TestNearestBracketsOracle(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 900))
		db, q := randStrings(rng, 2, 26, 18, 8, true)
		mt, err := NewMatcher(lev, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(lev, p, db)
		if err != nil {
			t.Fatal(err)
		}
		fm, fok := mt.Nearest(q, NearestOptions{EpsMax: 10, EpsInc: 0.5})
		if !fok {
			t.Fatalf("trial %d: framework found nothing within eps=10", trial)
		}
		// The framework's result can never beat the unrestricted optimum...
		og, ok := oracle.Nearest(q, 0)
		if !ok {
			t.Fatalf("trial %d: oracle found nothing", trial)
		}
		if fm.Dist < og.Dist-1e-9 {
			t.Errorf("trial %d: framework %v beats exhaustive optimum %v", trial, fm, og)
		}
		// ...and must match the optimum over λ-length pairs.
		oc, ok := oracle.Nearest(q, p.Lambda)
		if !ok {
			t.Fatalf("trial %d: capped oracle found nothing", trial)
		}
		if fm.Dist > oc.Dist+1e-9 {
			t.Errorf("trial %d: framework nearest %v worse than λ-capped optimum %v", trial, fm.Dist, oc.Dist)
		}
	}
}

func TestFilterHitsLemma3(t *testing.T) {
	// Lemma 2/3: for every similar pair found by brute force, at least
	// one window fully inside SX must appear among the filter hits.
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 1000))
		db, q := randStrings(rng, 2, 30, 20, 8, true)
		mt, err := NewMatcher(lev, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(lev, p, db)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1.0
		hits := mt.FilterHits(q, eps)
		hitWindows := map[[2]int]bool{}
		for _, h := range hits {
			hitWindows[[2]int{h.Window.SeqID, h.Window.Ord}] = true
		}
		l := p.WindowLen()
		for _, m := range oracle.FindAll(q, eps, 0) {
			covered := false
			for ord := 0; ord*l < len(db[m.SeqID]); ord++ {
				if ord*l >= m.XStart && (ord+1)*l <= m.XEnd && hitWindows[[2]int{m.SeqID, ord}] {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("trial %d: similar pair %v has no window among filter hits", trial, m)
			}
		}
	}
}

func TestMatcherAccounting(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(4, 1100))
	db, q := randStrings(rng, 3, 60, 20, 8, false)
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumWindows() != 3*(60/3) {
		t.Errorf("NumWindows = %d, want %d", mt.NumWindows(), 3*(60/3))
	}
	if mt.BuildDistanceCalls() <= 0 {
		t.Error("no build distance calls recorded")
	}
	if mt.FilterDistanceCalls() != 0 {
		t.Error("filter calls not reset after build")
	}
	mt.FilterHits(q, 1)
	first := mt.FilterDistanceCalls()
	if first <= 0 {
		t.Error("no filter calls recorded")
	}
	mt.FilterHits(q, 1)
	if got := mt.FilterDistanceCalls(); got != 2*first {
		t.Errorf("a repeated query moved the filter total %d → %d, want %d", first, got, 2*first)
	}
	mt.FindAll(q, 1)
	if mt.VerifyDistanceCalls() <= 0 {
		t.Error("no verification calls recorded")
	}
}

func TestEmptyAndShortInputs(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	db := []seq.Sequence[byte]{seq.Sequence[byte]("AB")} // shorter than one window
	mt, err := NewMatcher(lev, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumWindows() != 0 {
		t.Errorf("NumWindows = %d", mt.NumWindows())
	}
	if hits := mt.FilterHits(seq.Sequence[byte]("ABCDEFG"), 5); hits != nil {
		t.Errorf("hits on empty index: %v", hits)
	}
	if ms := mt.FindAll(seq.Sequence[byte]("ABCDEFG"), 5); len(ms) != 0 {
		t.Errorf("matches on empty index: %v", ms)
	}
	if _, ok := mt.Longest(seq.Sequence[byte]("AB"), 5); ok {
		t.Error("match on query shorter than any segment")
	}
	if _, ok := mt.Nearest(nil, NearestOptions{EpsMax: 5, EpsInc: 1}); ok {
		t.Error("match on nil query")
	}
	if _, ok := mt.Nearest(seq.Sequence[byte]("ABCDEFG"), NearestOptions{}); ok {
		t.Error("zero options must report not found")
	}
}
