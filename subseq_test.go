package subseq_test

import (
	"testing"

	subseq "repro"
)

// The root package is a facade; these tests pin its public surface and
// exercise one end-to-end path per feature area. Algorithmic depth is
// tested in the internal packages.

func TestPublicAPIEndToEnd(t *testing.T) {
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("AAAABBBBCCCCDDDDEEEEFFFF"),
		subseq.Sequence[byte]("XXXXCCCCDDDDEEEEYYYYZZZZ"),
	}
	q := subseq.Sequence[byte]("PPPPCCCCDDDDEEEEQQQQ")
	mt, err := subseq.NewMatcher(
		subseq.LevenshteinMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 8, Lambda0: 1}},
		db,
	)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := mt.Longest(q, 0)
	if !ok {
		t.Fatal("no match for shared run")
	}
	if got := string(q[m.QStart:m.QEnd]); got != string(db[m.SeqID][m.XStart:m.XEnd]) {
		t.Errorf("exact match differs: %q vs %q", got, db[m.SeqID][m.XStart:m.XEnd])
	}
	if m.QLen() != 12 {
		t.Errorf("longest exact match %d, want 12 (CCCCDDDDEEEE)", m.QLen())
	}

	if _, ok := mt.Nearest(q, subseq.NearestOptions{EpsMax: 8, EpsInc: 1}); !ok {
		t.Error("nearest found nothing")
	}
	if all := mt.FindAll(q, 0); len(all) == 0 {
		t.Error("FindAll found nothing at eps=0")
	}
}

func TestPublicRefNet(t *testing.T) {
	net := subseq.NewRefNet(subseq.AbsDiff, subseq.WithBase(0.5), subseq.WithMaxParents(3))
	for i := 0; i < 200; i++ {
		net.Insert(float64(i % 50))
	}
	if net.Len() != 200 {
		t.Errorf("Len = %d", net.Len())
	}
	got := net.Range(10, 1.5)
	want := 0
	for i := 0; i < 200; i++ {
		if v := float64(i % 50); v >= 8.5 && v <= 11.5 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("Range returned %d items, want %d", len(got), want)
	}
	if err := net.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPublicDistances(t *testing.T) {
	if d := subseq.LevenshteinFastMeasure().Fn([]byte("kitten"), []byte("sitting")); d != 3 {
		t.Errorf("LevenshteinFast = %v", d)
	}
	erp := subseq.ERPMeasure(subseq.AbsDiff, 0)
	if !erp.Props.Metric || !erp.Props.Consistent {
		t.Error("ERP properties wrong")
	}
	dtw := subseq.DTWMeasure(subseq.AbsDiff)
	if dtw.Props.Metric {
		t.Error("DTW must not be flagged metric")
	}
	if v := erp.Fn([]float64{1, 2, 3}, []float64{1, 3}); v != 2 {
		t.Errorf("ERP = %v, want 2", v)
	}
	if _, bad := subseq.FindInconsistency(subseq.DiscreteFrechetMeasure(subseq.AbsDiff).Fn,
		[]float64{1, 2, 3, 4}, []float64{2, 2, 4, 4}, 1e-9); bad {
		t.Error("DFD inconsistent on a small pair")
	}
}

// The capability checks must surface through the public constructor: DTW is
// consistent but not a metric, so every backend except the linear scan must
// reject it; lock-step measures admit no temporal shift, so λ0 must be 0.
func TestPublicMeasureRejections(t *testing.T) {
	db := []subseq.Sequence[float64]{{1, 2, 3, 4, 5, 6, 7, 8}}
	dtw := subseq.DTWMeasure(subseq.AbsDiff)
	p := subseq.Params{Lambda: 4, Lambda0: 1}
	for _, kind := range []subseq.IndexKind{subseq.IndexRefNet, subseq.IndexCoverTree, subseq.IndexMV} {
		if _, err := subseq.NewMatcher(dtw, subseq.Config{Params: p, Index: kind}, db); err == nil {
			t.Errorf("DTW accepted with index %v; want rejection", kind)
		}
	}
	if _, err := subseq.NewMatcher(dtw, subseq.Config{Params: p, Index: subseq.IndexLinearScan}, db); err != nil {
		t.Errorf("DTW rejected with the linear-scan backend: %v", err)
	}

	for _, m := range []subseq.Measure[float64]{
		subseq.EuclideanMeasure(subseq.AbsDiff),
	} {
		if _, err := subseq.NewMatcher(m, subseq.Config{Params: subseq.Params{Lambda: 4, Lambda0: 1}}, db); err == nil {
			t.Errorf("lock-step measure %q accepted with λ0=1; want rejection", m.Name)
		}
		if _, err := subseq.NewMatcher(m, subseq.Config{Params: subseq.Params{Lambda: 4}}, db); err != nil {
			t.Errorf("lock-step measure %q rejected with λ0=0: %v", m.Name, err)
		}
	}
	bdb := []subseq.Sequence[byte]{subseq.Sequence[byte]("ABCDEFGH")}
	if _, err := subseq.NewMatcher(subseq.HammingMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 4, Lambda0: 1}}, bdb); err == nil {
		t.Error("Hamming accepted with λ0=1; want rejection")
	}
}

// FindInconsistency must return a witness against a broken distance and
// none for Levenshtein.
func TestPublicFindInconsistency(t *testing.T) {
	broken := func(a, b []float64) float64 { return float64(10 - min(len(a), len(b))) }
	q := []float64{1, 2, 3, 4, 5, 6}
	w, bad := subseq.FindInconsistency(broken, q, q, 1e-9)
	if !bad {
		t.Fatal("broken distance passed FindInconsistency")
	}
	if w.Best <= w.Base {
		t.Errorf("witness %+v is not a violation", w)
	}
	good := subseq.LevenshteinMeasure[byte]()
	if _, bad := subseq.FindInconsistency(good.Fn, []byte("ABAB"), []byte("ABBA"), 1e-9); bad {
		t.Error("Levenshtein flagged inconsistent")
	}
}

func TestPublicCoverTreeAndMV(t *testing.T) {
	items := make([]float64, 100)
	for i := range items {
		items[i] = float64(i)
	}
	ct := subseq.NewCoverTree(subseq.AbsDiff, 1)
	for _, v := range items {
		ct.Insert(v)
	}
	if got := ct.Range(50, 2); len(got) != 5 {
		t.Errorf("cover tree Range → %d items, want 5", len(got))
	}
	mv, err := subseq.NewMVIndex(items, 4, subseq.AbsDiff)
	if err != nil {
		t.Fatal(err)
	}
	if got := mv.Range(50, 2); len(got) != 5 {
		t.Errorf("MV Range → %d items, want 5", len(got))
	}
}

func TestPublicBatchAndQueryPool(t *testing.T) {
	db := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("AAAABBBBCCCCDDDDEEEEFFFF"),
		subseq.Sequence[byte]("XXXXCCCCDDDDEEEEYYYYZZZZ"),
	}
	qs := []subseq.Sequence[byte]{
		subseq.Sequence[byte]("PPPPCCCCDDDDEEEEQQQQ"),
		subseq.Sequence[byte]("MMMMAAAABBBBCCCCNNNN"),
		subseq.Sequence[byte]("GGGGHHHHIIIIJJJJKKKK"),
	}
	mt, err := subseq.NewMatcher(
		subseq.LevenshteinMeasure[byte](),
		subseq.Config{Params: subseq.Params{Lambda: 8, Lambda0: 1}},
		db,
	)
	if err != nil {
		t.Fatal(err)
	}
	batch := mt.FindAllBatch(qs, 1)
	pool := subseq.NewQueryPool(mt, 4)
	pooled := pool.FindAll(qs, 1)
	for i, q := range qs {
		want := mt.FindAll(q, 1)
		if len(batch[i]) != len(want) || len(pooled[i]) != len(want) {
			t.Fatalf("query %d: sequential %d, batch %d, pool %d matches",
				i, len(want), len(batch[i]), len(pooled[i]))
		}
		for j := range want {
			if batch[i][j] != want[j] || pooled[i][j] != want[j] {
				t.Fatalf("query %d match %d differs across paths", i, j)
			}
		}
	}
	if len(batch[0]) == 0 {
		t.Error("no matches for the planted shared run")
	}
	long, found := pool.Longest(qs, 1)
	if !found[0] || long[0].QLen() < 12 {
		t.Errorf("pool Longest = (%v, %v), want the ≥12-element run", long[0], found[0])
	}
}
