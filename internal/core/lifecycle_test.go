package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

var allBackends = []IndexKind{IndexRefNet, IndexCoverTree, IndexMV, IndexLinearScan}

// sameHits requires bit-identical filter output: same pairs, same order.
func sameHits(t *testing.T, label string, got, want []Hit[byte]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Window.String() != want[i].Window.String() ||
			got[i].Segment.String() != want[i].Segment.String() {
			t.Fatalf("%s hit %d: %v/%v, want %v/%v", label, i,
				got[i].Window, got[i].Segment, want[i].Window, want[i].Segment)
		}
	}
}

func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s match %d: %v, want %v", label, i, got[i], want[i])
		}
	}
}

// Retiring a sequence twice, or one that does not exist, is an error on
// every backend that retires. What a retire does to the answers is held to
// the oracle (internal/store TestProgramsMatchOracle).
func TestRetireRefusesRetiredAndUnknown(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	rng := rand.New(rand.NewPCG(13, 1300))
	db, _ := randStrings(rng, 4, 48, 0, 0, false)
	const victim = 1
	for _, kind := range []IndexKind{IndexRefNet, IndexMV, IndexLinearScan} {
		mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: kind, MVRefs: 3}, slices.Clone(db))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if removed, err := mt.RetireSequence(victim); err != nil || removed != len(db[victim])/p.WindowLen() {
			t.Fatalf("%v: retire = %d, %v", kind, removed, err)
		}
		if _, err := mt.RetireSequence(victim); err == nil {
			t.Fatalf("%v: double retire accepted", kind)
		}
		if _, err := mt.RetireSequence(99); err == nil {
			t.Fatalf("%v: retire of unknown sequence accepted", kind)
		}
	}
}

func TestRetireUnsupportedOnCoverTree(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	rng := rand.New(rand.NewPCG(15, 1500))
	db, _ := randStrings(rng, 2, 24, 0, 0, false)
	mt, err := NewMatcher(dist.LevenshteinMeasure[byte](), Config{Params: p, Index: IndexCoverTree}, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.RetireSequence(0); !errors.Is(err, ErrRetireUnsupported) {
		t.Fatalf("cover tree retire: %v, want ErrRetireUnsupported", err)
	}
}

// TestSaveRestoreMatcher: a refnet matcher restored from SaveIndex output
// answers bit-identically to the original — including after the original
// had been mutated — and stays live for further mutation.
func TestSaveRestoreMatcher(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(19, 1900))
	db, _ := randStrings(rng, 3, 48, 0, 0, false)
	extra, _ := randStrings(rng, 2, 40, 0, 0, false)
	queries := make([]seq.Sequence[byte], 5)
	for i := range queries {
		_, queries[i] = randStrings(rng, 1, 10, 14, 7, i%2 == 0)
	}
	const eps = 1.0
	cfg := Config{Params: p, Index: IndexRefNet}
	mt, err := NewMatcher(lev, cfg, append([]seq.Sequence[byte](nil), db...))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate before saving so the snapshot covers a lived-in index.
	for _, x := range extra {
		if _, _, err := mt.AppendSequence(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mt.RetireSequence(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mt.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewMatcherFromSavedIndex(lev, cfg, mt.DB(), &buf)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.BuildDistanceCalls() != 0 {
		t.Errorf("restore computed %d distances; decoding should need none", restored.BuildDistanceCalls())
	}
	for qi, q := range queries {
		sameHits(t, "restored filter", restored.FilterHits(q, eps), mt.FilterHits(q, eps))
		sameMatches(t, "restored findall", restored.FindAll(q, eps), mt.FindAll(q, eps))
		gm, gok := restored.Longest(q, eps)
		wm, wok := mt.Longest(q, eps)
		if gok != wok || gm != wm {
			t.Fatalf("query %d: restored Longest %v/%v, want %v/%v", qi, gm, gok, wm, wok)
		}
	}
	// The restored matcher must accept further lifecycle operations.
	if _, _, err := restored.AppendSequence(extra[0]); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	if _, err := restored.RetireSequence(0); err != nil {
		t.Fatalf("retire after restore: %v", err)
	}
}

// TestSaveRestoreRejections: non-refnet backends refuse SaveIndex, and a
// restore against the wrong database is refused rather than silently
// serving inconsistent results.
func TestSaveRestoreRejections(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 1}
	lev := dist.LevenshteinMeasure[byte]()
	rng := rand.New(rand.NewPCG(21, 2100))
	db, _ := randStrings(rng, 2, 24, 0, 0, false)
	for _, kind := range []IndexKind{IndexCoverTree, IndexMV, IndexLinearScan} {
		mt, err := NewMatcher(lev, Config{Params: p, Index: kind, MVRefs: 3}, db)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.SaveIndex(&bytes.Buffer{}); !errors.Is(err, ErrSaveUnsupported) {
			t.Fatalf("%v SaveIndex: %v, want ErrSaveUnsupported", kind, err)
		}
	}
	cfg := Config{Params: p, Index: IndexRefNet}
	mt, err := NewMatcher(lev, cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mt.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	wrongDB, _ := randStrings(rng, 3, 36, 0, 0, false)
	if _, err := NewMatcherFromSavedIndex(lev, cfg, wrongDB, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore against a different database accepted")
	}
	if _, err := NewMatcherFromSavedIndex(lev, Config{Params: p, Index: IndexCoverTree}, db, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore under a non-refnet backend accepted")
	}
}
