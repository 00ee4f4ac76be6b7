package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/seq"
)

// Lock-step distances (Euclidean, Hamming) force λ0 = 0: matched spans
// have equal length and no temporal shift, which makes the framework's
// completeness provable. These tests pin that contract end to end,
// complementing the warped-distance tests in core_test.go.

func TestEuclideanPipelineExactAgainstOracle(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 0}
	eu := dist.EuclideanMeasure(dist.AbsDiff)
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 1700))
		db := []seq.Sequence[float64]{walk(rng, 30), walk(rng, 30)}
		q := append(seq.Sequence[float64]{}, db[trial%2][4:26]...)
		// Perturb the copied region slightly so distances are non-zero.
		for i := range q {
			q[i] += rng.Float64() * 0.1
		}
		mt, err := NewMatcher(eu, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(eu, p, db)
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1.0
		got := matchSet(mt.FindAll(q, eps))
		for _, want := range oracle.FindAll(q, eps, p.Lambda) {
			if !got[want] {
				t.Errorf("trial %d: lock-step oracle pair %v missed", trial, want)
			}
		}
		// Longest must agree exactly on |SQ| (equal lengths, no warping).
		om, ook := oracle.Longest(q, eps)
		fm, fok := mt.Longest(q, eps)
		if ook != fok {
			t.Fatalf("trial %d: found mismatch oracle=%v framework=%v", trial, ook, fok)
		}
		if ook && fm.QLen() < om.QLen() {
			t.Errorf("trial %d: framework longest %d < oracle %d", trial, fm.QLen(), om.QLen())
		}
	}
}

func TestHammingNearestAgainstOracle(t *testing.T) {
	p := Params{Lambda: 6, Lambda0: 0}
	ham := dist.HammingMeasure[byte]()
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 1800))
		db, q := randStrings(rng, 2, 26, 18, 8, true)
		mt, err := NewMatcher(ham, Config{Params: p}, db)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewBruteForce(ham, p, db)
		if err != nil {
			t.Fatal(err)
		}
		fm, fok := mt.Nearest(q, NearestOptions{EpsMax: 18, EpsInc: 1})
		if !fok {
			t.Fatalf("trial %d: nothing found", trial)
		}
		oc, ok := oracle.Nearest(q, p.Lambda)
		if !ok {
			t.Fatalf("trial %d: capped oracle found nothing", trial)
		}
		if fm.Dist > oc.Dist+1e-9 {
			t.Errorf("trial %d: nearest %v worse than λ-capped optimum %v", trial, fm.Dist, oc.Dist)
		}
		og, _ := oracle.Nearest(q, 0)
		if fm.Dist < og.Dist-1e-9 {
			t.Errorf("trial %d: nearest %v beats global optimum %v — invalid pair", trial, fm.Dist, og.Dist)
		}
	}
}

// The ProteinEdit measure drives the whole indexed pipeline.
func TestProteinEditPipeline(t *testing.T) {
	p := Params{Lambda: 8, Lambda0: 1}
	pe := dist.ProteinEditMeasure()
	rng := rand.New(rand.NewPCG(6, 2000))
	db, q := randStrings(rng, 2, 40, 24, 12, true)
	mt, err := NewMatcher(pe, Config{Params: p}, db)
	if err != nil {
		t.Fatal(err)
	}
	// The planted motif (one mutation) must be findable at a radius that
	// admits a couple of radical substitutions.
	if _, ok := mt.Longest(q, 3.5); !ok {
		t.Error("planted motif not found under ProteinEdit")
	}
}
