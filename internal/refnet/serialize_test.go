package refnet

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	n := New(absDist, WithBase(0.5), WithMaxParents(3))
	var items []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 200
		items = append(items, v)
		n.Insert(v)
	}

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf, absDist)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != n.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), n.Len())
	}
	if loaded.base != 0.5 || loaded.numMax != 3 {
		t.Errorf("options not preserved: base=%v max=%d", loaded.base, loaded.numMax)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded net invalid: %v", err)
	}
	// Queries must agree exactly with the original.
	for trial := 0; trial < 25; trial++ {
		q := rng.Float64() * 200
		eps := rng.Float64() * 30
		a := sortedRange(n, q, eps)
		b := sortedRange(loaded, q, eps)
		if !equalFloats(a, b) {
			t.Fatalf("query mismatch after reload (q=%v eps=%v): %d vs %d items", q, eps, len(a), len(b))
		}
	}
	// The loaded net must accept further inserts and deletes.
	h := loaded.InsertTracked(999)
	if got := loaded.Range(999, 0); len(got) != 1 {
		t.Errorf("insert after load: %v", got)
	}
	if err := loaded.Delete(h); err != nil {
		t.Errorf("delete after load: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Errorf("invalid after post-load mutation: %v", err)
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	n := New(absDist)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, absDist)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Errorf("Len = %d", loaded.Len())
	}
	loaded.Insert(1)
	if got := loaded.Range(1, 0); len(got) != 1 {
		t.Errorf("reuse failed: %v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a gob stream"), absDist); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSaveLoadStructPayload(t *testing.T) {
	type item struct{ X, Y float64 }
	d := func(a, b item) float64 {
		dx, dy := a.X-b.X, a.Y-b.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	n := New(d)
	rng := rand.New(rand.NewPCG(73, 74))
	for i := 0; i < 200; i++ {
		n.Insert(item{rng.Float64() * 50, rng.Float64() * 50})
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	q := item{25, 25}
	if a, b := len(n.Range(q, 5)), len(loaded.Range(q, 5)); a != b {
		t.Errorf("range mismatch: %d vs %d", a, b)
	}
}
