package refnet

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/seq"
)

// Round-trip property tests: for every element type the framework serves
// (byte / float64 / point2) and both refnet-family configurations (plain
// and parent-capped, the paper's RN and RN-5), a saved-and-reloaded net
// must answer Range and a session's MinDist bit-identically to the
// original — same items, same order, same least distance.

func hammingBytes(a, b seq.Sequence[byte]) float64 {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return float64(n)
}

func euclidPoint2(a, b seq.Point2) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// roundTripCheck saves n, reloads it, and verifies structural equality of
// answers on the given query set.
func roundTripCheck[T any](t *testing.T, n *Net[T], dist func(a, b T) float64, queries []T, eps float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf, dist)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != n.Len() || loaded.base != n.base || loaded.numMax != n.numMax {
		t.Fatalf("shape not preserved: len %d/%d base %v/%v max %d/%d",
			loaded.Len(), n.Len(), loaded.base, n.base, loaded.numMax, n.numMax)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded net invalid: %v", err)
	}
	for qi, q := range queries {
		a, b := n.Range(q, eps), loaded.Range(q, eps)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: Range differs after reload: %d vs %d items", qi, len(a), len(b))
		}
		if da, db := minDist(n, q, eps), minDist(loaded, q, eps); math.Float64bits(da) != math.Float64bits(db) {
			t.Fatalf("query %d: MinDist differs after reload: %v vs %v", qi, da, db)
		}
	}
}

func refnetVariants[T any](dist func(a, b T) float64, base float64) map[string]*Net[T] {
	return map[string]*Net[T]{
		"plain":  New(dist, WithBase(base)),
		"capped": New(dist, WithBase(base), WithMaxParents(5)),
	}
}

func TestRoundTripBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(81, 82))
	randWin := func() seq.Sequence[byte] {
		w := make(seq.Sequence[byte], 12)
		for i := range w {
			w[i] = byte('A' + rng.IntN(6))
		}
		return w
	}
	for name, n := range refnetVariants(hammingBytes, 1) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 400; i++ {
				n.Insert(randWin())
			}
			queries := make([]seq.Sequence[byte], 20)
			for i := range queries {
				queries[i] = randWin()
			}
			roundTripCheck(t, n, hammingBytes, queries, 6)
		})
	}
}

func TestRoundTripFloat64(t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 84))
	for name, n := range refnetVariants(absDist, 0.5) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 500; i++ {
				n.Insert(rng.Float64() * 100)
			}
			queries := make([]float64, 25)
			for i := range queries {
				queries[i] = rng.Float64() * 100
			}
			roundTripCheck(t, n, absDist, queries, 4)
		})
	}
}

func TestRoundTripPoint2(t *testing.T) {
	rng := rand.New(rand.NewPCG(85, 86))
	randPt := func() seq.Point2 {
		return seq.Point2{X: rng.Float64() * 40, Y: rng.Float64() * 40}
	}
	for name, n := range refnetVariants(euclidPoint2, 1) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 400; i++ {
				n.Insert(randPt())
			}
			queries := make([]seq.Point2, 20)
			for i := range queries {
				queries[i] = randPt()
			}
			roundTripCheck(t, n, euclidPoint2, queries, 5)
		})
	}
}

// TestLoadTruncated checks that every strict prefix of a valid stream is
// rejected with a typed CorruptError, never a panic or a silent success.
func TestLoadTruncated(t *testing.T) {
	rng := rand.New(rand.NewPCG(87, 88))
	n := New(absDist, WithBase(0.5))
	for i := 0; i < 60; i++ {
		n.Insert(rng.Float64() * 50)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		_, err := Load(bytes.NewReader(raw[:cut]), absDist)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(raw))
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("prefix of %d bytes: error %v is not a CorruptError", cut, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(cut) {
			t.Fatalf("prefix of %d bytes: offset witness %d out of range", cut, ce.Offset)
		}
	}
}

// TestLoadMangled flips bytes across the stream: the CRC must catch every
// single-byte corruption (or a structural check fires first), and the
// error must carry an offset witness.
func TestLoadMangled(t *testing.T) {
	rng := rand.New(rand.NewPCG(89, 90))
	n := New(absDist, WithBase(0.5))
	for i := 0; i < 80; i++ {
		n.Insert(rng.Float64() * 50)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for pos := 0; pos < len(raw); pos++ {
		mangled := bytes.Clone(raw)
		mangled[pos] ^= 0xA5
		_, err := Load(bytes.NewReader(mangled), absDist)
		if err == nil {
			t.Fatalf("byte %d/%d flipped but Load succeeded", pos, len(raw))
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("byte %d flipped: error %v is not a CorruptError", pos, err)
		}
	}
}

// TestLoadOversizedCounts rejects absurd length prefixes before allocating.
func TestLoadOversizedCounts(t *testing.T) {
	n := New(absDist)
	for i := 0; i < 10; i++ {
		n.Insert(float64(i))
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Node count lives at offset 8(magic)+8(base)+4(numMax) = 20.
	for _, tc := range []struct {
		name string
		off  int
		val  byte
	}{
		{"huge node count", 20, 0xFF},
		{"huge edge count", 24, 0xFF},
	} {
		mangled := bytes.Clone(raw)
		for i := 0; i < 4; i++ {
			mangled[tc.off+i] = tc.val
		}
		_, err := Load(bytes.NewReader(mangled), absDist)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Errorf("%s: want CorruptError, got %v", tc.name, err)
		}
	}
}

// FuzzLoad throws arbitrary and mangled bytes at Load: it must never
// panic, and any net it does accept must be structurally consistent.
func FuzzLoad(f *testing.F) {
	n := New(absDist, WithBase(0.5), WithMaxParents(3))
	rng := rand.New(rand.NewPCG(91, 92))
	for i := 0; i < 50; i++ {
		n.Insert(rng.Float64() * 30)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("RNETv2\x00\x00"))
	for _, pos := range []int{0, 8, 20, 24, len(valid) / 2, len(valid) - 2} {
		m := bytes.Clone(valid)
		m[pos] ^= 0x55
		f.Add(m)
	}
	f.Add(valid[:len(valid)/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data), absDist)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Load error %v is not a CorruptError", err)
			}
			return
		}
		// Accepted: the net must at least be internally consistent enough
		// to traverse without panicking.
		if loaded.Len() > 0 {
			loaded.Range(0, 1)
			minDist(loaded, 0, 3)
		}
	})
}
