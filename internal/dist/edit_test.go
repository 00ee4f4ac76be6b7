package dist

import (
	"math/rand/v2"
	"testing"
)

func TestLevenshteinValues(t *testing.T) {
	lev := Levenshtein[byte]()
	cases := []struct {
		a, b string
		want float64
	}{
		{"kitten", "sitting", 3},
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"flaw", "lawn", 2},
		{"intention", "execution", 5},
	}
	for _, c := range cases {
		if got := lev([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := LevenshteinBytes([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("LevenshteinBytes(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := LevenshteinFast([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("LevenshteinFast(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Levenshtein over a non-byte alphabet: runs and ints.
func TestLevenshteinGenericAlphabets(t *testing.T) {
	levInt := Levenshtein[int]()
	if got := levInt([]int{1, 2, 3, 4}, []int{1, 3, 4}); got != 1 {
		t.Errorf("int Levenshtein = %v", got)
	}
	levRune := Levenshtein[rune]()
	if got := levRune([]rune("über"), []rune("uber")); got != 1 {
		t.Errorf("rune Levenshtein = %v", got)
	}
}

// WeightedEdit with unit costs must reproduce Levenshtein exactly.
func TestWeightedEditUnitCostsIsLevenshtein(t *testing.T) {
	unit := WeightedEdit(
		func(a, b byte) float64 {
			if a == b {
				return 0
			}
			return 1
		},
		func(byte) float64 { return 1 },
	)
	lev := Levenshtein[byte]()
	rng := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 200; trial++ {
		a := randBytes(rng, rng.IntN(12), "abcd")
		b := randBytes(rng, rng.IntN(12), "abcd")
		if w, l := unit(a, b), lev(a, b); w != l {
			t.Fatalf("WeightedEdit(%q,%q) = %v, Levenshtein = %v", a, b, w, l)
		}
	}
}

// Asymmetric indel costs must be respected (cheaper to delete an 'x' than
// anything else).
func TestWeightedEditCustomCosts(t *testing.T) {
	we := WeightedEdit(
		func(a, b byte) float64 {
			if a == b {
				return 0
			}
			return 2
		},
		func(e byte) float64 {
			if e == 'x' {
				return 0.25
			}
			return 1
		},
	)
	if got := we([]byte("axb"), []byte("ab")); got != 0.25 {
		t.Errorf("cheap deletion = %v, want 0.25", got)
	}
	// Substituting at cost 2 ties with delete+insert (1+1); both give 2.
	if got := we([]byte("a"), []byte("b")); got != 2 {
		t.Errorf("substitution = %v, want 2", got)
	}
}

func TestProteinEditValues(t *testing.T) {
	if d := ProteinEdit([]byte("ACDEFGHIK"), []byte("ACDEFGHIK")); d != 0 {
		t.Errorf("identical proteins = %v", d)
	}
	// Conservative substitutions cost a fraction of an indel; radical ones
	// approach the cap of 2.
	consIL := proteinSubCost('I', 'L')
	consDE := proteinSubCost('D', 'E')
	radIR := proteinSubCost('I', 'R')
	if consIL <= 0 || consIL >= 0.5 {
		t.Errorf("I↔L cost %v, want small positive", consIL)
	}
	if consDE <= 0 || consDE >= 0.5 {
		t.Errorf("D↔E cost %v, want small positive", consDE)
	}
	if radIR < 1 || radIR > 2 {
		t.Errorf("I↔R cost %v, want near the cap", radIR)
	}
	if consIL >= radIR {
		t.Errorf("conservative I↔L (%v) not cheaper than radical I↔R (%v)", consIL, radIR)
	}
	// Unknown bytes sit at the cap against everything but themselves.
	if d := proteinSubCost('B', 'A'); d != proteinSubCap {
		t.Errorf("unknown byte sub cost = %v", d)
	}
	if d := proteinSubCost('B', 'B'); d != 0 {
		t.Errorf("unknown byte self cost = %v", d)
	}
	// A single conservative substitution beats an indel pair.
	a, b := []byte("AAILAA"), []byte("AAIIAA")
	if d := ProteinEdit(a, b); d != proteinSubCost('L', 'I') {
		t.Errorf("single substitution = %v, want %v", d, proteinSubCost('L', 'I'))
	}
	// Every substitution is at most twice the indel cost, the metric bound.
	for _, x := range []byte("ACDEFGHIKLMNPQRSTVWYB?") {
		for _, y := range []byte("ACDEFGHIKLMNPQRSTVWYB?") {
			if c := proteinSubCost(x, y); c > 2*proteinIndel {
				t.Errorf("sub(%c,%c) = %v exceeds 2×indel", x, y, c)
			}
			if c, r := proteinSubCost(x, y), proteinSubCost(y, x); c != r {
				t.Errorf("sub(%c,%c) = %v asymmetric (%v)", x, y, c, r)
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int, alphabet string) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = alphabet[rng.IntN(len(alphabet))]
	}
	return s
}

var editSink float64

// The edit-DP Fns run one DP per call over a single two-row buffer: one
// allocation, however the costs are supplied.
func TestEditFnAllocations(t *testing.T) {
	a, b := []byte("ACDEFGHIKLMNPQRSTVWY"), []byte("YWVTSRQPNMLKIHGFEDCA")
	for _, c := range []struct {
		name string
		fn   Func[byte]
	}{
		{"levenshtein", Levenshtein[byte]()},
		{"weighted-edit", WeightedEditMeasure().Fn},
		{"protein-edit", ProteinEdit},
	} {
		if allocs := testing.AllocsPerRun(100, func() { editSink += c.fn(a, b) }); allocs > 1 {
			t.Errorf("%s Fn allocates %v objects per call, want ≤ 1", c.name, allocs)
		}
	}
}
