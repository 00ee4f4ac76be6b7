package dist

import (
	"math/rand/v2"
	"testing"
)

// The Levenshtein kernel ablation (DESIGN.md §5): the same inputs through
// every implementation the package keeps — generic DP, byte-specialised DP,
// single-word Myers, multi-word (block) Myers, and the banded bounded block
// path. It stays a Go benchmark because the repository benchmark (bench/)
// times only the kernels the framework actually selects
// (dist.myers_ns_per_eval and friends); it has no probe that runs a
// rejected alternative beside the chosen one, which is what justifies
// keeping each specialisation.
//
//	go test -run '^$' -bench LevenshteinAblation ./internal/dist

var ablationSink float64

func BenchmarkLevenshteinAblation(b *testing.B) {
	const aa = "ACDEFGHIKLMNPQRSTVWY"
	short, shortRev := []byte(aa), []byte("YWVTSRQPNMLKIHGFEDCA")
	// 120 bytes: past the 64-byte word boundary, where the block path must
	// stay bit-parallel.
	long, longMix := make([]byte, 120), make([]byte, 120)
	for i := range long {
		long[i] = aa[i%len(aa)]
		longMix[i] = aa[(i*7+3)%len(aa)]
	}
	generic := Levenshtein[byte]()
	bounded := LevenshteinFastMeasure().Bounded
	for _, c := range []struct {
		name string
		x, y []byte
		fn   func(x, y []byte) float64
	}{
		{"short/generic", short, shortRev, generic},
		{"short/bytesDP", short, shortRev, LevenshteinBytes},
		{"short/myers", short, shortRev, LevenshteinFast},
		{"long/bytesDP", long, longMix, LevenshteinBytes},
		{"long/myersBlock", long, longMix, LevenshteinFast},
		// A tight radius: the Ukkonen band advances ~2 word blocks per
		// character instead of all of them and abandons on the score slack.
		{"long/bandedBounded8", long, longMix, func(x, y []byte) float64 { return bounded(x, y, 8) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				ablationSink += c.fn(c.x, c.y)
			}
		})
	}
}

// The free-start pre-pass of the kernel scan, one window at a time against
// three to a word (DESIGN.md §5 item 16): a 45-byte query against 210
// windows of 20 bytes, each pass writing its bound at every end as the
// scan's does. ns/op is the whole sweep; ns/window divides it by the
// windows.
//
//	go test -run '^$' -bench FreeStartPass ./internal/dist
func freeStartPassInputs() (q []byte, ws [][]byte) {
	rng := rand.New(rand.NewPCG(5, 45))
	ws = make([][]byte, 210)
	for i := range ws {
		ws[i] = randBytes(rng, 20, aminoAcids)
	}
	return randBytes(rng, 45, aminoAcids), ws
}

func BenchmarkFreeStartPassSingle(b *testing.B) {
	q, ws := freeStartPassInputs()
	m := LevenshteinFastMeasure()
	prepared := make([]Prepared[byte], len(ws))
	for i, w := range ws {
		prepared[i] = m.Prepare(w)
	}
	lower := make([]float64, len(q)+1)
	var k FreeStartKernel[byte]
	for b.Loop() {
		for _, p := range prepared {
			k = BindFreeStart(k, p)
			for n, c := range q {
				lower[n+1] = k.FeedFree(c)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)), "ns/window")
}

func BenchmarkFreeStartPassPacked(b *testing.B) {
	q, ws := freeStartPassInputs()
	pk := LevenshteinFastMeasure().Packer
	width := pk.Width(20)
	var packs []Packed[byte]
	for i := 0; i+width <= len(ws); i += width {
		packs = append(packs, pk.Pack(ws[i:i+width]))
	}
	lower := make([][]float64, width)
	for f := range lower {
		lower[f] = make([]float64, len(q)+1)
	}
	for b.Loop() {
		for _, p := range packs {
			p.FreeStart(q, lower)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)), "ns/window")
}
