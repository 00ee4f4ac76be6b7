package dist

import "testing"

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
