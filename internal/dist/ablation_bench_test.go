package dist

import (
	"math/rand/v2"
	"testing"

	"repro/internal/seq"
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

// One exact ERP pass over points as the filter runs it on the trajectory
// workload — 21 rows (λ/2 + λ0) against a 20-point window — priced by Feed,
// two Hypot calls a cell, against read from cost rows priced beforehand, as
// every pass after the first over one binding reads them (DESIGN.md §5 item
// 19). ns/op is one pass.
//
//	go test -run '^$' -bench ERPPass ./internal/dist
func erpPassInputs() (m Measure[seq.Point2], q, w []seq.Point2) {
	rng := rand.New(rand.NewPCG(19, 21))
	return ERPMeasure(Point2Dist, seq.Point2{}), points(rng, 21), points(rng, 20)
}

func BenchmarkERPPassFeed(b *testing.B) {
	m, q, w := erpPassInputs()
	k := m.NewKernel(w)
	for b.Loop() {
		k.Reset()
		for _, x := range q {
			ablationSink += k.Feed(x)
		}
	}
}

// BenchmarkERPPassRows/FeedRow feeds the priced rows a FeedRow call a row;
// /RunRows feeds them in one call
// (DESIGN.md §5 item 25).
func BenchmarkERPPassRows(b *testing.B) {
	m, q, w := erpPassInputs()
	p := m.Prepare(w)
	cr := p.(CostRower[seq.Point2])
	c, dx := make([]float64, len(q)*len(w)), make([]float64, len(q))
	for i, x := range q {
		dx[i] = costRow(cr, x, c[i*len(w):(i+1)*len(w)])
	}
	k := p.NewState().(RowKernel[seq.Point2])
	out := make([]float64, len(q))
	b.Run("FeedRow", func(b *testing.B) {
		for b.Loop() {
			k.Reset()
			for i := range q {
				out[i] = k.FeedRow(c[i*len(w):(i+1)*len(w)], dx[i])
			}
		}
	})
	b.Run("RunRows", func(b *testing.B) {
		for b.Loop() {
			k.Reset()
			k.RunRows(c, dx, out)
		}
	})
	ablationSink += out[len(q)-1]
}

// One verifier pass over a true match (DESIGN.md §5 item 21): 60 query rows
// against a 60-point window of the trajectory they were cut from, each row's
// costs priced as it is fed, as the first pass over a binding prices them,
// and the pass abandoned once Floor exceeds ε = 2. Unbanded, every row prices
// and computes all 60 columns; banded at ε (RowKernel.Within), only the columns that
// can still be within ε. ns/op is one pass.
//
//	go test -run '^$' -bench ERPPassBanded ./internal/dist
func verifyPassInputs() (m Measure[seq.Point2], q, w []seq.Point2) {
	rng := rand.New(rand.NewPCG(23, 60))
	w = make([]seq.Point2, 60)
	pos := seq.Point2{X: 20, Y: 20}
	for i := range w {
		pos = seq.Point2{X: pos.X + rng.NormFloat64()*0.5, Y: pos.Y + rng.NormFloat64()*0.5}
		w[i] = pos
	}
	q = make([]seq.Point2, len(w))
	for i, y := range w {
		q[i] = seq.Point2{X: y.X + rng.NormFloat64()*0.02, Y: y.Y + rng.NormFloat64()*0.02}
	}
	return ERPMeasure(Point2Dist, seq.Point2{}), q, w
}

func BenchmarkERPPassBanded(b *testing.B) {
	m, q, w := verifyPassInputs()
	const eps = 2
	p := m.Prepare(w)
	cr := p.(CostRower[seq.Point2])
	row := make([]float64, len(w))
	for _, banded := range []bool{false, true} {
		b.Run(map[bool]string{false: "unbanded", true: "banded"}[banded], func(b *testing.B) {
			k := p.NewState().(RowKernel[seq.Point2])
			for b.Loop() {
				k.Reset()
				if banded {
					k.Within(eps)
				}
				for _, x := range q {
					lo, hi := k.Span()
					cr.CostSpan(x, row, lo, hi)
					ablationSink += k.FeedRow(row, cr.Indel(x))
					if k.Floor() > eps {
						break
					}
				}
			}
		})
	}
}

// One exact pass of the net filter's shape in the fig. 8 setting — 21
// elements (λ/2 + λ0) against a 20-byte window on the one-word Myers
// kernel, bound as the filter binds it — fed one Feed call an element
// against one Run call for the whole stretch (Runner). ns/op is one pass.
//
//	go test -run '^$' -bench MyersPass ./internal/dist
func BenchmarkMyersPass(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 21))
	w, q := randBytes(rng, 20, aminoAcids), randBytes(rng, 21, aminoAcids)
	p := LevenshteinFastMeasure().Prepare(w)
	k := p.NewState()
	out := make([]float64, len(q))
	b.Run("Feed", func(b *testing.B) {
		for b.Loop() {
			k = BindKernel(k, p)
			for i, c := range q {
				out[i] = k.Feed(c)
			}
		}
	})
	b.Run("Run", func(b *testing.B) {
		for b.Loop() {
			k = BindKernel(k, p)
			Run(k, q, out)
		}
	})
	ablationSink += out[len(q)-1]
}
