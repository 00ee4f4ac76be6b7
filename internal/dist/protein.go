package dist

import "math"

// ProteinEdit is a weighted edit distance over amino-acid strings whose
// substitution cost reflects physico-chemical similarity: each of the 20
// standard residues is placed in a three-dimensional feature space
// (Kyte–Doolittle hydropathy, side-chain volume, charge) and substitutions
// are priced by the weighted L1 distance between feature vectors, capped at
// 2. Indels cost 1.
//
// Unlike log-odds scoring schemes (BLOSUM, PAM), which are similarity
// scores and not distances, this construction is a true metric — the L1
// distance is a metric, capping a metric at a constant preserves the
// triangle inequality, and with every substitution at most twice the indel
// cost the resulting edit distance is metric too (Sellers 1974). That makes
// it an index-compatible stand-in for biological scoring: conservative
// substitutions (I↔L, D↔E) cost a fraction of an indel, radical ones
// (charged↔hydrophobic) approach the cap. Bytes outside the 20-letter
// alphabet are priced at the cap against everything but themselves, which
// keeps the metric property.

// aaFeature holds one residue's normalised physico-chemical coordinates.
type aaFeature struct {
	hydro, volume, charge float64
}

// aaFeatures maps residue bytes to features; aaKnown marks the 20 standard
// residues. Hydropathy is Kyte–Doolittle (−4.5..4.5), volume is side-chain
// volume in Å³ (60..228), charge is the net charge at physiological pH with
// histidine at +0.5. Each is normalised to unit scale below.
var (
	aaFeatures [256]aaFeature
	aaKnown    [256]bool
)

func init() {
	raw := map[byte][3]float64{ // hydropathy, volume, charge
		'A': {1.8, 88.6, 0}, 'R': {-4.5, 173.4, 1}, 'N': {-3.5, 114.1, 0},
		'D': {-3.5, 111.1, -1}, 'C': {2.5, 108.5, 0}, 'Q': {-3.5, 143.8, 0},
		'E': {-3.5, 138.4, -1}, 'G': {-0.4, 60.1, 0}, 'H': {-3.2, 153.2, 0.5},
		'I': {4.5, 166.7, 0}, 'L': {3.8, 166.7, 0}, 'K': {-3.9, 168.6, 1},
		'M': {1.9, 162.9, 0}, 'F': {2.8, 189.9, 0}, 'P': {-1.6, 112.7, 0},
		'S': {-0.8, 89.0, 0}, 'T': {-0.7, 116.1, 0}, 'W': {-0.9, 227.8, 0},
		'Y': {-1.3, 193.6, 0}, 'V': {4.2, 140.0, 0},
	}
	for c, f := range raw {
		aaFeatures[c] = aaFeature{hydro: f[0] / 9.0, volume: f[1] / 167.7, charge: f[2]}
		aaKnown[c] = true
	}
}

// proteinSubCost prices a substitution: the weighted L1 feature distance,
// capped at proteinSubCap. Unknown bytes sit at the cap against every other
// byte, preserving metricity.
func proteinSubCost(a, b byte) float64 {
	if a == b {
		return 0
	}
	if !aaKnown[a] || !aaKnown[b] {
		return proteinSubCap
	}
	fa, fb := aaFeatures[a], aaFeatures[b]
	d := 1.2*math.Abs(fa.hydro-fb.hydro) + 0.8*math.Abs(fa.volume-fb.volume) + 0.4*math.Abs(fa.charge-fb.charge)
	if d > proteinSubCap {
		return proteinSubCap
	}
	return d
}

const (
	// proteinSubCap bounds substitution costs at twice the indel cost, the
	// largest value that keeps the edit distance metric.
	proteinSubCap = 2
	// proteinIndel is the constant insertion/deletion cost.
	proteinIndel = 1
)

// ProteinEdit is the bare protein edit-distance function.
func ProteinEdit(a, b []byte) float64 {
	return editDP(len(a), len(b),
		func(i, j int) float64 { return proteinSubCost(a[i], b[j]) },
		func(int) float64 { return proteinIndel },
		func(int) float64 { return proteinIndel })
}

// ProteinEditMeasure is ProteinEdit bundled with its properties: a
// consistent metric, accepted by every index backend, with the row-reuse
// incremental kernel and its banded bounded evaluation.
func ProteinEditMeasure() Measure[byte] {
	return Measure[byte]{
		Name:    "protein-edit",
		Fn:      ProteinEdit,
		Props:   Properties{Consistent: true, Metric: true, LockStep: false},
		Prepare: proteinPrepare,
		Bounded: editRowBounded(proteinSubCost, proteinIndelCost),
	}
}

func init() {
	RegisterBuiltin(ProteinEditMeasure(),
		"edit distance with physico-chemical amino-acid substitution costs")
}
