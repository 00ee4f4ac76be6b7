// Package dist is the framework's distance-measure API: the capability-typed
// contract every other layer compiles against.
//
// The paper's central claim (Section 3) is genericity — one filter-and-verify
// framework that works for any distance measure satisfying the consistency
// property of Definition 1, and that gains metric indexing for free when the
// measure is additionally a metric. This package encodes that claim as types:
//
//   - Func is a distance between two sequences, Ground a distance between two
//     sequence elements;
//   - Properties is the capability record — Consistent, Metric, LockStep —
//     stating which assumptions a measure satisfies;
//   - Measure bundles a Func with its name and Properties, so downstream code
//     (core.NewMatcher in particular) can reject unsound measure/backend
//     pairings at construction time instead of silently returning wrong
//     answers: a non-consistent measure breaks the filter's losslessness
//     (Lemma 2), a non-metric measure breaks index pruning (Section 3.3), and
//     a lock-step measure admits no temporal shift (λ0 must be 0).
//
// Each supported measure comes in two flavours: a *Measure constructor
// returning the function bundled with its vetted properties (EuclideanMeasure,
// HammingMeasure, DTWMeasure, ERPMeasure, DiscreteFrechetMeasure,
// LevenshteinMeasure, LevenshteinFastMeasure, ProteinEditMeasure), and a bare
// constructor returning just the function (DTW, ERP, DiscreteFrechet,
// Levenshtein, LevenshteinBytes, LevenshteinFast, WeightedEdit) for callers
// that do their own bookkeeping. Claimed properties are enforced by the
// package's property-based tests: metric axioms on random inputs for every
// measure whose Props.Metric is true, and Definition-1 consistency via
// FindInconsistency for every measure whose Props.Consistent is true.
//
// All distance functions in this package accept empty slices without
// panicking. Lock-step distances return +Inf for length-mismatched inputs,
// which composes safely with both the filter (an infinite distance never
// falls within a query radius) and the consistency checker.
//
// Every built-in measure additionally self-registers its canonical
// instantiations per element type in the package's catalog (catalog.go), so
// callers that hold only a string — a CLI flag, a config entry — can
// resolve it to a typed Measure via Builtin and enumerate the supported
// matrix via Catalog. The public repro/registry package builds on exactly
// this surface.
package dist

import (
	"math"

	"repro/internal/seq"
)

// Ground is a distance between two sequence elements — the per-element cost
// that the warping distances (DTW, ERP, discrete Fréchet) and Euclidean
// aggregate over a pair of sequences. Index pruning and the Metric property
// of the aggregated measures require the ground distance itself to be a
// metric on the element type.
type Ground[E any] func(a, b E) float64

// Func is a distance between two sequences over alphabet E. The framework
// evaluates it on database windows, query segments and candidate
// subsequences; implementations must be safe for concurrent use (pure
// functions of their inputs).
type Func[E any] func(a, b []E) float64

// BoundedFunc is an early-abandoning distance evaluation: it returns the
// exact value of the underlying distance whenever that value is ≤ eps, and
// otherwise may return ANY value strictly greater than eps (often a cheap
// lower bound, or +Inf) as soon as the true distance provably exceeds the
// threshold. Range filtering only ever compares the result against eps, so
// threading the query radius into the kernel lets it stop mid-computation —
// a partial Euclidean sum past eps², a banded edit DP whose band minimum
// exceeds eps — without changing which items pass the filter.
type BoundedFunc[E any] func(a, b []E, eps float64) float64

// Properties is the capability record of a distance measure: the assumptions
// it satisfies, which determine the framework configurations it can soundly
// drive (core.validateMeasure consults exactly these three bits).
type Properties struct {
	// Consistent reports that the measure satisfies Definition 1 of the
	// paper: for any sequences Q and X and any subsequence SX of X there is
	// a (possibly empty) subsequence SQ of Q with δ(SQ, SX) ≤ δ(Q, X).
	// Consistency is what makes the window filter lossless (Lemma 2); the
	// framework rejects measures without it.
	Consistent bool
	// Metric reports that the measure is non-negative, symmetric, zero on
	// identical sequences and obeys the triangle inequality. Only metric
	// measures may drive the metric-index backends (reference net, cover
	// tree, MV); consistent-but-non-metric measures (DTW) are confined to
	// the linear-scan filter.
	Metric bool
	// LockStep reports that the measure compares sequences element by
	// element and is defined only for equal lengths (Euclidean, Hamming).
	// Lock-step measures admit no temporal shift, so they require λ0 = 0.
	LockStep bool
}

// Measure bundles a distance function with its name and properties. The
// fields are exported so callers can assemble custom measures; the
// constructors in this package return measures whose Props have been vetted
// by the package's property-based tests.
//
// Prepare and Bounded are optional capabilities: nil means the measure
// offers only the plain Fn evaluation, and every consumer falls back to it.
// When present they must agree exactly with Fn (the package's tests
// cross-check both against Fn on random inputs for every built-in measure).
type Measure[E any] struct {
	// Name identifies the measure in diagnostics and error messages.
	Name string
	// Fn is the distance function.
	Fn Func[E]
	// Props records the assumptions Fn satisfies.
	Props Properties
	// Prepare, when non-nil, builds the shared immutable half of an
	// incremental kernel for window w — the window binding plus its
	// preprocessing (Myers peq bit tables, edit base rows, ERP gap
	// columns). The Prepared mints stateful kernels evaluating d(·, w)
	// over growing left-hand prefixes, reusing the work shared by prefixes
	// that differ in one element (rolling lock-step sums, edit-DP row
	// reuse, Myers column streaming). The filter uses kernels to price all
	// 2λ0+1 segment lengths at one start for the cost of the longest, and
	// stores one Prepared per database window alongside the index so
	// concurrent workers share the preprocessing (see Prepared).
	Prepare func(w []E) Prepared[E]
	// Bounded, when non-nil, is the early-abandoning evaluation of Fn;
	// see BoundedFunc for the contract.
	Bounded BoundedFunc[E]
	// Packer, when non-nil, runs the free-start mode of Prepare's kernels
	// over several windows in one pass (see Packer). It must agree with
	// FeedFree and Feed exactly; only the kernel scan uses it. A measure
	// with a Packer is bit-parallel (one-word Myers): a pass costs a
	// fraction of a microsecond, so a scan that prices every window once
	// beats an index walk that saves passes. That is the cost class the
	// registry picks a session's default backend by
	// (CatalogEntry.BitParallel; DESIGN.md §5).
	Packer Packer[E]
}

// NewKernel builds a one-off incremental kernel bound to w (Prepare plus a
// fresh state). It returns nil when the measure has no Prepare capability.
// Callers evaluating many windows should instead hold the Prepared values
// and rebind a single state per worker with BindKernel.
func (m Measure[E]) NewKernel(w []E) Kernel[E] {
	if m.Prepare == nil {
		return nil
	}
	return m.Prepare(w).NewState()
}

// Reprepare returns kernel preprocessing over w for a caller that owns it
// exclusively and binds one window after another: p itself, rebuilt in
// place, when p can hold w (see Reusable; pass nil the first time), a fresh
// value otherwise — from Prepare when the measure has one, else an adapter
// whose kernels price each At read with one Fn call (and whose Feed prices
// nothing), so a reader of At needs no second path for measures without a
// kernel.
func (m Measure[E]) Reprepare(p Prepared[E], w []E) Prepared[E] {
	if r, ok := p.(Reusable[E]); ok && r.Reprepare(w) {
		return p
	}
	if m.Prepare == nil {
		return &fnPrepared[E]{fn: m.Fn, w: w}
	}
	return m.Prepare(w)
}

// AbsDiff is |a−b|, the ground distance for scalar series (SONGS pitch
// classes, univariate time series).
func AbsDiff(a, b float64) float64 { return math.Abs(a - b) }

// Point2Dist is the planar Euclidean ground distance, used for trajectory
// sequences (the TRAJ dataset).
func Point2Dist(a, b seq.Point2) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}
