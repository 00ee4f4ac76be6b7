// Package subseq is a generic framework for efficient and effective
// subsequence retrieval in string and time-series databases, reproducing
//
//	Haohan Zhu, George Kollios, Vassilis Athitsos.
//	"A Generic Framework for Efficient and Effective Subsequence
//	Retrieval." PVLDB 5(11), 2012.
//
// Given a database of sequences and a query sequence Q, the framework
// finds pairs of similar subsequences (SQ ⊆ Q, SX ⊆ X) under any distance
// measure that is "consistent" (Definition 1 of the paper) — Euclidean,
// Hamming, DTW, ERP, the discrete Fréchet distance and the Levenshtein
// distance all qualify — using metric indexing (the paper's Reference Net)
// when the distance is additionally a metric.
//
// # Quick start
//
//	m := subseq.LevenshteinMeasure[byte]()
//	matcher, err := subseq.NewMatcher(m, subseq.Config{
//	    Params: subseq.Params{Lambda: 40, Lambda0: 2},
//	}, db) // db is a []subseq.Sequence[byte]
//	...
//	match, ok := matcher.Longest(query, 4) // longest pair within distance 4
//
// Three query types are supported (Section 3.2 of the paper): FindAll
// (Type I, all similar pairs), Longest (Type II) and Nearest (Type III).
//
// # Packages
//
// The implementation lives in internal packages; this package is the
// stable public surface. The Reference Net is additionally exposed
// directly (NewRefNet) because it is a useful general-purpose metric index
// independent of subsequence retrieval. The sibling package repro/registry
// names the building blocks — every built-in measure, index backend and
// dataset family is resolvable by string (registry.Measure[byte]
// ("levenshtein"), registry.Backend("covertree")) with capability
// validation, which is what the subseqctl CLI runs on.
package subseq

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/covertree"
	"repro/internal/dist"
	"repro/internal/metric"
	"repro/internal/refindex"
	"repro/internal/refnet"
	"repro/internal/seq"
	"repro/internal/store"
)

// Sequence is an ordered series of elements over an arbitrary alphabet.
type Sequence[E any] = seq.Sequence[E]

// Window is a fixed-length database window (the indexed unit).
type Window[E any] = seq.Window[E]

// Segment is a variable-length query segment.
type Segment[E any] = seq.Segment[E]

// Point2 is a point in the plane, the element type for trajectories.
type Point2 = seq.Point2

// Ground is a distance between two sequence elements.
type Ground[E any] = dist.Ground[E]

// DistanceFunc is a distance between two sequences.
type DistanceFunc[E any] = dist.Func[E]

// Measure bundles a distance function with its name, properties
// (metricity, consistency, lock-step) and optional fast-path capabilities
// (Prepare incremental kernels, Bounded early-abandoning evaluation).
type Measure[E any] = dist.Measure[E]

// IncrementalKernel is a stateful evaluator of d(·, w) over growing
// prefixes, minted from a Measure's Prepare capability; the filter uses it
// to price all segment lengths at a query offset in one pass.
type IncrementalKernel[E any] = dist.Kernel[E]

// PreparedKernel is the shared immutable half of an incremental kernel —
// the window binding plus its preprocessing, built once per database window
// and safe for concurrent use. Mint per-worker mutable kernels with
// NewState, or rebind one state across windows with BindKernel.
type PreparedKernel[E any] = dist.Prepared[E]

// BindKernel points state at p, reusing the state's buffers when it came
// from the same kernel family (no allocation) and minting a fresh state
// otherwise.
func BindKernel[E any](state IncrementalKernel[E], p PreparedKernel[E]) IncrementalKernel[E] {
	return dist.BindKernel(state, p)
}

// BoundedDistanceFunc is an early-abandoning distance evaluation, the
// optional Bounded capability of a Measure: exact at or under eps, anything
// greater than eps otherwise.
type BoundedDistanceFunc[E any] = dist.BoundedFunc[E]

// Properties describes the assumptions a distance measure satisfies.
type Properties = dist.Properties

// Params carries the framework parameters λ (minimum match length) and λ0
// (maximum temporal shift).
type Params = core.Params

// Config configures a Matcher (parameters, index backend, ǫ′, nummax).
type Config = core.Config

// IndexKind selects the metric-index backend for the window filter.
type IndexKind = core.IndexKind

// Index backends.
const (
	IndexRefNet     = core.IndexRefNet
	IndexCoverTree  = core.IndexCoverTree
	IndexMV         = core.IndexMV
	IndexLinearScan = core.IndexLinearScan
)

// Matcher is the subsequence-retrieval engine (steps 1–5 of the paper's
// framework).
type Matcher[E any] = core.Matcher[E]

// Match is a reported pair of similar subsequences.
type Match = core.Match

// Hit is a filtered segment↔window pair (steps 3–4 output).
type Hit[E any] = core.Hit[E]

// NearestOptions tunes Nearest (query Type III). Its Validate method says
// whether Nearest will run the schedule (both radii positive, EpsInc at
// least EpsMax/4096): options it refuses find nothing.
type NearestOptions = core.NearestOptions

// QueryPool drives a Matcher from worker goroutines, one query per
// worker at a time: it adds parallelism, and every query still runs its
// own index traversal. It has two faces: the barrier methods (FindAll,
// Longest, FilterHits, Nearest) take a complete query slice and block
// until every answer is back, while the streaming methods (Submit,
// SubmitFilter, SubmitLongest, SubmitNearest) accept queries one at a
// time and return per-query Futures, answered by a long-lived worker set
// that pops the oldest pending submission first. The streaming face adds
// context cancellation, a bounded in-flight queue with backpressure and
// graceful Close — the shape a serving daemon needs (see subseqctl serve
// and docs/SERVING.md).
type QueryPool[E any] = core.QueryPool[E]

// PoolOption tunes a QueryPool's streaming engine.
type PoolOption = core.PoolOption

// WithQueueDepth bounds the streaming engine's in-flight submissions
// (submitted but not completed); Submit blocks once the bound is reached.
// The default is 1024.
func WithQueueDepth(n int) PoolOption { return core.WithQueueDepth(n) }

// NewQueryPool returns a pool of the given concurrency over mt; workers
// ≤ 0 selects GOMAXPROCS. The barrier methods are stateless between calls
// and safe for concurrent use; the streaming worker set starts lazily on
// the first Submit and stops at Close.
func NewQueryPool[E any](mt *Matcher[E], workers int, opts ...PoolOption) *QueryPool[E] {
	return core.NewQueryPool(mt, workers, opts...)
}

// Future is the pending result of a streaming submission; Await blocks
// until the result is ready or the context is done.
type Future[T any] = core.Future[T]

// QueryResult is the outcome of a streamed Longest or Nearest submission.
type QueryResult = core.QueryResult

// StreamStats is a snapshot of a QueryPool's streaming-engine activity
// (pending and in-flight submissions, outcome counters, latency
// histograms).
type StreamStats = core.StreamStats

// ErrPoolClosed is returned by futures whose submission arrived after the
// pool's streaming engine was closed.
var ErrPoolClosed = core.ErrPoolClosed

// Admission control and load shedding (see docs/SERVING.md, "Operating
// under load"): a streaming submission may carry a deadline and a tenant,
// and the pool may shed work instead of blocking when its in-flight budget
// is exhausted.

// ErrQueueFull is returned (via the submission's Future) when the pool's
// shed policy rejects a submission because the in-flight budget is
// exhausted. subseqctl serve maps it to HTTP 429 with a Retry-After.
var ErrQueueFull = core.ErrQueueFull

// ErrDeadlineExceeded is returned when a submission's deadline (set with
// WithSubmitTimeout) passes before a worker prices
// the query — expired work is dropped before it costs anything. subseqctl
// serve maps it to HTTP 504.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// ErrWorkerCrashed wraps a panic recovered while answering a query: that
// query's future fails with it and the worker keeps serving. subseqctl
// serve maps it to HTTP 500.
var ErrWorkerCrashed = core.ErrWorkerCrashed

// ShedPolicy selects what a pool does when a submission arrives with the
// in-flight budget exhausted.
type ShedPolicy = core.ShedPolicy

// Shed policies: block the submitter (default), reject the newcomer with
// ErrQueueFull, or evict the newest queued query of the most-loaded
// tenant to make room (per-tenant fair share).
const (
	ShedBlock        = core.ShedBlock
	ShedRejectNewest = core.ShedRejectNewest
	ShedFairShare    = core.ShedFairShare
)

// ParseShedPolicy resolves a policy name ("block", "reject",
// "reject-newest", "fair", "fair-share"); "" selects ShedBlock.
func ParseShedPolicy(name string) (ShedPolicy, error) { return core.ParseShedPolicy(name) }

// WithShedPolicy sets the pool's shed policy (default ShedBlock).
func WithShedPolicy(p ShedPolicy) PoolOption { return core.WithShedPolicy(p) }

// SubmitOption attaches per-submission admission metadata to a streaming
// Submit call.
type SubmitOption = core.SubmitOption

// WithSubmitTimeout drops the submission with ErrDeadlineExceeded if a
// worker has not started pricing it within d of the call.
func WithSubmitTimeout(d time.Duration) SubmitOption { return core.WithSubmitTimeout(d) }

// WithTenant attributes the submission to a tenant for fair-share
// accounting (see ShedFairShare).
func WithTenant(id string) SubmitOption { return core.WithTenant(id) }

// LatencyStats summarises one of the pool's HDR-style latency histograms
// (queue wait, end-to-end) as reported in StreamStats.
type LatencyStats = core.LatencyStats

// LatencyBucket is one histogram bucket of a LatencyStats.
type LatencyBucket = core.LatencyBucket

// DefaultQueueDepth is the streaming engine's in-flight bound when
// WithQueueDepth is not given.
const DefaultQueueDepth = core.DefaultQueueDepth

// NewMatcher builds a matcher over db: it validates the configuration,
// partitions the database into windows of length λ/2 and builds the
// window index.
func NewMatcher[E any](m Measure[E], cfg Config, db []Sequence[E]) (*Matcher[E], error) {
	return core.NewMatcher(m, cfg, db)
}

// Distance measures. Each *Measure constructor returns the function
// bundled with its properties; the bare constructors return just the
// function.

// EuclideanMeasure is the L2 distance over equal-length sequences.
func EuclideanMeasure[E any](g Ground[E]) Measure[E] { return dist.EuclideanMeasure(g) }

// HammingMeasure counts positions at which equal-length sequences differ.
func HammingMeasure[E comparable]() Measure[E] { return dist.HammingMeasure[E]() }

// DTWMeasure is Dynamic Time Warping (consistent but not a metric; only
// the IndexLinearScan backend accepts it).
func DTWMeasure[E any](g Ground[E]) Measure[E] { return dist.DTWMeasure(g) }

// ERPMeasure is Edit distance with Real Penalty, a consistent metric.
func ERPMeasure[E any](g Ground[E], gap E) Measure[E] { return dist.ERPMeasure(g, gap) }

// DiscreteFrechetMeasure is the discrete Fréchet distance, a consistent
// metric.
func DiscreteFrechetMeasure[E any](g Ground[E]) Measure[E] { return dist.DiscreteFrechetMeasure(g) }

// LevenshteinMeasure is the unit-cost edit distance over any comparable
// alphabet.
func LevenshteinMeasure[E comparable]() Measure[E] { return dist.LevenshteinMeasure[E]() }

// LevenshteinFastMeasure is the byte-string edit distance using Myers'
// bit-parallel algorithm (identical semantics, much faster for strings up
// to 64 characters).
func LevenshteinFastMeasure() Measure[byte] { return dist.LevenshteinFastMeasure() }

// WeightedEditMeasure is a weighted edit distance over byte strings
// (mismatch 1.5, indel 1): a consistent metric with incremental and bounded
// evaluation, accepted by every index backend.
func WeightedEditMeasure() Measure[byte] { return dist.WeightedEditMeasure() }

// ProteinEditMeasure is a weighted edit distance over amino-acid strings
// with physico-chemical substitution costs — a metric, index-compatible
// stand-in for biological scoring schemes.
func ProteinEditMeasure() Measure[byte] { return dist.ProteinEditMeasure() }

// Ground distances.

// AbsDiff is |a−b| for scalar series.
func AbsDiff(a, b float64) float64 { return dist.AbsDiff(a, b) }

// Point2Dist is the planar Euclidean ground distance.
func Point2Dist(a, b Point2) float64 { return dist.Point2Dist(a, b) }

// Inconsistency is a witness against Definition 1, returned by
// FindInconsistency: the subsequence x[XStart:XEnd) whose best counterpart
// in q (at distance Best) exceeds the base distance d(q, x) by more than the
// tolerance.
type Inconsistency = dist.Inconsistency

// FindInconsistency exhaustively searches the pair (q, x) for a violation of
// the consistency property, returning a witness and true if one exists. Use
// it to vet a custom Measure's Consistent claim on small inputs before
// handing it to NewMatcher.
func FindInconsistency[E any](d DistanceFunc[E], q, x []E, tol float64) (Inconsistency, bool) {
	return dist.FindInconsistency(d, q, x, tol)
}

// The Reference Net, exposed as a general-purpose metric index.

// RefNet is the paper's linear-space hierarchical metric index.
type RefNet[T any] = refnet.Net[T]

// RefNetNode is a handle to an inserted item, accepted by Delete.
type RefNetNode[T any] = refnet.Node[T]

// RefNetStats summarises a net's structure and space.
type RefNetStats = refnet.Stats

// NewRefNet returns an empty reference net over the given metric distance.
// Options: WithBase (ǫ′), WithMaxParents (nummax).
func NewRefNet[T any](d func(a, b T) float64, opts ...refnet.Option) *RefNet[T] {
	return refnet.New(metric.DistFunc[T](d), opts...)
}

// LoadRefNet reads a net previously written with RefNet.Save, re-attaching
// the distance function. Loading performs no distance computations.
func LoadRefNet[T any](r io.Reader, d func(a, b T) float64) (*RefNet[T], error) {
	return refnet.Load(r, d)
}

// WithBase sets the net's base radius ǫ′ (default 1).
func WithBase(base float64) refnet.Option { return refnet.WithBase(base) }

// WithMaxParents caps the number of lists a node may appear in (nummax).
func WithMaxParents(n int) refnet.Option { return refnet.WithMaxParents(n) }

// CoverTree is the single-parent baseline index.
type CoverTree[T any] = covertree.Tree[T]

// NewCoverTree returns an empty cover tree with base radius ǫ′.
func NewCoverTree[T any](d func(a, b T) float64, base float64) *CoverTree[T] {
	return covertree.New(metric.DistFunc[T](d), base)
}

// MVIndex is the reference-based baseline index with Maximum-Variance
// reference selection.
type MVIndex[T any] = refindex.Index[T]

// NewMVIndex builds a reference-based index with k references.
func NewMVIndex[T any](items []T, k int, d func(a, b T) float64) (*MVIndex[T], error) {
	return refindex.Build(items, k, metric.DistFunc[T](d), refindex.Options{})
}

// The live index lifecycle (internal/store): streaming ingest, deletion
// and zero-downtime snapshot/restore over a running matcher. See
// docs/PERSISTENCE.md.

// Store wraps a Matcher with the lifecycle a long-lived serving process
// needs: Append/Retire mutate the live index while queries run (queries
// go through View or a pool from Store.NewQueryPool and drain before
// each mutation), Sweep retires TTL-expired sequences, and
// Snapshot/OpenStore persist and restore the whole state through a
// versioned, checksummed format.
type Store[E any] = store.Store[E]

// StoreOption configures a Store at construction (WithClock).
type StoreOption = store.Option

// AppendOption configures one Store.Append (AppendTTL).
type AppendOption = store.AppendOption

// AppendResult reports what a Store.Append did.
type AppendResult = store.AppendResult

// SnapshotHeader is a snapshot's self-description: measure, element
// type, backend, parameters and sequence census. OpenStore validates it
// against the opening session before restoring anything.
type SnapshotHeader = store.Header

// SnapshotCorruptError reports a snapshot stream that cannot be decoded,
// with the byte offset at which decoding failed. It is the one corruption
// type of both persisted formats, so a damaged net stream inside a
// snapshot, or blocks of a checksummed snapshot that disagree, are one too.
type SnapshotCorruptError = store.CorruptError

// SnapshotMismatchError reports a well-formed snapshot that belongs to a
// different session (wrong measure, element type or parameters).
type SnapshotMismatchError = store.MismatchError

// ErrRetireUnsupported is returned by Store.Retire on backends with no
// deletion operation (the cover tree baseline).
var ErrRetireUnsupported = core.ErrRetireUnsupported

// NewStore builds a live Store over db (see NewMatcher for the
// construction semantics; the Store adds mutation and persistence).
func NewStore[E any](m Measure[E], cfg Config, db []Sequence[E], opts ...StoreOption) (*Store[E], error) {
	return store.New(m, cfg, db, opts...)
}

// OpenStore restores a Store from a snapshot stream written by
// Store.Snapshot. The element type and measure must match the snapshot's
// header; check (optional) may impose further requirements — the
// registry's OpenStore passes one that holds the header against a full
// session spec. Refnet-backed snapshots restore without recomputing any
// distances.
func OpenStore[E any](r io.Reader, m Measure[E], check func(SnapshotHeader) error, opts ...StoreOption) (*Store[E], error) {
	return store.Open(r, m, check, opts...)
}

// OpenStoreFile is OpenStore over a snapshot file.
func OpenStoreFile[E any](path string, m Measure[E], check func(SnapshotHeader) error, opts ...StoreOption) (*Store[E], error) {
	return store.OpenFile(path, m, check, opts...)
}

// ReadSnapshotHeader decodes just the header of a snapshot stream — the
// inspection path; nothing is restored and the stream CRC is not
// verified.
func ReadSnapshotHeader(r io.Reader) (SnapshotHeader, error) {
	return store.ReadHeader(r)
}

// AppendTTL schedules a sequence appended with it for retirement once d
// has elapsed (Store.Sweep performs the retirement).
func AppendTTL(d time.Duration) AppendOption { return store.WithTTL(d) }

// SnapshotScheduler is a running background snapshot loop started by
// Store.ScheduleSnapshots: a crash-safe SnapshotFile every interval, with
// jittered-backoff retries on transient write failure and health counters
// for monitoring. Stop ends it.
type SnapshotScheduler = store.Scheduler

// SnapshotSchedulerStats is a SnapshotScheduler's health snapshot.
type SnapshotSchedulerStats = store.SchedulerStats

// SnapshotSchedulerOption tunes Store.ScheduleSnapshots
// (WithSnapshotRetries, WithSnapshotBackoff, WithSnapshotOnError).
type SnapshotSchedulerOption = store.SchedulerOption

// WithSnapshotRetries bounds per-round retries of a failed background
// snapshot (default 3).
func WithSnapshotRetries(n int) SnapshotSchedulerOption { return store.WithSnapshotRetries(n) }

// WithSnapshotBackoff sets the first retry delay and its cap (defaults
// 250ms, 5s); delays double with ±25% jitter.
func WithSnapshotBackoff(first, max time.Duration) SnapshotSchedulerOption {
	return store.WithSnapshotBackoff(first, max)
}

// WithSnapshotOnError installs a callback for background snapshot write
// failures.
func WithSnapshotOnError(fn func(error)) SnapshotSchedulerOption {
	return store.WithSnapshotOnError(fn)
}

// WithClock substitutes the Store's wall clock for TTL bookkeeping.
func WithClock(now func() time.Time) StoreOption { return store.WithClock(now) }
