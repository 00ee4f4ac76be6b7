// Package core implements the paper's subsequence-retrieval framework
// (Sections 5 and 7): given a database of sequences, a consistent distance
// measure and the two user parameters λ (minimum match length) and λ0
// (maximum temporal shift), it answers the three query types — range
// (Type I, FindAll), longest similar subsequence (Type II, Longest) and
// nearest neighbour (Type III, Nearest).
//
// # Pipeline
//
// A Matcher executes the paper's five steps:
//
//  1. the database is partitioned into fixed windows of length l = λ/2
//     (Lemma 2 requires l ≤ λ/2 for the filter to be lossless);
//  2. the windows are inserted into a metric index (Config.Index selects
//     the reference net, the cover tree, the MV reference index, or a
//     linear scan for non-metric measures; the Matcher holds whichever it
//     is behind one contract, backend.go, and opens one session per query
//     on it);
//  3. every query segment of length λ/2−λ0 … λ/2+λ0 probes the index for
//     windows within the query radius;
//  4. surviving segment↔window pairs (Hits) seed candidate regions;
//  5. the candidates in those regions are verified (verify.go): one
//     incremental-kernel pass per distinct (query start, database start)
//     pair prices every candidate end of that pair, one free-start pass
//     over the query starts of a database start skips them all when it
//     leaves no candidate within the radius, and the query type's visitor
//     collects or maximises the reported Matches.
//
// Construction-time validation (validateMeasure) rejects unsound
// configurations instead of returning silently wrong answers: the filter
// is lossless only for consistent measures, metric indexes prune correctly
// only for metric measures, and lock-step measures require λ0 = 0.
//
// # Throughput
//
// The filter takes the measure's optional fast paths when present: the
// incremental kernel path (Measure.Prepare) prices all 2λ0+1 segment
// lengths at one query offset in a single streamed pass — on the linear
// backend per window, and on the reference net inside the index traversal
// itself (kerneleval.go), where grouped probes cut counted filter
// evaluations below one per probe. Both first spend one free-start pass
// (dist.FreeStartKernel) over the stretch of the query at stake — per
// window on the scan, per visited node on the net — which bounds every
// offset from below, and stream an exact pass only at the offsets it
// cannot rule out. Bounded early-abandoning evaluation
// stops a distance computation as soon as it provably exceeds the radius,
// on the linear scan and on the net's traversal probes alike. The
// immutable kernel preprocessing is built lazily, once per window on
// first touch, and shared by all workers (preparedAt), capping kernel
// memory at O(windows) without an O(windows) startup cost. The verifier
// reads the same kernels cell by cell (Kernel.At): all candidates sharing
// a start pair are prefixes of one DP table, so it runs one pass per start
// pair instead of one evaluation per candidate, and abandons a pass once
// the kernel's Floor proves every later cell outside the radius.
// VerifyDistanceCalls counts those passes. Each query counts what it
// spends in a record of its own, added to the matcher's totals once when it
// ends; the index's own distance counts build work only. Every path answers one query with one index traversal over that query's
// own segments: FilterHitsBatch / FindAllBatch / LongestBatch and
// QueryPool's barrier methods are one parallel-for over the single-query
// methods, handing queries one at a time to up to GOMAXPROCS (the *Batch
// methods) or Workers (the pool) goroutines, the caller's among them — a
// traversal shared across queries saved no distance evaluation and
// measured slower (DESIGN.md §4). A Matcher is safe for concurrent
// queries.
//
// # Serving
//
// QueryPool's streaming face (stream.go) is the serving shape over the
// same machinery: Submit / SubmitFilter / SubmitLongest / SubmitNearest
// accept queries one at a time and return per-query Futures, answered by
// a long-lived worker set: an idle worker pops the oldest pending
// submission and answers that one query.
// Submissions honour contexts, the in-flight queue is bounded
// (backpressure), and Close drains gracefully. subseqctl serve and
// docs/SERVING.md build the HTTP surface on exactly this API.
//
// BruteForce answers the same three query types over every pair: the
// all-pairs baseline of the Lemma 3 containment tests, not the exact answer.
package core
