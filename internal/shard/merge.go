package shard

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// Deterministic merges. The single-node engine's verified answers come
// out in a canonical order — internal/core's verifyAll sorts matches with
// core.CanonicalCompare — and a Plan gives each shard a disjoint,
// contiguous slice of the SeqID space, so merging per-shard answers under
// the same comparator reproduces the single-node byte order exactly. "The
// same comparator" is literal: the match orders used here
// (core.CanonicalCompare, core.LongestBefore, core.NearestBefore) are
// imported from the engine, not mirrored, so the verifier's pick and the
// gateway's pick cannot drift apart. Filter hits are the one answer the
// engine emits in traversal order (each backend walks its index
// differently), so the serving tiers impose a canonical hit order of
// their own: a serve process sorts with SortHits before it encodes, the
// gateway merges with MergeHits, and a single node and a fleet agree byte
// for byte.

// compareHits is the canonical filter-hit order: by database offset first
// (the "stable sort by offset" the merged answer promises), then window.
func compareHits(a, b Hit) int {
	return cmp.Or(cmp.Compare(a.SeqID, b.SeqID), cmp.Compare(a.SegStart, b.SegStart),
		cmp.Compare(a.SegEnd, b.SegEnd), cmp.Compare(a.WindowStart, b.WindowStart))
}

// gather concatenates per-shard lists in shard order. The result is never
// nil, so an empty merged answer encodes as [], not null.
func gather[T any](lists [][]T) []T {
	if out := slices.Concat(lists...); out != nil {
		return out
	}
	return []T{}
}

// MergeMatches merges per-shard findall answers into the canonical global
// order: a stable sort of the lists laid end to end in shard order. Each
// input list is canonically ordered (single-node answers are), and under
// the Plan invariant the lists cover disjoint ascending SeqID ranges, so
// the concatenation is already sorted, the sort moves nothing, and the
// output is bit-identical to a single node over the union of the shards;
// lists that interleave are merged all the same, equal coordinates keeping
// shard order.
func MergeMatches(lists [][]Match) []Match {
	out := gather(lists)
	slices.SortStableFunc(out, core.CanonicalCompare)
	return out
}

// MergeHits gathers per-shard filter answers and sorts them into the
// canonical hit order. Each backend emits hits in its own traversal order,
// so the merged answer is defined by the sort, not by the arrival order.
func MergeHits(lists [][]Hit) []Hit {
	out := gather(lists)
	SortHits(out)
	return out
}

// unionMatches and unionHits are MergeMatches and MergeHits with repeats
// removed: the forward merge of a carried partial with a scoped reply over
// the sequences appended since. One node never repeats a match or a hit,
// so the union is the answer even when the reply repeats what the partial
// holds — a full ask that raced an append, or a shard that ignored "seqs".
func unionMatches(lists [][]Match) []Match {
	return slices.CompactFunc(MergeMatches(lists), func(a, b Match) bool { return core.CanonicalCompare(a, b) == 0 })
}

func unionHits(lists [][]Hit) []Hit {
	return slices.CompactFunc(MergeHits(lists), func(a, b Hit) bool { return compareHits(a, b) == 0 })
}

// SortHits sorts hits in place into the canonical order MergeHits uses. A
// serve process calls it on every filter answer before encoding, which is
// what makes a single node's /query/filter the gateway's byte for byte.
func SortHits(hits []Hit) { slices.SortFunc(hits, compareHits) }

// BestLongest reduces per-shard longest answers (nil = shard found
// nothing) to the global deterministic best.
func BestLongest(cands []*Match) *Match {
	return bestBy(cands, core.LongestBefore)
}

// BestNearest reduces per-shard nearest answers to the global
// deterministic best.
func BestNearest(cands []*Match) *Match {
	return bestBy(cands, core.NearestBefore)
}

func bestBy(cands []*Match, before func(a, b Match) bool) *Match {
	var best *Match
	for _, c := range cands {
		if c == nil {
			continue
		}
		if best == nil || before(*c, *best) {
			m := *c
			best = &m
		}
	}
	return best
}
