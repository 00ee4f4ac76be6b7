package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
)

// The kind table. The four query kinds share one pipeline (segment →
// filter → verify) and differ in the last reduce, so a kind is one entry
// here — its route name, whether /query/batch takes it, its parameter
// check, and how the gateway reduces per-range answers to one — and
// nothing else in the serving tiers names a kind: a serve process mounts
// its routes from this table (adding how it answers each entry on its
// element-typed matcher, cmd/subseqctl), the gateway mounts its own from
// it (gateway.go), and BatchRequest.Validate resolves a batch's kind
// through it.

// Params are the kind-specific fields of a /query/* body; nil is absent.
type Params struct {
	// Eps is the query radius (findall, longest, filter, every batch).
	Eps *float64 `json:"eps"`
	// EpsMax/EpsInc tune nearest (Type III); eps_inc defaults to
	// eps_max/16 and may not be under eps_max/4096
	// (core.NearestOptions.Validate).
	EpsMax *float64 `json:"eps_max"`
	EpsInc *float64 `json:"eps_inc"`
	// Seqs scopes findall, longest and filter to the listed sequence IDs:
	// the answer is the full one with every match or hit on another
	// sequence left out. Absent or null scopes nothing; nearest refuses it,
	// since its radius schedule starts from the least distance over every
	// window.
	Seqs *[]int `json:"seqs"`
}

// Args are a query's checked parameters: Eps for the radius kinds, Nearest
// for nearest, and Seqs for a radius kind's scope — nil when the body named
// none, never empty otherwise.
type Args struct {
	Eps     float64
	Nearest core.NearestOptions
	Seqs    []int
}

// Kind is one entry of the kind table.
type Kind struct {
	// Name is the route (/query/<Name>) and, for a batched kind, the batch
	// envelope's "kind".
	Name string
	// Batch reports whether /query/batch accepts the kind (nearest takes no
	// shared radius and has no batch form).
	Batch bool
	// Check validates the kind's parameters; its error is the 400 body.
	Check func(Params) (Args, error)
	reducer
}

// The four kinds, and the table that lists them.
var (
	FindAll = Kind{"findall", true, radius, reduce(
		func(r *MatchesResponse) []Match { return r.Matches },
		func(b *BatchResponse) *[][]Match { return &b.Matches },
		MergeMatches, unionMatches,
		func(ms []Match, deg *Degradation) MatchesResponse {
			return MatchesResponse{Count: len(ms), Matches: ms, Degradation: deg}
		})}
	Longest = Kind{"longest", true, radius, reduce(
		bestPayload, func(b *BatchResponse) *[]BestResult { return &b.Best },
		best(BestLongest), best(BestLongest), bestEnvelope)}
	Nearest = Kind{"nearest", false, nearest, reduce(
		bestPayload, nil, best(BestNearest), nil, bestEnvelope)}
	Filter = Kind{"filter", true, radius, reduce(
		func(r *HitsResponse) []Hit { return r.Hits },
		func(b *BatchResponse) *[][]Hit { return &b.Hits },
		MergeHits, unionHits,
		func(hs []Hit, deg *Degradation) HitsResponse {
			return HitsResponse{Count: len(hs), Hits: hs, Degradation: deg}
		})}

	// Kinds is the table, in the order routes are mounted.
	Kinds = []Kind{FindAll, Longest, Nearest, Filter}
)

// radius checks the radius shared by findall, longest, filter and every
// batch.
func radius(p Params) (Args, error) {
	if p.Eps == nil {
		return Args{}, errors.New(`missing "eps"`)
	}
	if *p.Eps < 0 {
		return Args{}, errors.New(`"eps" must be >= 0`)
	}
	a := Args{Eps: *p.Eps}
	if p.Seqs != nil {
		if len(*p.Seqs) == 0 {
			return Args{}, errors.New(`"seqs" must name at least one sequence`)
		}
		a.Seqs = *p.Seqs
	}
	return a, nil
}

// nearest checks Type III's radius schedule.
func nearest(p Params) (Args, error) {
	if p.EpsMax == nil || *p.EpsMax <= 0 {
		return Args{}, errors.New(`nearest requires "eps_max" > 0`)
	}
	if p.Seqs != nil {
		return Args{}, errors.New(`nearest does not take "seqs"`)
	}
	opts := core.DefaultNearestOptions(*p.EpsMax)
	if p.EpsInc != nil {
		opts.EpsInc = *p.EpsInc
	}
	// eps_max is positive here, so what is left for Validate to refuse is
	// eps_inc.
	switch err := opts.Validate(); {
	case errors.Is(err, core.ErrNearestEpsIncTooSmall):
		return Args{}, fmt.Errorf(`"eps_inc" must be at least "eps_max"/%d`, core.MaxNearestSteps)
	case err != nil:
		return Args{}, errors.New(`"eps_inc" must be > 0`)
	}
	return Args{Nearest: opts}, nil
}

// reducer is the gateway's half of a Kind, built by reduce over the kind's
// payload type so that a single query and a batch column merge through the
// same function.
type reducer struct {
	// one scatters a single query and merges the ranges' envelopes.
	one func(g *Gateway, ctx context.Context, rd read) flightResult
	// width is the length of the kind's column in a batch answer (the
	// shape check); columns fills that column of out, query by query, from
	// the answered ranges.
	width   func(b *BatchResponse) int
	columns func(out *BatchResponse, answered []*BatchResponse, n int)
}

// reduce builds a kind's reducer from five pieces: payload reads one
// query's answer A out of the kind's single-query envelope R, column
// addresses the kind's column of a batch (nil: no batch form), merge
// reduces the ranges' answers to one (and must not retain its argument),
// union merges a range's carried partial with a scoped reply over some of
// its sequences, repeats removed (nil: the kind's partials are not carried
// across writes), envelope wraps the merged answer for the wire.
func reduce[R, A any](payload func(*R) A, column func(*BatchResponse) *[]A, merge, union func([]A) A, envelope func(A, *Degradation) R) reducer {
	var carry func(base, delta []byte) ([]byte, error)
	if union != nil {
		carry = func(base, delta []byte) ([]byte, error) {
			var b, d R
			if err := json.Unmarshal(base, &b); err != nil {
				return nil, err
			}
			if err := json.Unmarshal(delta, &d); err != nil {
				return nil, err
			}
			return encodeJSON(envelope(union([]A{payload(&b), payload(&d)}), nil)), nil
		}
	}
	return reducer{
		one: func(g *Gateway, ctx context.Context, rd read) flightResult {
			rd.carry = carry
			return gatherResult(g, ctx, rd, nil, func(answered []*R, deg *Degradation) any {
				parts := make([]A, len(answered))
				for i, r := range answered {
					parts[i] = payload(r)
				}
				return envelope(merge(parts), deg)
			})
		},
		width: func(b *BatchResponse) int { return len(*column(b)) },
		columns: func(out *BatchResponse, answered []*BatchResponse, n int) {
			col := make([]A, n)
			parts := make([]A, len(answered))
			for q := range col {
				for i, r := range answered {
					parts[i] = (*column(r))[q]
				}
				col[q] = merge(parts)
			}
			*column(out) = col
		},
	}
}

func bestPayload(r *BestResponse) BestResult { return r.BestResult }

func bestEnvelope(b BestResult, deg *Degradation) BestResponse { return BestResponse{b, deg} }

// best lifts a best-of over match candidates (BestLongest, BestNearest) to
// the ranges' BestResults: only a range that found something contributes.
func best(pick func([]*Match) *Match) func([]BestResult) BestResult {
	return func(parts []BestResult) BestResult {
		cands := make([]*Match, 0, len(parts))
		for _, p := range parts {
			if p.Found {
				cands = append(cands, p.Match)
			}
		}
		m := pick(cands)
		return BestResult{Found: m != nil, Match: m}
	}
}
