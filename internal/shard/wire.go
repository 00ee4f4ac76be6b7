package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
)

// Wire types shared by the shard serve processes and the scatter-gather
// gateway. The field names and JSON tags mirror the single-node serving
// tier's formats (cmd/subseqctl serve, documented in docs/SERVING.md)
// exactly — the gateway speaks the same protocol downstream (to shards)
// and upstream (to clients), so a client cannot tell a gateway from a
// single node except by the optional "degradation" block. The query
// payload itself stays a json.RawMessage throughout: the gateway is
// element-agnostic and never decodes sequences, it only fans bodies out
// and merges the typed result envelopes.

// Match is one verified subsequence match: core.Match itself, whose JSON
// tags are the wire format, so the engine, a serve process and the gateway
// share one definition of a match and of its orders (merge.go).
type Match = core.Match

// Hit is one filtered segment↔window pair.
type Hit struct {
	SeqID       int `json:"seq_id"`
	WindowStart int `json:"window_start"`
	WindowEnd   int `json:"window_end"`
	SegStart    int `json:"segment_start"`
	SegEnd      int `json:"segment_end"`
}

// MatchesResponse answers findall. Degradation is present only when a
// gateway answered with one or more shards unavailable.
type MatchesResponse struct {
	Count       int          `json:"count"`
	Matches     []Match      `json:"matches"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// BestResponse answers longest and nearest.
type BestResponse struct {
	BestResult
	Degradation *Degradation `json:"degradation,omitempty"`
}

// HitsResponse answers filter.
type HitsResponse struct {
	Count       int          `json:"count"`
	Hits        []Hit        `json:"hits"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// ErrorResponse is the error envelope every endpoint uses.
type ErrorResponse struct {
	Error string `json:"error"`
}

// BatchRequest is the body of POST /query/batch: many queries of one
// kind in one round trip, answered by the *Batch methods on each serving
// process. Queries stay raw — the serve process decodes them
// element-typed; the gateway forwards them opaque.
type BatchRequest struct {
	// Kind selects the query type: "findall", "longest" or "filter"
	// (nearest takes no shared radius and has no batch form).
	Kind    string            `json:"kind"`
	Queries []json.RawMessage `json:"queries"`
	// Eps is the shared radius (all kinds).
	Eps *float64 `json:"eps"`
}

// BatchResponse answers a batch: Results[i] answers Queries[i]. Exactly
// one of Matches/Best/Hits is populated, per Kind.
type BatchResponse struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
	// Matches answers findall batches: Matches[i] is query i's matches.
	Matches [][]Match `json:"matches,omitempty"`
	// Best answers longest batches: Best[i] is query i's best match.
	Best []BestResult `json:"best,omitempty"`
	// Hits answers filter batches: Hits[i] is query i's hits.
	Hits        [][]Hit      `json:"hits,omitempty"`
	Degradation *Degradation `json:"degradation,omitempty"`
}

// BestResult is one query's best match: the body of a longest or nearest
// answer, and one entry of a longest batch.
type BestResult struct {
	Found bool   `json:"found"`
	Match *Match `json:"match,omitempty"`
}

// Validate checks the batch envelope — a batched kind, at least one
// query, and the radius under the same check the kind's single-query route
// applies — and returns the kind's table entry with the checked
// parameters. A serve process and the gateway both call it, so an invalid
// batch draws the same 400 from either.
func (r *BatchRequest) Validate() (Kind, Args, error) {
	i := slices.IndexFunc(Kinds, func(k Kind) bool { return k.Batch && k.Name == r.Kind })
	if i < 0 {
		return Kind{}, Args{}, fmt.Errorf("batch kind must be findall, longest or filter, got %q", r.Kind)
	}
	k := Kinds[i]
	if len(r.Queries) == 0 {
		return Kind{}, Args{}, errors.New(`"queries" must be non-empty`)
	}
	args, err := k.Check(Params{Eps: r.Eps})
	return k, args, err
}

// --- Admin write fan-out (admin.go) ---

// AdminReplicaResult is one replica's outcome in a gateway write
// fan-out. Response carries the replica's own answer verbatim (the
// single-node appendResponse/retireResponse/snapshotResponse); Path is
// set for snapshots (the per-replica target the gateway substituted).
type AdminReplicaResult struct {
	Shard    int             `json:"shard"`
	Replica  int             `json:"replica"`
	Addr     string          `json:"addr"`
	OK       bool            `json:"ok"`
	Status   int             `json:"status,omitempty"`
	Error    string          `json:"error,omitempty"`
	Path     string          `json:"path,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// AdminFanoutResponse answers POST /admin/{append,retire,snapshot} on
// the gateway: the owning range (append/retire), the global sequence ID
// the write concerned, quorum accounting over the fan-out, the plan
// epoch after the write and how many cached answers the write
// invalidated. Diverged flags acked replicas disagreeing on the
// allocated ID — split brain an operator must heal.
type AdminFanoutResponse struct {
	Op          string               `json:"op"`
	Shard       *int                 `json:"shard,omitempty"`
	Range       *Range               `json:"range,omitempty"`
	SeqID       *int                 `json:"seq_id,omitempty"`
	Acks        int                  `json:"acks"`
	Replicas    int                  `json:"replicas"`
	Quorum      bool                 `json:"quorum"`
	Diverged    bool                 `json:"diverged,omitempty"`
	Epoch       uint64               `json:"epoch"`
	Invalidated int                  `json:"invalidated,omitempty"`
	Results     []AdminReplicaResult `json:"results"`
}

// --- Result cache (cache.go) ---

// CacheCounters reports the gateway result cache on /stats: traffic
// (hits/misses), pressure (evictions against the byte budget, current
// residency), write-path invalidations, and the configured limits.
type CacheCounters struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	MaxBytes      int64   `json:"max_bytes"`
	TTLSeconds    float64 `json:"ttl_seconds"`
}

// PartialCounters reports the result cache's per-range partial answers on
// /stats, apart from the merged answers' CacheCounters: lookups of a
// range's partial (hits/misses), evictions against the shared byte
// budget, partials dropped by writes to their range (invalidations),
// current residency, and each range's epoch — the count of acknowledged
// writes to it through this gateway, which every partial is current at.
// Of the hits, Forwarded counts partials carried across writes with no
// shard call and Deltas those carried with one scoped ask ("seqs").
type PartialCounters struct {
	Hits          int64    `json:"hits"`
	Misses        int64    `json:"misses"`
	Evictions     int64    `json:"evictions"`
	Invalidations int64    `json:"invalidations"`
	Forwarded     int64    `json:"forwarded"`
	Deltas        int64    `json:"deltas"`
	Entries       int      `json:"entries"`
	Bytes         int64    `json:"bytes"`
	Epochs        []uint64 `json:"epochs"`
}

// --- Degradation: typed partial failure ---

// ShardFailure records one shard range that could not answer a query.
// Status is the HTTP status the shard returned, or 0 when the failure
// was at the transport (connection refused, timeout). With replicated
// ranges a failure means *every* replica of the range failed; Replicas
// then itemises each replica's own error, and Addr lists the whole set.
type ShardFailure struct {
	Shard    int            `json:"shard"`
	Range    Range          `json:"range"`
	Addr     string         `json:"addr"`
	Status   int            `json:"status,omitempty"`
	Error    string         `json:"error"`
	Replicas []ReplicaError `json:"replicas,omitempty"`
}

// ReplicaError is one replica's contribution to a range failure.
type ReplicaError struct {
	Replica int    `json:"replica"`
	Addr    string `json:"addr"`
	Status  int    `json:"status,omitempty"`
	Error   string `json:"error"`
}

func (f ShardFailure) String() string {
	if f.Status != 0 {
		return fmt.Sprintf("shard %d %s (%s): HTTP %d: %s", f.Shard, f.Range, f.Addr, f.Status, f.Error)
	}
	return fmt.Sprintf("shard %d %s (%s): %s", f.Shard, f.Range, f.Addr, f.Error)
}

// --- Health reporting: breaker state on the wire ---

// BreakerStatus is one replica breaker's snapshot as /healthz and
// /stats report it: the state name ("closed", "open", "half-open"), the
// current consecutive-failure streak, and the last error observed.
type BreakerStatus struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	LastError           string `json:"last_error,omitempty"`
}

// ReplicaHealth is one replica's health line. OK is the live probe
// verdict on /healthz and the breaker-closed verdict on /stats (which
// does not probe).
type ReplicaHealth struct {
	Replica int           `json:"replica"`
	Addr    string        `json:"addr"`
	OK      bool          `json:"ok"`
	Breaker BreakerStatus `json:"breaker"`
}

// RangeHealth is one shard range's replica roster: the range is up
// while any replica is.
type RangeHealth struct {
	Shard    int             `json:"shard"`
	Range    Range           `json:"range"`
	Up       int             `json:"up"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// HealthzResponse answers GET /healthz on the gateway. OK (and HTTP
// 200) holds while at least one range can answer at all; FullCoverage
// additionally requires every range up — an operator watching a sick
// fleet sees full_coverage drop (and the per-replica breaker detail
// name the culprit) while ok still holds.
type HealthzResponse struct {
	OK           bool          `json:"ok"`
	ShardsUp     int           `json:"shards_up"`
	Shards       int           `json:"shards"`
	FullCoverage bool          `json:"full_coverage"`
	Ranges       []RangeHealth `json:"ranges"`
}

// Degradation marks a merged response assembled without every shard:
// the answer is complete over the surviving shards' sequence ranges and
// silent about the failed ones. Clients that need totality must treat a
// degraded response as an error; clients that prefer availability get
// the best answer the surviving fleet can give, with the blind spots
// named.
type Degradation struct {
	Degraded bool           `json:"degraded"`
	Failures []ShardFailure `json:"failures"`
}
