package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gateway is the scatter-gather front end: one HTTP handler speaking the
// single-node serving protocol upstream, fanning every query out to the
// shard fleet downstream and merging the answers deterministically
// (merge.go). It never decodes query payloads — the request body is
// forwarded to every range verbatim — so one gateway binary fronts byte,
// float64 and point2 sessions alike.
//
// Each sequence range maps to a replica set (NewReplicatedGateway), and
// the fan-out is replica-aware: a query needs one answer per *range*,
// obtained from whichever replica answers first. Routing prefers
// replicas whose circuit breaker is closed (health.go), fails over to
// the next replica on error, and — when hedging is enabled — launches a
// second read against another replica once the first has been in flight
// longer than the hedge threshold; the first answer wins and the loser
// is cancelled through its request context. A range degrades only when
// every replica fails, so a single replica loss is masked completely:
// the merged answer stays bit-identical to a single node with no
// Degradation block.
//
// Failure semantics per range: a replica that answers 4xx has judged the
// request itself malformed; since every replica shares the session spec,
// that verdict stands for the range (and the first such verdict for the
// fleet) and is returned to the client verbatim. A replica that cannot
// answer (transport error, 5xx, or still shedding 429/503 after the
// retry budget) triggers failover; when every replica of a range is
// exhausted the range is recorded as a ShardFailure with each replica's
// error itemised, and the merged response carries a Degradation block.
// Only when no range answers does the gateway fail the request (502).
//
// With the result cache on (cache.go) a range is asked only when it has
// no cached partial that answers at its current epoch; a findall, longest
// or filter partial older than the range's last writes is carried through
// them (admin.go), at most one scoped ask over the sequences appended
// since, and the fan-out merges cached, carried and fresh replies alike.

// PostFunc issues a POST with a JSON body, returning the response. The
// bounded-retry client in cmd/subseqctl satisfies this; tests inject
// httptest-backed functions.
type PostFunc func(ctx context.Context, url string, body []byte) (*http.Response, error)

// GetFunc issues a GET (stats, healthz probes).
type GetFunc func(ctx context.Context, url string) (*http.Response, error)

// maxGatewayBody caps an incoming request body, mirroring the serve
// process's own cap so the gateway never buffers what a shard would
// refuse anyway.
const maxGatewayBody = 8 << 20

// Gateway fans queries out over a Plan's ranges, each served by a
// replica set. Construct with NewGateway (one replica per range) or
// NewReplicatedGateway; serve Handler(); optionally StartProbing().
type Gateway struct {
	// planp holds the current plan behind an atomic pointer: admin
	// appends grow the tail range (admin.go), and handlers read the plan
	// lock-free. Mutations are serialised by adminMu.
	planp    atomic.Pointer[Plan]
	adminMu  sync.Mutex
	replicas [][]string    // per range, cleaned base URLs
	health   []*replicaSet // per range, breakers + round-robin cursor
	post     PostFunc
	get      GetFunc
	mux      *http.ServeMux
	start    time.Time

	hedgeAfter       time.Duration
	probeInterval    time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	flight flightGroup
	// cache holds merged 200-OK answers and each range's share of them
	// under canonical keys (cache.go); nil when caching is off. epoch is
	// the shard-plan epoch every merged key embeds; ranges[i] holds range
	// i's epoch, which each of its partials is current at, and the log of
	// the writes that moved it (admin.go). Each acknowledged write moves
	// the written range's epoch, then the plan's.
	cache  *Cache
	epoch  atomic.Uint64
	ranges []rangeState
	// midBump, when set, runs inside bumpEpoch between the range's epoch
	// move and the plan's, so a test can interleave a read there.
	midBump func()

	queries      atomic.Int64
	batches      atomic.Int64
	degraded     atomic.Int64
	shardErrors  atomic.Int64
	hedges       atomic.Int64
	hedgeWins    atomic.Int64
	failovers    atomic.Int64
	flightHits   atomic.Int64
	flightMisses atomic.Int64
	writes       atomic.Int64
}

// GatewayOption customises NewGateway.
type GatewayOption func(*Gateway)

// WithPost injects the POST transport (e.g. the bounded-retry client).
func WithPost(p PostFunc) GatewayOption { return func(g *Gateway) { g.post = p } }

// WithGet injects the GET transport.
func WithGet(get GetFunc) GatewayOption { return func(g *Gateway) { g.get = get } }

// WithHedgeAfter enables hedged reads: when a range's first attempt has
// been in flight for d without answering, a second attempt is launched
// against the next-preferred replica and the first answer wins (the
// loser is cancelled). d <= 0 disables hedging (the default): failover
// then happens only on error, never on latency.
func WithHedgeAfter(d time.Duration) GatewayOption { return func(g *Gateway) { g.hedgeAfter = d } }

// WithProbeInterval paces the background health prober StartProbing
// launches. d <= 0 disables background probing; breakers are then fed
// by query traffic and /healthz requests alone.
func WithProbeInterval(d time.Duration) GatewayOption {
	return func(g *Gateway) { g.probeInterval = d }
}

// WithCache enables the gateway result cache: successful, undegraded
// merged answers are kept under their canonical key (CacheKey), and with
// more than one range each range's reply too (partKey), within one total
// byte budget, evicted LRU within that budget and by TTL (ttl <= 0 keeps
// entries until eviction or write-path invalidation), and
// each range logs its last writes so its findall, longest and filter
// replies carry across them. maxBytes <= 0 disables the cache and the log;
// single-flight collapse works either way.
func WithCache(maxBytes int64, ttl time.Duration) GatewayOption {
	return func(g *Gateway) {
		if maxBytes > 0 {
			g.cache = NewCache(maxBytes, ttl)
		}
	}
}

// WithBreaker tunes the per-replica circuit breakers: threshold
// consecutive failures open a breaker, which deflects traffic for
// cooldown before offering the replica a half-open trial.
func WithBreaker(threshold int, cooldown time.Duration) GatewayOption {
	return func(g *Gateway) {
		g.breakerThreshold = threshold
		g.breakerCooldown = cooldown
	}
}

// NewGateway builds an unreplicated gateway over plan whose i-th range
// is served solely by urls[i] — a replica set of one.
func NewGateway(plan Plan, urls []string, opts ...GatewayOption) (*Gateway, error) {
	replicas := make([][]string, len(urls))
	for i, u := range urls {
		replicas[i] = []string{u}
	}
	return NewReplicatedGateway(plan, replicas, opts...)
}

// NewReplicatedGateway builds a gateway over plan whose i-th range is
// served by the replica set replicas[i] (base URLs, scheme://host:port,
// no trailing slash needed). The outer list must match the plan's
// ranges one to one; every range needs at least one replica.
func NewReplicatedGateway(plan Plan, replicas [][]string, opts ...GatewayOption) (*Gateway, error) {
	if len(replicas) != len(plan.Ranges) {
		return nil, fmt.Errorf("shard: plan has %d ranges but %d replica sets were given", len(plan.Ranges), len(replicas))
	}
	if len(replicas) == 0 {
		return nil, errors.New("shard: gateway needs at least one shard range")
	}
	clean := make([][]string, len(replicas))
	for i, set := range replicas {
		if len(set) == 0 {
			return nil, fmt.Errorf("shard: range %d has no replicas", i)
		}
		clean[i] = make([]string, len(set))
		for j, u := range set {
			if u == "" {
				return nil, fmt.Errorf("shard: range %d replica %d has an empty URL", i, j)
			}
			clean[i][j] = strings.TrimRight(u, "/")
		}
	}
	g := &Gateway{
		replicas:      clean,
		start:         time.Now(),
		probeInterval: defaultProbeInterval,
	}
	g.planp.Store(&plan)
	for _, o := range opts {
		o(g)
	}
	g.ranges = make([]rangeState, len(clean))
	if g.cache != nil {
		for i := range g.ranges {
			g.ranges[i].log = make([]loggedWrite, writeLogLen)
		}
	}
	g.health = make([]*replicaSet, len(clean))
	for i, set := range clean {
		g.health[i] = newReplicaSet(set, g.breakerThreshold, g.breakerCooldown)
	}
	if g.post == nil {
		g.post = func(ctx context.Context, url string, body []byte) (*http.Response, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(body)))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			return http.DefaultClient.Do(req)
		}
	}
	if g.get == nil {
		g.get = func(ctx context.Context, url string) (*http.Response, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}
	}
	mux := http.NewServeMux()
	for _, k := range Kinds {
		mux.HandleFunc("POST /query/"+k.Name, g.handleQuery(k))
	}
	mux.HandleFunc("POST /query/batch", g.handleBatch)
	mux.HandleFunc("POST /admin/append", g.handleAdminAppend)
	mux.HandleFunc("POST /admin/retire", g.handleAdminRetire)
	mux.HandleFunc("POST /admin/snapshot", g.handleAdminSnapshot)
	mux.HandleFunc("GET /stats", g.handleStats)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux = mux
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Plan returns the partition the gateway scatters over. It can grow:
// every acknowledged append through the gateway extends the tail range.
func (g *Gateway) Plan() Plan { return *g.planp.Load() }

// rangeOf returns range i of the current plan.
func (g *Gateway) rangeOf(i int) Range { return g.planp.Load().Ranges[i] }

// Epoch returns the shard-plan epoch; every acknowledged admin write
// through the gateway bumps it (and with it every cache key).
func (g *Gateway) Epoch() uint64 { return g.epoch.Load() }

// PendingFlights reports in-flight single-flight fan-outs — the leak
// probe tests assert drains to zero once traffic quiesces.
func (g *Gateway) PendingFlights() int { return g.flight.pending() }

// CacheStats snapshots the result cache counters; ok is false when the
// gateway runs without a cache.
func (g *Gateway) CacheStats() (cs CacheCounters, ok bool) {
	if g.cache == nil {
		return CacheCounters{}, false
	}
	return g.cache.Stats(), true
}

// PartialStats snapshots the per-range partial counters and epochs; ok is
// false when the gateway runs without a cache.
func (g *Gateway) PartialStats() (ps PartialCounters, ok bool) {
	if g.cache == nil {
		return PartialCounters{}, false
	}
	ps = g.cache.PartStats()
	ps.Epochs = make([]uint64, len(g.ranges))
	for i := range g.ranges {
		ps.Epochs[i] = g.ranges[i].epoch.Load()
	}
	return ps, true
}

// Replicas returns the per-range replica endpoints.
func (g *Gateway) Replicas() [][]string { return g.replicas }

// --- scatter: one answer per range, from whichever replica delivers ---

// shardReply is one replica's raw answer: body + status on HTTP
// delivery, err on transport failure.
type shardReply struct {
	status int
	body   []byte
	err    error
}

// rangeReply is one range's resolved answer. On success status/body
// carry the winning replica's reply (or the range's cached partial, as
// carried forward); when every replica failed, err is set and replicaErrs
// itemises the attempts. A reply for a query that keeps partials names
// where it is stored if the whole fan-out succeeds (part.key "": nowhere,
// it is stored already) and, when it holds a cached partial's body, when
// that expires.
type rangeReply struct {
	status      int
	body        []byte
	err         error
	replicaErrs []ReplicaError
	part        partRef
}

// partRef is where a range's reply is kept as a partial (Cache.PutPart):
// its key, the range epoch it is current at, whether its kind carries
// across writes, and the expiry of the cached partial its body holds (zero:
// a fresh reply).
type partRef struct {
	key     string
	epoch   uint64
	carries bool
	expires time.Time
}

// failoverStatus reports whether an HTTP status means "this replica
// cannot answer, try another" rather than "this request is bad". 429
// and 503 are included: the bounded-retry client has already backed off
// and retried before the gateway sees them, so a replica still shedding
// is treated as unavailable and its peers get the request.
func failoverStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// tryReplica POSTs body to one replica and feeds its breaker: any
// decoded answer (including 4xx — the replica is alive and judging) is
// a success, transport errors and failover statuses are failures. A
// failure caused by our own context cancellation (a hedge lost its
// race, the client went away) is not charged to the breaker.
func (g *Gateway) tryReplica(ctx context.Context, ri, idx int, path string, body []byte) shardReply {
	set := g.health[ri]
	b := set.breakers[idx]
	resp, err := g.post(ctx, set.addrs[idx]+path, body)
	if err != nil {
		if ctx.Err() == nil {
			b.failure(err.Error())
		}
		return shardReply{err: err}
	}
	defer resp.Body.Close()
	buf, rerr := io.ReadAll(io.LimitReader(resp.Body, maxGatewayBody))
	if rerr != nil {
		if ctx.Err() == nil {
			b.failure(rerr.Error())
		}
		return shardReply{err: fmt.Errorf("reading shard response: %w", rerr)}
	}
	if failoverStatus(resp.StatusCode) {
		b.failure(fmt.Sprintf("HTTP %d: %s", resp.StatusCode, shardErrorText(buf)))
	} else {
		b.success()
	}
	return shardReply{status: resp.StatusCode, body: buf}
}

// launchKind distinguishes why an attempt was started, for accounting.
type launchKind int

const (
	launchPrimary launchKind = iota
	launchFailover
	launchHedge
)

// askRange resolves one range: attempts are launched against replicas
// in breaker-preferred order — the first immediately, the next on
// failure (failover) or on the hedge timer (latency), each attempt
// cancellable — and the first usable answer wins. The attempt budget is
// the replica set itself: every replica is tried at most once, and the
// range fails only when all of them have.
func (g *Gateway) askRange(ctx context.Context, ri int, path string, body []byte) rangeReply {
	set := g.health[ri]
	order := set.order(time.Now())
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attemptResult struct {
		idx  int
		kind launchKind
		rep  shardReply
	}
	results := make(chan attemptResult, len(order))
	next := 0
	launch := func(kind launchKind) {
		idx := order[next]
		next++
		go func() {
			results <- attemptResult{idx: idx, kind: kind, rep: g.tryReplica(actx, ri, idx, path, body)}
		}()
	}
	launch(launchPrimary)
	outstanding := 1

	var hedge <-chan time.Time
	if g.hedgeAfter > 0 && next < len(order) {
		timer := time.NewTimer(g.hedgeAfter)
		defer timer.Stop()
		hedge = timer.C
	}

	var repErrs []ReplicaError
	for {
		select {
		case res := <-results:
			outstanding--
			if res.rep.err == nil && !failoverStatus(res.rep.status) {
				if res.kind == launchHedge {
					g.hedgeWins.Add(1)
				}
				return rangeReply{status: res.rep.status, body: res.rep.body}
			}
			re := ReplicaError{Replica: res.idx, Addr: set.addrs[res.idx]}
			if res.rep.err != nil {
				re.Error = res.rep.err.Error()
			} else {
				re.Status = res.rep.status
				re.Error = shardErrorText(res.rep.body)
			}
			repErrs = append(repErrs, re)
			switch {
			case next < len(order):
				g.failovers.Add(1)
				launch(launchFailover)
				outstanding++
			case outstanding == 0:
				return rangeReply{
					err:         fmt.Errorf("all %d replicas failed", len(order)),
					replicaErrs: repErrs,
				}
			}
		case <-hedge:
			hedge = nil
			if next < len(order) {
				g.hedges.Add(1)
				launch(launchHedge)
				outstanding++
			}
		case <-ctx.Done():
			return rangeReply{err: ctx.Err(), replicaErrs: repErrs}
		}
	}
}

// read is one query as the fan-out sees it: its route, the body every
// range is sent verbatim, and — when the body has one — its canonical
// form, which every cache key of the query shares. parts reports whether
// the query keeps per-range partials: the cache is on, the body is
// canonical and the plan has more than one range. carry, set by the
// kinds whose partials carry across writes (findall, longest, filter),
// merges a carried partial with a scoped reply (reduce).
type read struct {
	path  string
	body  []byte
	canon string
	parts bool
	carry func(base, delta []byte) ([]byte, error)
}

// scatter resolves every range concurrently and collects the replies in
// range order. Under rd.parts each range's epoch is read once; a range
// whose partial answers at that epoch (lookupPart) is not asked, one whose
// partial carries forward with the sequences appended since is asked for
// those alone, and every other range in full.
func (g *Gateway) scatter(ctx context.Context, rd read) []rangeReply {
	replies := make([]rangeReply, len(g.replicas))
	var wg sync.WaitGroup
	for i := range g.replicas {
		var part partRef
		var base []byte
		var delta []int
		if rd.parts {
			var done bool
			if part, base, delta, done = g.lookupPart(i, rd); done {
				replies[i] = rangeReply{status: http.StatusOK, body: base, part: part}
				continue
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = g.askPart(ctx, i, rd, part, base, delta)
		}(i)
	}
	wg.Wait()
	return replies
}

// lookupPart reads range i's partial of rd at the range's current epoch.
// done reports that base answers the range with no shard call; part then
// names where to store it (a partial carried forward to the epoch) or
// nothing (current already), and when base expires. Otherwise part is
// where the range's reply goes, and a non-nil base is a partial to carry
// forward with one scoped ask over delta, the sequences appended to the
// range since it was current. Only a kind with rd.carry carries a partial
// forward; any other partial answers only at the epoch it is current at.
func (g *Gateway) lookupPart(i int, rd read) (part partRef, base []byte, delta []int, done bool) {
	epoch := g.ranges[i].epoch.Load()
	part = partRef{key: partKey(rd.path, rd.canon), epoch: epoch, carries: rd.carry != nil}
	b, at, expires, ok := g.cache.GetPart(i, part.key)
	switch {
	case !ok:
	case at == epoch:
		g.cache.countPart(partCurrent)
		return partRef{expires: expires}, b, nil, true
	case part.carries:
		if delta, ok := g.ranges[i].carry(at, epoch, b); ok {
			part.expires = expires
			if len(delta) == 0 {
				g.cache.countPart(partForward)
				return part, b, nil, true
			}
			return part, b, delta, false
		}
	}
	g.cache.countPart(partMiss)
	return part, nil, nil, false
}

// askPart resolves range i. With a base to carry forward it asks the range
// for the sequences delta alone and merges the reply into base through the
// kind's union; if that ask does not come back 200 and merged, the range is
// asked in full, as it is with no base.
func (g *Gateway) askPart(ctx context.Context, i int, rd read, part partRef, base []byte, delta []int) rangeReply {
	if base != nil {
		if body, ok := scopedBody(rd.canon, delta); ok {
			if rep := g.askRange(ctx, i, rd.path, body); rep.err == nil && rep.status == http.StatusOK {
				if merged, err := rd.carry(base, rep.body); err == nil {
					g.cache.countPart(partDelta)
					return rangeReply{status: http.StatusOK, body: merged, part: part}
				}
			}
		}
		g.cache.countPart(partMiss)
	}
	rep := g.askRange(ctx, i, rd.path, rd.body)
	part.expires = time.Time{} // a fresh reply
	rep.part = part
	return rep
}

// scopedBody is the canonical body canon with "seqs" set to seqs: the same
// question asked of those sequences only. A body that names its own
// "seqs" already is not rewritten (ok false).
func scopedBody(canon string, seqs []int) ([]byte, bool) {
	var fields map[string]json.RawMessage
	if json.Unmarshal([]byte(canon), &fields) != nil || fields == nil {
		return nil, false
	}
	if _, ok := fields["seqs"]; ok {
		return nil, false
	}
	fields["seqs"], _ = json.Marshal(seqs)
	b, err := json.Marshal(fields)
	return b, err == nil
}

// keepParts stores the fresh and carried replies of a fan-out in which
// every range answered 200 and passed classify as their ranges' partials,
// and returns the earliest expiry among the cached partials the replies
// hold (zero: none), which the merged answer may not outlive.
func (g *Gateway) keepParts(replies []rangeReply) (expires time.Time) {
	for i, rep := range replies {
		p := rep.part
		if p.key != "" {
			g.cache.PutPart(i, p, rep.body)
		}
		if !p.expires.IsZero() && (expires.IsZero() || p.expires.Before(expires)) {
			expires = p.expires
		}
	}
	return expires
}

// shardErrorText extracts the serve process's error message from an
// error-envelope body, falling back to the raw body.
func shardErrorText(body []byte) string {
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return er.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// rangeAddrs renders a range's replica endpoints for failure reports.
func (g *Gateway) rangeAddrs(i int) string { return strings.Join(g.replicas[i], ",") }

// classify splits range replies into the successes in range order (decoded
// into fresh values of T, and passed by check when one is given), the first
// client-error reply to pass through verbatim (nil if none), and the range
// failures.
func classify[T any](g *Gateway, replies []rangeReply, check func(*T) error) (answered []*T, passThrough *shardReply, deg *Degradation) {
	var failures []ShardFailure
	for i, rep := range replies {
		fail := ShardFailure{Shard: i, Range: g.rangeOf(i), Addr: g.rangeAddrs(i), Status: rep.status}
		switch {
		case rep.err != nil:
			fail.Error, fail.Replicas = rep.err.Error(), rep.replicaErrs
		case rep.status >= 400 && rep.status < 500:
			// The request itself is bad; every shard shares the session
			// spec, so the first verdict speaks for the fleet.
			if passThrough == nil {
				passThrough = &shardReply{status: rep.status, body: rep.body}
			}
			continue
		case rep.status != http.StatusOK:
			fail.Error = shardErrorText(rep.body)
		default:
			// A range whose 200 does not decode, or does not have the shape
			// asked for, is a protocol violation: demote it to a failure
			// rather than merge it.
			var v T
			err := json.Unmarshal(rep.body, &v)
			if err != nil {
				err = fmt.Errorf("undecodable response: %v", err)
			} else if check != nil {
				err = check(&v)
			}
			if err == nil {
				answered = append(answered, &v)
				continue
			}
			fail.Error = err.Error()
		}
		failures = append(failures, fail)
	}
	if len(failures) > 0 {
		deg = &Degradation{Degraded: true, Failures: failures}
	}
	return answered, passThrough, deg
}

// --- response plumbing ---

// encodeJSON materialises a response body in the gateway's wire format
// (compact, trailing newline — what json.Encoder writes, as serve does).
func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encoding response"}` + "\n")
	}
	return append(b, '\n')
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeRaw(w, status, encodeJSON(v))
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status == 0 {
		// A flight that died without producing a result (leader panic).
		status = http.StatusInternalServerError
		body = encodeJSON(ErrorResponse{Error: "query flight aborted"})
	}
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// allFailed materialises the response for a query no range could
// answer: the gateway has nothing to merge, so the request fails with
// every failure named.
func allFailedResult(deg *Degradation) flightResult {
	msgs := make([]string, len(deg.Failures))
	for i, f := range deg.Failures {
		msgs[i] = f.String()
	}
	return flightResult{
		status: http.StatusBadGateway,
		body:   encodeJSON(ErrorResponse{Error: "all shards failed: " + strings.Join(msgs, "; ")}),
	}
}

// readBody buffers the request body for fan-out.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxGatewayBody))
}

// collapse answers one query through the cache and the single-flight
// group, in that order. The key is the canonical CacheKey — endpoint,
// current plan epoch, canonical body — so formatting variants of one
// question share both the cache line and the flight, and a write-path
// epoch bump reroutes every later request past all pre-write state. A
// cache hit returns stored bytes without touching the fleet. A miss
// joins (or leads) the flight for its key; the leader alone runs the
// fan-out — detached from its request context, so a leader that
// disconnects cannot fail its followers or poison the cache — and
// populates the cache exactly once, only with a successful, undegraded
// answer (its ranges' partials are kept by gatherResult under the same
// rule). The body is canonicalised here, once, for every key the query
// uses. Bodies that are not one JSON value cannot be canonicalised: they
// still collapse by raw bytes but never cache.
func (g *Gateway) collapse(ctx context.Context, path string, body []byte, compute func(ctx context.Context, rd read) flightResult) flightResult {
	rd := read{path: path, body: body}
	canon, kerr := canonicalJSON(body)
	cacheable := kerr == nil && g.cache != nil
	var key string
	if kerr == nil {
		rd.canon = string(canon)
		rd.parts = cacheable && len(g.replicas) > 1
		key = mergedKey(path, g.epoch.Load(), rd.canon)
	} else {
		key = path + "\x00" + string(body)
	}
	if cacheable {
		if b, ok := g.cache.Get(key); ok {
			return flightResult{status: http.StatusOK, body: b}
		}
	}
	res, shared := g.flight.do(key, func() flightResult {
		g.flightMisses.Add(1)
		r := compute(context.WithoutCancel(ctx), rd)
		if cacheable && r.status == http.StatusOK && !r.degraded {
			g.cache.putMerged(key, r.expires, r.body)
		}
		return r
	})
	if shared {
		g.flightHits.Add(1)
	}
	return res
}

// gatherResult runs the scatter/classify/accounting choreography for one
// query path — a kind's own route or /query/batch — and hands the ranges
// that answered, in range order, to merge, which returns the response
// envelope; merge is only called when at least one range answered. check,
// when given, vets each decoded range answer (classify). Only a fan-out
// every range answered keeps its fresh replies as partials.
func gatherResult[T any](g *Gateway, ctx context.Context, rd read, check func(*T) error, merge func(answered []*T, deg *Degradation) any) flightResult {
	replies := g.scatter(ctx, rd)
	answered, passThrough, deg := classify(g, replies, check)
	if deg != nil {
		g.shardErrors.Add(int64(len(deg.Failures)))
	}
	if passThrough != nil {
		return flightResult{status: passThrough.status, body: passThrough.body}
	}
	if len(answered) == 0 {
		if deg == nil {
			// Unreachable by construction (no pass-through, no success, no
			// failure would mean zero ranges), but fail loudly if it happens.
			return flightResult{status: http.StatusBadGateway, body: encodeJSON(ErrorResponse{Error: "no shard produced a response"})}
		}
		return allFailedResult(deg)
	}
	res := flightResult{status: http.StatusOK, degraded: deg != nil}
	if deg != nil {
		g.degraded.Add(1)
	} else if rd.parts {
		res.expires = g.keepParts(replies)
	}
	res.body = encodeJSON(merge(answered, deg))
	return res
}

// --- query handlers ---

// handleQuery serves one kind's single-query route from its table entry:
// the body goes to every range verbatim (shards do the validation) and the
// kind's reducer merges what comes back. A body that names a "seqs" scope
// is refused (namesScope).
func (g *Gateway) handleQuery(k Kind) http.HandlerFunc {
	path := "/query/" + k.Name
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if namesScope(body) {
			writeError(w, http.StatusBadRequest, errors.New(`gateway does not take "seqs"`))
			return
		}
		g.queries.Add(1)
		res := g.collapse(r.Context(), path, body, func(ctx context.Context, rd read) flightResult {
			return k.one(g, ctx, rd)
		})
		writeRaw(w, res.status, res.body)
	}
}

// namesScope reports whether a query body sets "seqs" to anything but
// null, as the serve process decodes it. The gateway sends every range the
// same body, and a range that does not own every listed ID refuses it, so a
// scope is refused up front rather than by whichever range judges it first;
// the gateway's own scoped asks (askPart) go to one range each. A body that
// is not JSON is left to the shards to refuse.
func namesScope(body []byte) bool {
	var p struct {
		Seqs *json.RawMessage `json:"seqs"`
	}
	json.Unmarshal(body, &p)
	return p.Seqs != nil
}

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Peek at the envelope to learn the kind and query count; the body is
	// still forwarded verbatim so shards do their own full validation.
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid batch request: %w", err))
		return
	}
	k, _, err := req.Validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n := len(req.Queries)
	g.batches.Add(1)
	g.queries.Add(int64(n))
	res := g.collapse(r.Context(), "/query/batch", body, func(ctx context.Context, rd read) flightResult {
		return g.batchResult(ctx, rd, k, n)
	})
	writeRaw(w, res.status, res.body)
}

// batchResult is gatherResult over batch envelopes: a range must answer the
// kind asked, query for query, and the kind's reducer then merges column by
// column with the function its single-query route uses.
func (g *Gateway) batchResult(ctx context.Context, rd read, k Kind, n int) flightResult {
	shape := func(b *BatchResponse) error {
		if b.Kind != k.Name || b.Count != n || k.width(b) != n {
			return fmt.Errorf("batch answer mismatch: kind %q count %d (want %q × %d)", b.Kind, b.Count, k.Name, n)
		}
		return nil
	}
	return gatherResult(g, ctx, rd, shape, func(answered []*BatchResponse, deg *Degradation) any {
		out := BatchResponse{Kind: k.Name, Count: n, Degradation: deg}
		k.columns(&out, answered, n)
		return out
	})
}

// --- stats & health ---

// ShardStats is one range's slice of the merged /stats: its raw stats
// document when some replica was reachable (Replica names which), the
// error otherwise.
type ShardStats struct {
	Shard   int             `json:"shard"`
	Range   Range           `json:"range"`
	Addr    string          `json:"addr"`
	Replica int             `json:"replica,omitempty"`
	OK      bool            `json:"ok"`
	Stats   json.RawMessage `json:"stats,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// StatsTotals sums the additive counters across reachable ranges
// (counting each range once, through whichever replica answered).
type StatsTotals struct {
	NumWindows    int `json:"num_windows"`
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
}

// SingleFlightCounters reports the gateway-side collapse of identical
// in-flight queries: hits joined an existing fan-out, misses led one.
type SingleFlightCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// GatewayCounters is the gateway's own request accounting. Writes counts
// acknowledged admin mutations fanned out through the gateway.
type GatewayCounters struct {
	Queries      int64                `json:"queries"`
	Batches      int64                `json:"batches"`
	Writes       int64                `json:"writes"`
	Degraded     int64                `json:"degraded"`
	ShardErrors  int64                `json:"shard_errors"`
	Hedges       int64                `json:"hedges"`
	HedgeWins    int64                `json:"hedge_wins"`
	Failovers    int64                `json:"failovers"`
	SingleFlight SingleFlightCounters `json:"single_flight"`
}

// GatewayStatsResponse is GET /stats on the gateway: the plan and its
// epoch, each range's own stats verbatim, cross-range totals, the
// per-replica breaker roster, the gateway's counters and — when caching
// is on — the result-cache counters, merged answers and per-range
// partials apart.
type GatewayStatsResponse struct {
	Plan          Plan             `json:"plan"`
	Epoch         uint64           `json:"epoch"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Shards        []ShardStats     `json:"shards"`
	Replication   []RangeHealth    `json:"replication"`
	Totals        StatsTotals      `json:"totals"`
	Gateway       GatewayCounters  `json:"gateway"`
	Cache         *CacheCounters   `json:"cache,omitempty"`
	Partials      *PartialCounters `json:"partials,omitempty"`
	Degradation   *Degradation     `json:"degradation,omitempty"`
}

// statsSubset is the additive slice of a shard's stats document.
type statsSubset struct {
	NumWindows    int `json:"num_windows"`
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
}

// fetchRangeStats fetches one range's /stats through its replicas in
// breaker-preferred order, returning on the first success.
func (g *Gateway) fetchRangeStats(ctx context.Context, ri int) ShardStats {
	set := g.health[ri]
	ss := ShardStats{Shard: ri, Range: g.rangeOf(ri), Addr: g.rangeAddrs(ri)}
	var errs []string
	for _, idx := range set.order(time.Now()) {
		res, err := g.get(ctx, set.addrs[idx]+"/stats")
		if err != nil {
			errs = append(errs, fmt.Sprintf("replica %d (%s): %v", idx, set.addrs[idx], err))
			continue
		}
		b, rerr := io.ReadAll(io.LimitReader(res.Body, maxGatewayBody))
		res.Body.Close()
		switch {
		case rerr != nil:
			errs = append(errs, fmt.Sprintf("replica %d (%s): %v", idx, set.addrs[idx], rerr))
		case res.StatusCode != http.StatusOK:
			errs = append(errs, fmt.Sprintf("replica %d (%s): HTTP %d: %s", idx, set.addrs[idx], res.StatusCode, shardErrorText(b)))
		default:
			ss.OK = true
			ss.Replica = idx
			ss.Addr = set.addrs[idx]
			ss.Stats = json.RawMessage(b)
			return ss
		}
	}
	ss.Error = strings.Join(errs, "; ")
	return ss
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	resp := GatewayStatsResponse{
		Plan:          g.Plan(),
		Epoch:         g.epoch.Load(),
		UptimeSeconds: time.Since(g.start).Seconds(),
		Shards:        make([]ShardStats, len(g.replicas)),
		Replication:   make([]RangeHealth, len(g.replicas)),
		Gateway: GatewayCounters{
			Queries:     g.queries.Load(),
			Batches:     g.batches.Load(),
			Writes:      g.writes.Load(),
			Degraded:    g.degraded.Load(),
			ShardErrors: g.shardErrors.Load(),
			Hedges:      g.hedges.Load(),
			HedgeWins:   g.hedgeWins.Load(),
			Failovers:   g.failovers.Load(),
			SingleFlight: SingleFlightCounters{
				Hits:   g.flightHits.Load(),
				Misses: g.flightMisses.Load(),
			},
		},
	}
	if cs, ok := g.CacheStats(); ok {
		ps, _ := g.PartialStats()
		resp.Cache, resp.Partials = &cs, &ps
	}
	var wg sync.WaitGroup
	for i := range g.replicas {
		resp.Replication[i] = g.health[i].health(i, g.rangeOf(i), now, nil)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Shards[i] = g.fetchRangeStats(r.Context(), i)
		}(i)
	}
	wg.Wait()
	var failures []ShardFailure
	for _, ss := range resp.Shards {
		if !ss.OK {
			failures = append(failures, ShardFailure{Shard: ss.Shard, Range: ss.Range, Addr: ss.Addr, Error: ss.Error})
			continue
		}
		var sub statsSubset
		if json.Unmarshal(ss.Stats, &sub) == nil {
			resp.Totals.NumWindows += sub.NumWindows
			resp.Totals.DistanceCalls.Build += sub.DistanceCalls.Build
			resp.Totals.DistanceCalls.Filter += sub.DistanceCalls.Filter
			resp.Totals.DistanceCalls.Verify += sub.DistanceCalls.Verify
		}
	}
	if len(failures) > 0 {
		resp.Degradation = &Degradation{Degraded: true, Failures: failures}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz live-probes every replica of every range (feeding the
// breakers as a side effect) and reports the full roster: per-replica
// probe verdicts and breaker state, per-range up counts, and the two
// fleet-level verdicts — ok (something can still answer; governs the
// HTTP status) and full_coverage (nothing is degraded).
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	probeOK := g.probeAll(r.Context())
	now := time.Now()
	resp := HealthzResponse{Shards: len(g.replicas), Ranges: make([]RangeHealth, len(g.replicas))}
	for i := range g.replicas {
		rh := g.health[i].health(i, g.rangeOf(i), now, probeOK[i])
		resp.Ranges[i] = rh
		if rh.Up > 0 {
			resp.ShardsUp++
		}
	}
	resp.OK = resp.ShardsUp > 0
	resp.FullCoverage = resp.ShardsUp == resp.Shards
	status := http.StatusOK
	if !resp.OK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
