package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newReplicatedTestGateway(t *testing.T, plan Plan, replicas [][]string, opts ...GatewayOption) *Gateway {
	t.Helper()
	g, err := NewReplicatedGateway(plan, replicas, opts...)
	if err != nil {
		t.Fatalf("NewReplicatedGateway: %v", err)
	}
	return g
}

func deadServer() *httptest.Server {
	s := httptest.NewServer(http.NotFoundHandler())
	s.Close() // connection refused from now on
	return s
}

// TestReplicaFailoverMasksDeadReplica: with two replicas per range and one
// replica dead, every query kind still answers 200 with no Degradation,
// byte-for-byte identical to a fleet with no failures.
func TestReplicaFailoverMasksDeadReplica(t *testing.T) {
	m0 := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 1, XEnd: 5, Dist: 0.5}
	m2 := Match{SeqID: 2, QStart: 0, QEnd: 4, XStart: 3, XEnd: 7, Dist: 0.25}
	resp0 := map[string]any{"POST /query/findall": MatchesResponse{Count: 1, Matches: []Match{m0}}}
	resp1 := map[string]any{"POST /query/findall": MatchesResponse{Count: 1, Matches: []Match{m2}}}
	s0a, s0b := fakeShard(t, resp0), fakeShard(t, resp0)
	s1a := fakeShard(t, resp1)
	dead := deadServer()
	plan := mustPlan(t, 4, []Range{{0, 2}, {2, 4}})

	healthy := newReplicatedTestGateway(t, plan, [][]string{{s0a.URL, s0b.URL}, {s1a.URL}})
	_, wantBody := doPost(t, healthy.Handler(), "/query/findall", `{"query":"abc","eps":1}`)

	// Range 1's first replica is dead; the query must fail over silently.
	g := newReplicatedTestGateway(t, plan, [][]string{{s0a.URL, s0b.URL}, {dead.URL, s1a.URL}})
	for i := 0; i < 4; i++ { // several queries so round-robin hits the dead replica first at least once
		rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, rec.Code, body)
		}
		if !bytes.Equal(body, wantBody) {
			t.Fatalf("query %d: answer differs from healthy fleet:\n got %s\nwant %s", i, body, wantBody)
		}
		var resp MatchesResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.Degradation != nil {
			t.Fatalf("query %d: replica loss leaked as degradation: %+v", i, resp.Degradation)
		}
	}
	if g.failovers.Load() == 0 {
		t.Error("dead replica never triggered a failover")
	}
}

// TestReplicaAllDownDegrades: only when every replica of a range is down
// does the range degrade, and the failure itemises each replica's error.
func TestReplicaAllDownDegrades(t *testing.T) {
	m0 := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 1, XEnd: 5, Dist: 0.5}
	s0 := fakeShard(t, map[string]any{"POST /query/findall": MatchesResponse{Count: 1, Matches: []Match{m0}}})
	deadA, deadB := deadServer(), deadServer()
	plan := mustPlan(t, 4, []Range{{0, 2}, {2, 4}})
	g := newReplicatedTestGateway(t, plan, [][]string{{s0.URL}, {deadA.URL, deadB.URL}})

	rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp MatchesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Degradation == nil || len(resp.Degradation.Failures) != 1 {
		t.Fatalf("degradation = %+v, want one range failure", resp.Degradation)
	}
	f := resp.Degradation.Failures[0]
	if f.Shard != 1 || (f.Range != Range{2, 4}) {
		t.Fatalf("failure names wrong range: %+v", f)
	}
	if !strings.Contains(f.Error, "all 2 replicas failed") {
		t.Fatalf("failure error %q does not say every replica failed", f.Error)
	}
	if len(f.Replicas) != 2 {
		t.Fatalf("replica errors = %+v, want both itemised", f.Replicas)
	}
	for _, re := range f.Replicas {
		if re.Addr == "" || re.Error == "" {
			t.Fatalf("replica error missing detail: %+v", re)
		}
	}
	if !strings.Contains(f.Addr, ",") {
		t.Fatalf("failure addr %q should list the whole replica set", f.Addr)
	}
}

// TestHedgedReadMasksStalledReplica: replica 0 stalls without erroring;
// the hedge fires, replica 1 answers, and the stalled attempt is
// cancelled through its context.
func TestHedgedReadMasksStalledReplica(t *testing.T) {
	m := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 1}
	cancelled := make(chan struct{})
	var cancelOnce sync.Once
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server can detect the client abort (a
		// handler with unread body bytes never sees the disconnect) —
		// real serve processes always decode the request first.
		io.ReadAll(r.Body)
		select {
		case <-r.Context().Done():
			cancelOnce.Do(func() { close(cancelled) })
		case <-time.After(30 * time.Second):
		}
	}))
	t.Cleanup(stalled.Close)
	fast := fakeShard(t, map[string]any{"POST /query/findall": MatchesResponse{Count: 1, Matches: []Match{m}}})

	plan := mustPlan(t, 2, []Range{{0, 2}})
	// Round-robin starts at replica 0 (the stalled one) for the first query.
	g := newReplicatedTestGateway(t, plan, [][]string{{stalled.URL, fast.URL}},
		WithHedgeAfter(10*time.Millisecond))

	start := time.Now()
	rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hedge did not mask the stall: query took %v", elapsed)
	}
	var resp MatchesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Count != 1 || resp.Matches[0] != m || resp.Degradation != nil {
		t.Fatalf("hedged answer wrong: %+v", resp)
	}
	if g.hedges.Load() != 1 || g.hedgeWins.Load() != 1 {
		t.Errorf("hedges = %d, hedgeWins = %d, want 1/1", g.hedges.Load(), g.hedgeWins.Load())
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled attempt was never cancelled")
	}
}

// TestBreakerStateMachine exercises the breaker directly: threshold
// failures open it, the cool-down elapsing derives half-open, a success
// closes it, a failed trial re-arms the cool-down.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)
	now := time.Now()
	if s := b.state(now); s != BreakerClosed {
		t.Fatalf("fresh breaker = %v", s)
	}
	b.failure("boom")
	b.failure("boom")
	if s := b.state(now); s != BreakerClosed {
		t.Fatalf("below threshold should stay closed, got %v", s)
	}
	b.failure("boom")
	if s := b.state(time.Now()); s != BreakerOpen {
		t.Fatalf("at threshold should open, got %v", s)
	}
	if s := b.state(time.Now().Add(time.Second)); s != BreakerHalfOpen {
		t.Fatalf("after cool-down should be half-open, got %v", s)
	}
	// A failed half-open trial re-arms the cool-down from now.
	b.failure("still dead")
	if s := b.state(time.Now()); s != BreakerOpen {
		t.Fatalf("failed trial should re-open, got %v", s)
	}
	b.success()
	if s := b.state(time.Now()); s != BreakerClosed {
		t.Fatalf("success should close, got %v", s)
	}
	st := b.status(time.Now())
	if st.State != "closed" || st.ConsecutiveFailures != 0 || st.LastError != "" {
		t.Fatalf("status after success = %+v", st)
	}
}

// TestReplicaOrderPrefersClosedBreakers: open breakers are tried last but
// never dropped.
func TestReplicaOrderPrefersClosedBreakers(t *testing.T) {
	s := newReplicaSet([]string{"http://a", "http://b", "http://c"}, 1, time.Hour)
	s.breakers[0].failure("dead")
	now := time.Now()
	for trial := 0; trial < 6; trial++ {
		order := s.order(now)
		if len(order) != 3 {
			t.Fatalf("order dropped replicas: %v", order)
		}
		if order[len(order)-1] != 0 {
			t.Fatalf("open breaker not last: %v", order)
		}
		seen := map[int]bool{}
		for _, i := range order {
			seen[i] = true
		}
		if len(seen) != 3 {
			t.Fatalf("order repeats replicas: %v", order)
		}
	}
}

// TestProbingOpensAndRecoversBreaker: the health prober marks a sick
// replica open after threshold failed probes and re-admits it on the
// first successful probe.
func TestProbingOpensAndRecoversBreaker(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(flaky.Close)
	up := fakeShard(t, map[string]any{"GET /healthz": map[string]any{"ok": true}})

	plan := mustPlan(t, 2, []Range{{0, 2}})
	g := newReplicatedTestGateway(t, plan, [][]string{{flaky.URL, up.URL}},
		WithBreaker(3, 50*time.Millisecond))
	ctx := t.Context()

	g.probeAll(ctx)
	if s := g.health[0].breakers[0].state(time.Now()); s != BreakerClosed {
		t.Fatalf("healthy replica's breaker = %v", s)
	}
	healthy.Store(false)
	for i := 0; i < 3; i++ {
		g.probeAll(ctx)
	}
	if s := g.health[0].breakers[0].state(time.Now()); s != BreakerOpen {
		t.Fatalf("after 3 failed probes breaker = %v, want open", s)
	}
	healthy.Store(true)
	g.probeAll(ctx)
	if s := g.health[0].breakers[0].state(time.Now()); s != BreakerClosed {
		t.Fatalf("after recovery probe breaker = %v, want closed", s)
	}
}

// TestSingleFlightCollapsesIdenticalQueries: identical concurrent queries
// share one fan-out — the shard sees one request, every caller gets the
// same answer, and the hit/miss counters account for all of them.
func TestSingleFlightCollapsesIdenticalQueries(t *testing.T) {
	var shardHits atomic.Int64
	release := make(chan struct{})
	first := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shardHits.Add(1)
		select {
		case first <- struct{}{}:
		default:
		}
		<-release
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(MatchesResponse{Count: 0, Matches: []Match{}})
	}))
	t.Cleanup(srv.Close)

	g := newTestGateway(t, mustPlan(t, 2, []Range{{0, 2}}), []string{srv.URL})
	const callers = 8
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
		}(i)
	}
	<-first                            // the leader's fan-out reached the shard
	time.Sleep(200 * time.Millisecond) // let the other callers join the flight
	close(release)
	wg.Wait()

	hits, misses := g.flightHits.Load(), g.flightMisses.Load()
	if hits+misses != callers {
		t.Fatalf("hits %d + misses %d != %d callers", hits, misses, callers)
	}
	if hits == 0 {
		t.Fatal("no caller joined an existing flight")
	}
	if got := shardHits.Load(); got != misses {
		t.Fatalf("shard saw %d requests but gateway counted %d misses", got, misses)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got a different body", i)
		}
	}
}

// TestHealthzReportsBreakers: /healthz reports the full per-range,
// per-replica roster — probe verdicts, breaker states and last errors.
func TestHealthzReportsBreakers(t *testing.T) {
	up := fakeShard(t, map[string]any{"GET /healthz": map[string]any{"ok": true}})
	dead := deadServer()
	plan := mustPlan(t, 4, []Range{{0, 2}, {2, 4}})
	g := newReplicatedTestGateway(t, plan, [][]string{{up.URL, dead.URL}, {up.URL}},
		WithBreaker(3, time.Hour))

	var resp HealthzResponse
	for i := 0; i < 3; i++ { // each /healthz probes once; 3 failures open the breaker
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz status %d with a live replica per range", rec.Code)
		}
		resp = HealthzResponse{}
		if err := json.NewDecoder(rec.Result().Body).Decode(&resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	if !resp.OK || !resp.FullCoverage || resp.ShardsUp != 2 {
		t.Fatalf("fleet verdicts = %+v, want ok + full coverage (every range has a live replica)", resp)
	}
	if len(resp.Ranges) != 2 || len(resp.Ranges[0].Replicas) != 2 {
		t.Fatalf("roster shape wrong: %+v", resp.Ranges)
	}
	r0 := resp.Ranges[0]
	if r0.Up != 1 {
		t.Fatalf("range 0 up = %d, want 1", r0.Up)
	}
	live, sick := r0.Replicas[0], r0.Replicas[1]
	if !live.OK || live.Breaker.State != "closed" {
		t.Fatalf("live replica = %+v", live)
	}
	if sick.OK || sick.Breaker.State != "open" {
		t.Fatalf("dead replica = %+v", sick)
	}
	if sick.Breaker.ConsecutiveFailures < 3 || sick.Breaker.LastError == "" {
		t.Fatalf("dead replica breaker detail = %+v", sick.Breaker)
	}
}

// TestStatsReportsReplication: /stats names the answering replica per
// range and reports the breaker roster plus the new counters.
func TestStatsReportsReplication(t *testing.T) {
	stats := map[string]any{"num_windows": 40}
	dead := deadServer()
	up := fakeShard(t, map[string]any{"GET /stats": stats})
	plan := mustPlan(t, 2, []Range{{0, 2}})
	g := newReplicatedTestGateway(t, plan, [][]string{{dead.URL, up.URL}})

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	var resp GatewayStatsResponse
	if err := json.NewDecoder(rec.Result().Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Shards) != 1 || !resp.Shards[0].OK {
		t.Fatalf("stats should come from the live replica: %+v", resp.Shards)
	}
	if resp.Shards[0].Replica != 1 || resp.Shards[0].Addr != strings.TrimRight(up.URL, "/") {
		t.Fatalf("answering replica not named: %+v", resp.Shards[0])
	}
	if resp.Totals.NumWindows != 40 {
		t.Fatalf("totals = %+v", resp.Totals)
	}
	if resp.Degradation != nil {
		t.Fatalf("one live replica should satisfy stats: %+v", resp.Degradation)
	}
	if len(resp.Replication) != 1 || len(resp.Replication[0].Replicas) != 2 {
		t.Fatalf("replication roster = %+v", resp.Replication)
	}
}

func TestNewReplicatedGatewayValidation(t *testing.T) {
	plan := mustPlan(t, 4, []Range{{0, 2}, {2, 4}})
	if _, err := NewReplicatedGateway(plan, [][]string{{"http://a"}}); err == nil {
		t.Fatal("accepted replica-set count != range count")
	}
	if _, err := NewReplicatedGateway(plan, [][]string{{"http://a"}, {}}); err == nil {
		t.Fatal("accepted empty replica set")
	}
	if _, err := NewReplicatedGateway(plan, [][]string{{"http://a"}, {"http://b", ""}}); err == nil {
		t.Fatal("accepted empty replica URL")
	}
}
