package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- canonical key ---

func TestCacheKeyCanonicalisation(t *testing.T) {
	const path, epoch = "/query/findall", 7
	key := func(body string) string {
		t.Helper()
		k, err := CacheKey(path, epoch, []byte(body))
		if err != nil {
			t.Fatalf("CacheKey(%q): %v", body, err)
		}
		return k
	}
	equal := []struct{ name, a, b string }{
		{"whitespace is noise", `{"query":"abc","eps":2}`, ` { "query" : "abc" , "eps" : 2 } `},
		{"key order is noise", `{"query":"abc","eps":2}`, `{"eps":2,"query":"abc"}`},
		{"nested key order is noise", `{"q":{"a":1,"b":[1,2]}}`, `{"q":{"b":[1,2],"a":1}}`},
		{"duplicate keys collapse last-wins, as the shards decode them",
			`{"eps":1,"eps":2,"query":"abc"}`, `{"query":"abc","eps":2}`},
	}
	for _, tc := range equal {
		t.Run(tc.name, func(t *testing.T) {
			if key(tc.a) != key(tc.b) {
				t.Errorf("keys differ:\n  %q\n  %q", tc.a, tc.b)
			}
		})
	}
	distinct := []struct{ name, a, b string }{
		{"different eps", `{"query":"abc","eps":2}`, `{"query":"abc","eps":3}`},
		{"different query", `{"query":"abc","eps":2}`, `{"query":"abd","eps":2}`},
		{"number literals stay verbatim", `{"eps":1}`, `{"eps":1.0}`},
		{"null is not absent", `{"query":null}`, `{}`},
		{"null is not empty string", `{"query":null}`, `{"query":""}`},
		{"empty string is not empty array", `{"query":""}`, `{"query":[]}`},
		{"empty array is not null", `{"query":[]}`, `{"query":null}`},
	}
	for _, tc := range distinct {
		t.Run(tc.name, func(t *testing.T) {
			if key(tc.a) == key(tc.b) {
				t.Errorf("distinct bodies collide: %q vs %q", tc.a, tc.b)
			}
		})
	}

	// Path and epoch are part of the key.
	body := []byte(`{"query":"abc","eps":2}`)
	k1, _ := CacheKey("/query/findall", 1, body)
	k2, _ := CacheKey("/query/filter", 1, body)
	k3, _ := CacheKey("/query/findall", 2, body)
	if k1 == k2 || k1 == k3 {
		t.Errorf("path/epoch not separating keys: %q %q %q", k1, k2, k3)
	}
}

func TestCacheKeyRejectsNonCanonicalisableBodies(t *testing.T) {
	for _, body := range []string{"", "not json", `{"a":1} trailing`, `{"a":}`} {
		if _, err := CacheKey("/query/findall", 0, []byte(body)); err == nil {
			t.Errorf("CacheKey accepted %q", body)
		}
	}
}

// --- LRU / TTL / flush mechanics ---

func TestCacheLRUEvictionWithinByteBudget(t *testing.T) {
	// Budget 300 bytes; each entry is 2 (key) + 1 (body) + overhead = 131,
	// so two fit and a third evicts the least recent.
	c := NewCache(300, 0)
	c.Put("k0", []byte("a"))
	c.Put("k1", []byte("b"))
	if _, ok := c.Get("k0"); !ok { // refresh k0: k1 is now least recent
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k2", []byte("c"))
	if _, ok := c.Get("k1"); ok {
		t.Error("least-recently-used entry survived over budget")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Error("recently-used entry evicted")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Error("newest entry evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1 and 2", s.Evictions, s.Entries)
	}
	if s.Bytes != 2*131 {
		t.Errorf("bytes %d, want %d", s.Bytes, 2*131)
	}
}

func TestCacheOversizedEntryIsNotStored(t *testing.T) {
	c := NewCache(4096, 0)
	c.Put("small", []byte("v"))
	c.Put("big", make([]byte, 4096))
	if _, ok := c.Get("big"); ok {
		t.Error("entry larger than the whole budget was cached")
	}
	// The refused put evicted nothing.
	if _, ok := c.Get("small"); !ok {
		t.Error("a refused oversized put evicted a resident entry")
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 0 {
		t.Errorf("stats after rejected put: %+v", s)
	}
}

// One answer may use any share of the budget up to all of it: an entry
// between 1/16 of the budget and the whole budget is cached, and it
// evicts what it must to fit.
func TestCacheLargeEntryUpToWholeBudget(t *testing.T) {
	const budget = 16 << 10
	c := NewCache(budget, 0)
	c.Put("small", []byte("v"))
	large := make([]byte, budget/2) // 8× a sixteenth of the budget
	c.Put("large", large)
	if got, ok := c.Get("large"); !ok || len(got) != len(large) {
		t.Fatalf("entry of half the budget not cached (ok=%v)", ok)
	}
	if _, ok := c.Get("small"); !ok {
		t.Error("small entry evicted although both fit")
	}
	whole := make([]byte, budget-len("whole")-cacheEntryOverhead)
	c.Put("whole", whole)
	if _, ok := c.Get("whole"); !ok {
		t.Fatal("entry of exactly the whole budget not cached")
	}
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != budget || s.Evictions != 2 {
		t.Errorf("stats after a whole-budget put: %+v, want 1 entry, %d bytes, 2 evictions", s, budget)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewCache(1<<20, time.Second)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry missing before expiry")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Error("expired entry served")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 0 {
		t.Errorf("expiry not counted as eviction: %+v", s)
	}
}

func TestCacheFlushCountsInvalidations(t *testing.T) {
	c := NewCache(1<<20, 0)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if n := c.Flush(); n != 10 {
		t.Errorf("Flush dropped %d entries, want 10", n)
	}
	s := c.Stats()
	if s.Invalidations != 10 || s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("stats after flush: %+v", s)
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("entry survived flush")
	}
}

// --- single-flight + cache interaction ---

// gatedShard is a fake shard whose findall handler blocks on a gate, so
// a test can hold a flight open while more requests pile in. Admin
// endpoints ack immediately.
type gatedShard struct {
	mu      sync.Mutex
	calls   int // findall arrivals
	status  int
	gate    chan struct{}
	entered chan struct{}
	srv     *httptest.Server
}

func newGatedShard(t *testing.T, status int) *gatedShard {
	t.Helper()
	gs := &gatedShard{status: status, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/findall", func(w http.ResponseWriter, r *http.Request) {
		gs.mu.Lock()
		gs.calls++
		gs.mu.Unlock()
		gs.entered <- struct{}{}
		<-gs.gate
		w.Header().Set("Content-Type", "application/json")
		if gs.status != http.StatusOK {
			w.WriteHeader(gs.status)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "injected"})
			return
		}
		json.NewEncoder(w).Encode(MatchesResponse{Count: 1, Matches: []Match{{SeqID: 0, QEnd: 3, XEnd: 3, Dist: 1}}})
	})
	ack := func(v any) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(v)
		}
	}
	mux.HandleFunc("POST /admin/append", ack(map[string]any{"seq_id": 2, "windows_added": 1}))
	mux.HandleFunc("POST /admin/retire", ack(map[string]any{"seq_id": 0, "retired": true}))
	gs.srv = httptest.NewServer(mux)
	t.Cleanup(gs.srv.Close)
	return gs
}

func (gs *gatedShard) callCount() int {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.calls
}

// TestFlightCacheInteraction is the table the PR 10 issue asks for: how
// the cache composes with the single-flight group. Each case runs one
// round of concurrent identical queries against a gated shard, releases
// the gate, then probes with one more identical query to see whether the
// first round populated the cache.
func TestFlightCacheInteraction(t *testing.T) {
	cases := []struct {
		name         string
		concurrent   int
		cancelLeader bool
		shardStatus  int
		deadRange    bool
		wantStatus   int
		wantRound1   int  // shard calls after round 1
		wantCached   bool // probe answered from cache (no new shard call)
	}{
		{name: "miss populates cache, repeat hits it",
			concurrent: 1, shardStatus: 200, wantStatus: 200, wantRound1: 1, wantCached: true},
		{name: "in-flight identical misses join the leader's flight",
			concurrent: 8, shardStatus: 200, wantStatus: 200, wantRound1: 1, wantCached: true},
		{name: "cancelled leader neither poisons nor loses the answer",
			concurrent: 1, cancelLeader: true, shardStatus: 200, wantStatus: 200, wantRound1: 1, wantCached: true},
		{name: "failed flights are not cached",
			concurrent: 1, shardStatus: 500, wantStatus: http.StatusBadGateway, wantRound1: 1, wantCached: false},
		{name: "degraded answers are not cached",
			concurrent: 1, shardStatus: 200, deadRange: true, wantStatus: 200, wantRound1: 1, wantCached: false},
	}
	const body = `{"query":"abc","eps":1}`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gs := newGatedShard(t, tc.shardStatus)
			urls := []string{gs.srv.URL}
			ranges := []Range{{0, 2}}
			if tc.deadRange {
				dead := httptest.NewServer(http.NotFoundHandler())
				dead.Close()
				urls = append(urls, dead.URL)
				ranges = append(ranges, Range{2, 4})
			}
			g, err := NewGateway(mustPlan(t, ranges[len(ranges)-1].Hi, ranges), urls,
				WithCache(1<<20, 0))
			if err != nil {
				t.Fatal(err)
			}

			type reply struct {
				code int
				body string
			}
			replies := make(chan reply, tc.concurrent)
			var cancel context.CancelFunc
			for i := 0; i < tc.concurrent; i++ {
				req := httptest.NewRequest(http.MethodPost, "/query/findall", strings.NewReader(body))
				if i == 0 && tc.cancelLeader {
					var ctx context.Context
					ctx, cancel = context.WithCancel(context.Background())
					req = req.WithContext(ctx)
				}
				go func(req *http.Request) {
					rec := httptest.NewRecorder()
					g.Handler().ServeHTTP(rec, req)
					replies <- reply{rec.Code, rec.Body.String()}
				}(req)
				if i == 0 {
					// Let the leader's fan-out reach the shard before the
					// followers start, so they find a flight to join. (If one
					// raced in late it would hit the freshly populated cache
					// instead — either way the shard computes once.)
					<-gs.entered
				}
			}
			if cancel != nil {
				cancel() // leader's client goes away mid-flight
				time.Sleep(20 * time.Millisecond)
			}
			close(gs.gate)
			var got []reply
			for i := 0; i < tc.concurrent; i++ {
				got = append(got, <-replies)
			}
			for i, r := range got {
				if r.code != tc.wantStatus {
					t.Fatalf("reply %d: status %d, want %d (%s)", i, r.code, tc.wantStatus, r.body)
				}
				if r.body != got[len(got)-1].body {
					t.Fatalf("reply %d differs from its flight peers", i)
				}
			}
			if n := gs.callCount(); n != tc.wantRound1 {
				t.Fatalf("shard computed %d times in round 1, want %d", n, tc.wantRound1)
			}

			// Probe: one more identical request. A cached answer must not
			// reach the shard; an uncacheable one must.
			done := make(chan reply, 1)
			go func() {
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/findall", strings.NewReader(body)))
				done <- reply{rec.Code, rec.Body.String()}
			}()
			if !tc.wantCached {
				<-gs.entered // the probe must fan out again
			}
			probe := <-done
			wantCalls := tc.wantRound1
			if !tc.wantCached {
				wantCalls++
			}
			if n := gs.callCount(); n != wantCalls {
				t.Fatalf("shard calls after probe = %d, want %d", n, wantCalls)
			}
			if probe.code != tc.wantStatus {
				t.Fatalf("probe status %d, want %d (%s)", probe.code, tc.wantStatus, probe.body)
			}
			if tc.wantCached {
				if cs, ok := g.CacheStats(); !ok || cs.Hits == 0 || cs.Entries != 1 {
					t.Fatalf("cache stats after hit: %+v", cs)
				}
				// Cached bytes must be the flight's own answer, bit for bit.
				if probe.body != got[len(got)-1].body {
					t.Fatal("cached answer differs from the flight's answer")
				}
			}
			if p := g.PendingFlights(); p != 0 {
				t.Fatalf("%d flights leaked", p)
			}
		})
	}
}

// TestWriteInvalidatesCache drives the full loop: warm the cache, mutate
// through the gateway's admin fan-out, and prove the cached answer is
// unreachable — the next identical query fans out afresh under the new
// epoch.
func TestWriteInvalidatesCache(t *testing.T) {
	gs := newGatedShard(t, http.StatusOK)
	close(gs.gate) // nothing gated in this test
	g, err := NewGateway(mustPlan(t, 2, []Range{{0, 2}}), []string{gs.srv.URL}, WithCache(1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"query":"abc","eps":1}`
	post := func(path, b string) (*httptest.ResponseRecorder, []byte) {
		return doPost(t, g.Handler(), path, b)
	}
	post("/query/findall", body)
	post("/query/findall", body)
	drain := func() {
		for {
			select {
			case <-gs.entered:
			default:
				return
			}
		}
	}
	drain()
	if n := gs.callCount(); n != 1 {
		t.Fatalf("warm-up computed %d times, want 1", n)
	}
	if g.Epoch() != 0 {
		t.Fatalf("epoch %d before any write", g.Epoch())
	}

	rec, b := post("/admin/retire", `{"seq_id":0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("retire through gateway: %d: %s", rec.Code, b)
	}
	var ar AdminFanoutResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Epoch != 1 || ar.Invalidated != 1 || ar.Acks != 1 || !ar.Quorum {
		t.Fatalf("retire fan-out: %+v", ar)
	}
	if g.Epoch() != 1 {
		t.Fatalf("epoch %d after write, want 1", g.Epoch())
	}

	post("/query/findall", body)
	drain()
	if n := gs.callCount(); n != 2 {
		t.Fatalf("post-write query computed %d times total, want 2 (fresh fan-out)", n)
	}
	cs, _ := g.CacheStats()
	if cs.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", cs.Invalidations)
	}
}

// TestNonJSONBodiesBypassCache: a body that is not one JSON value cannot
// be canonically keyed; it must never be cached (the shards will judge
// it), though identical concurrent copies still collapse by raw bytes.
func TestNonJSONBodiesBypassCache(t *testing.T) {
	gs := newGatedShard(t, http.StatusOK)
	close(gs.gate)
	g, err := NewGateway(mustPlan(t, 2, []Range{{0, 2}}), []string{gs.srv.URL}, WithCache(1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		doPost(t, g.Handler(), "/query/findall", "not json at all")
	}
	for i := 0; i < 2; i++ {
		<-gs.entered
	}
	if n := gs.callCount(); n != 2 {
		t.Fatalf("non-JSON body hit the cache: %d shard calls, want 2", n)
	}
	if cs, _ := g.CacheStats(); cs.Entries != 0 {
		t.Fatalf("non-JSON body was cached: %+v", cs)
	}
}

// --- per-range partials ---

// rangeShard is a fake shard for one range that answers findall and
// findall batches per sequence, as a store does: one match on each live
// sequence of its range, whose distance is fixed by the sequence, so a write
// changes exactly the matches of the sequence it wrote. An append takes the
// next global ID (the range's Hi, then up) and a retire drops its ID. A
// findall with "seqs" answers over those live sequences only. It counts the
// queries it is asked and records each findall's "seqs" (nil: the whole
// range); after hold, a findall waits on the gate hold returns.
type rangeShard struct {
	mu            sync.Mutex
	live          []int // live sequence IDs, ascending
	next          int   // the ID the next append takes
	calls         int
	scopes        [][]int
	entered, gate chan struct{}
	srv           *httptest.Server
}

func newRangeShard(t *testing.T, r Range) *rangeShard {
	t.Helper()
	rs := &rangeShard{next: r.Hi}
	for id := r.Lo; id < r.Hi; id++ {
		rs.live = append(rs.live, id)
	}
	// matches answers over the live sequences of scope (nil: all of them);
	// rs.mu must be held.
	matches := func(scope []int) []Match {
		ms := []Match{}
		for _, id := range rs.live {
			if scope == nil || slices.Contains(scope, id) {
				ms = append(ms, Match{SeqID: id, QEnd: 3, XEnd: 3, Dist: float64(id % 3)})
			}
		}
		return ms
	}
	answer := func(w http.ResponseWriter, v func() any) {
		rs.mu.Lock()
		rs.calls++
		body := v()
		rs.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/findall", func(w http.ResponseWriter, req *http.Request) {
		var q struct {
			Seqs []int `json:"seqs"`
		}
		if err := json.NewDecoder(req.Body).Decode(&q); err != nil {
			t.Error(err)
		}
		rs.mu.Lock()
		entered, gate := rs.entered, rs.gate
		rs.scopes = append(rs.scopes, q.Seqs)
		rs.mu.Unlock()
		if gate != nil {
			entered <- struct{}{}
			<-gate
		}
		answer(w, func() any {
			ms := matches(q.Seqs)
			return MatchesResponse{Count: len(ms), Matches: ms}
		})
	})
	mux.HandleFunc("POST /query/batch", func(w http.ResponseWriter, req *http.Request) {
		var br BatchRequest
		if err := json.NewDecoder(req.Body).Decode(&br); err != nil {
			t.Error(err)
		}
		answer(w, func() any {
			out := BatchResponse{Kind: "findall", Count: len(br.Queries)}
			for range br.Queries {
				out.Matches = append(out.Matches, matches(nil))
			}
			return out
		})
	})
	mux.HandleFunc("POST /admin/append", func(w http.ResponseWriter, _ *http.Request) {
		rs.mu.Lock()
		id := rs.next
		rs.next++
		rs.live = append(rs.live, id)
		rs.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"seq_id": id})
	})
	mux.HandleFunc("POST /admin/retire", func(w http.ResponseWriter, req *http.Request) {
		var rr struct {
			SeqID int `json:"seq_id"`
		}
		if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
			t.Error(err)
		}
		rs.mu.Lock()
		rs.live = slices.DeleteFunc(rs.live, func(id int) bool { return id == rr.SeqID })
		rs.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"seq_id": rr.SeqID})
	})
	rs.srv = httptest.NewServer(mux)
	t.Cleanup(rs.srv.Close)
	return rs
}

func (rs *rangeShard) callCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.calls
}

// lastScope returns the "seqs" of the last findall the shard was asked
// (nil: the whole range).
func (rs *rangeShard) lastScope() []int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.scopes[len(rs.scopes)-1]
}

// hold makes every later findall signal entered on arrival and wait until
// the returned gate is closed.
func (rs *rangeShard) hold() (entered <-chan struct{}, gate chan<- struct{}) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.entered, rs.gate = make(chan struct{}, 8), make(chan struct{})
	return rs.entered, rs.gate
}

// TestWriteReasksOnlyItsRange: with one shard per range of a 3-range plan,
// a write through the gateway moves only its range's epoch, so the next
// read of a warm query — single or batched — asks that range alone and
// merges the other ranges' cached replies into the answer an uncached
// gateway over the same shards gives, byte for byte.
func TestWriteReasksOnlyItsRange(t *testing.T) {
	ranges := []Range{{0, 2}, {2, 4}, {4, 6}}
	shards := make([]*rangeShard, len(ranges))
	urls := make([]string, len(ranges))
	for i, r := range ranges {
		shards[i] = newRangeShard(t, r)
		urls[i] = shards[i].srv.URL
	}
	plan := mustPlan(t, 6, ranges)
	g, err := NewGateway(plan, urls, WithCache(1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGateway(plan, urls)
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct{ path, body string }{
		{"/query/findall", `{"query":"abc","eps":1}`},
		{"/query/batch", `{"kind":"findall","queries":["abc","de"],"eps":1}`},
	}
	last := make([]string, len(reads))
	// readAll posts every read to the cached gateway, checking which
	// ranges it asked against asked, then to the uncached one, and returns
	// whether every answer changed since the last readAll.
	readAll := func(step string, asked []int) (changed bool) {
		t.Helper()
		changed = true
		for i, rd := range reads {
			before := make([]int, len(shards))
			for r, s := range shards {
				before[r] = s.callCount()
			}
			rec, got := doPost(t, g.Handler(), rd.path, rd.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %s: %d: %s", step, rd.path, rec.Code, got)
			}
			for r, s := range shards {
				if n := s.callCount() - before[r]; n != asked[r] {
					t.Fatalf("%s: %s asked range %d %d times, want %d", step, rd.path, r, n, asked[r])
				}
			}
			if _, want := doPost(t, ref.Handler(), rd.path, rd.body); string(got) != string(want) {
				t.Fatalf("%s: %s: cached gateway answered\n  %s\nuncached\n  %s", step, rd.path, got, want)
			}
			changed = changed && string(got) != last[i]
			last[i] = string(got)
		}
		return changed
	}
	readAll("warm-up", []int{1, 1, 1})
	readAll("repeat", []int{0, 0, 0})

	writes := []struct {
		path, body string
		ri         int
	}{
		{"/admin/append", `{"sequence":"abc"}`, 2},
		{"/admin/retire", `{"seq_id":0}`, 0},
		{"/admin/retire", `{"seq_id":2}`, 1},
	}
	for _, wr := range writes {
		before, _ := g.PartialStats()
		rec, b := doPost(t, g.Handler(), wr.path, wr.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", wr.path, rec.Code, b)
		}
		ar := decodeAdmin(t, b)
		after, _ := g.PartialStats()
		if *ar.Shard != wr.ri || ar.Invalidated != len(reads) || after.Epochs[wr.ri] != 1 {
			t.Fatalf("%s: shard %d, %d merged answers invalidated, range epochs %v; want shard %d, %d and epoch 1",
				wr.path, *ar.Shard, ar.Invalidated, after.Epochs, wr.ri, len(reads))
		}
		if after.Entries != before.Entries || after.Invalidations != before.Invalidations {
			t.Fatalf("%s: the write moved the partials: %+v, then %+v", wr.path, before, after)
		}
		asked := make([]int, len(ranges))
		asked[wr.ri] = 1
		step := fmt.Sprintf("after %s to range %d", wr.path, wr.ri)
		if !readAll(step, asked) {
			t.Fatalf("%s: an answer did not change with its range", step)
		}
		// The re-read finds the batch's partial behind its range's epoch; the
		// findall's is carried.
		after, _ = g.PartialStats()
		if stale := after.Invalidations - before.Invalidations; stale != 1 {
			t.Fatalf("%s: %d partials invalidated, want 1", step, stale)
		}
		readAll(step+", repeat", make([]int, len(ranges)))
	}

	ps, ok := g.PartialStats()
	if !ok {
		t.Fatal("cached gateway reports no partials")
	}
	// Each write re-asked one range and reused two, per read. The warm-up
	// missed all six partials; after the append the findall carried range
	// 2's with a scoped ask (a hit and a delta), and after each retire,
	// which names a sequence its partial holds, asked the range again (a
	// miss); the batch missed the written range every time.
	n := int64(len(reads))
	want := PartialCounters{Hits: 13, Misses: 11, Invalidations: 3, Deltas: 1,
		Entries: 3 * len(reads), Epochs: []uint64{1, 1, 1}}
	ps.Bytes = 0
	if fmt.Sprint(ps) != fmt.Sprint(want) {
		t.Fatalf("partial counters %+v, want %+v", ps, want)
	}
	if cs, _ := g.CacheStats(); cs.Hits != 4*n || cs.Misses != 4*n || cs.Invalidations != 3*n {
		t.Fatalf("merged counters %+v: hits and misses are not one per read", cs)
	}
}

// A read parked across a write leaves nothing a read after the write's
// acknowledgement is served stale. Range 0 holds a warm partial and range 1
// one behind an append; a read loads its write generation, takes range 0
// from its partial and waits on range 1's held shard, asked for the
// appended sequence, while a retire of sequence 0, which range 0's partial
// names, is acknowledged. Released, the read stores what it computed under
// the generation it loaded; the next read must answer as an uncached
// gateway does.
func TestWriteRacingReadLeavesNothingStale(t *testing.T) {
	ranges := []Range{{0, 2}, {2, 4}}
	shards := make([]*rangeShard, len(ranges))
	urls := make([]string, len(ranges))
	for i, r := range ranges {
		shards[i] = newRangeShard(t, r)
		urls[i] = shards[i].srv.URL
	}
	plan := mustPlan(t, 4, ranges)
	g, err := NewGateway(plan, urls, WithCache(1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewGateway(plan, urls)
	if err != nil {
		t.Fatal(err)
	}
	const path, body = "/query/findall", `{"query":"abc","eps":1}`
	mustPost := func(h http.Handler, path, body string) string {
		t.Helper()
		rec, b := doPost(t, h, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", path, rec.Code, b)
		}
		return string(b)
	}
	mustPost(g.Handler(), path, body)                            // both ranges' partials
	mustPost(g.Handler(), "/admin/append", `{"sequence":"abc"}`) // range 1's falls behind

	entered, gate := shards[1].hold()
	raced := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		raced <- rec
	}()
	<-entered // the read has loaded its generation and asks range 1
	mustPost(g.Handler(), "/admin/retire", `{"seq_id":0}`)
	if tr := shards[1].lastScope(); !slices.Equal(tr, []int{4}) {
		t.Fatalf("the parked read asked range 1 for %v, want the appended sequence [4]", tr)
	}
	close(gate)
	if rec := <-raced; rec.Code != http.StatusOK {
		t.Fatalf("racing read: %d: %s", rec.Code, rec.Body.Bytes())
	}

	got, want := mustPost(g.Handler(), path, body), mustPost(ref.Handler(), path, body)
	if got != want {
		t.Fatalf("after an acknowledged retire the cached gateway answered\n  %s\nuncached\n  %s", got, want)
	}
}

// Every write generation is whole, however writes and reads interleave:
// appends to the tail range, one at a time, race retires in range 0 and
// readers of the generation, of findall and of /stats. Each generation a
// reader loads has a plan epoch that is the sum of its range epochs, a plan
// covering every append acknowledged before it was loaded, a tail epoch
// that is the count of sequences appended, and range logs of at most
// writeLogLen writes ending at their range's epoch; /stats reports the
// epoch, the plan and the range epochs of one generation.
func TestGenerationInvariantUnderConcurrentWrites(t *testing.T) {
	ranges := []Range{{0, 2}, {2, 4}}
	urls := make([]string, len(ranges))
	for i, r := range ranges {
		urls[i] = newRangeShard(t, r).srv.URL
	}
	g, err := NewGateway(mustPlan(t, 4, ranges), urls, WithCache(1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	const appends, retires, readers = 100, 100, 3
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	// whole reports what is wrong with a generation's epochs and plan ("":
	// nothing), given the sequences every acknowledged append has covered.
	whole := func(epoch uint64, plan Plan, epochs []uint64, covered int) string {
		var sum uint64
		for _, e := range epochs {
			sum += e
		}
		tail := len(plan.Ranges) - 1
		switch {
		case epoch != sum:
			return fmt.Sprintf("plan epoch %d, range epochs %v", epoch, epochs)
		case plan.Seqs < covered || plan.Ranges[tail].Hi != plan.Seqs:
			return fmt.Sprintf("plan %+v after appends covering %d sequences", plan, covered)
		case uint64(plan.Seqs-4) != epochs[tail]:
			return fmt.Sprintf("plan of %d sequences at tail epoch %d", plan.Seqs, epochs[tail])
		}
		return ""
	}
	var covered atomic.Int64 // one past the last acknowledged append's seq_id
	covered.Store(4)
	var writers, reading sync.WaitGroup
	stop := make(chan struct{})
	writers.Add(2)
	go func() {
		defer writers.Done()
		for range appends {
			rec := serve(http.MethodPost, "/admin/append", `{"sequence":"abc"}`)
			var ar AdminFanoutResponse
			if json.Unmarshal(rec.Body.Bytes(), &ar) != nil || ar.SeqID == nil {
				t.Errorf("append: %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
			covered.Store(int64(*ar.SeqID) + 1)
		}
	}()
	go func() {
		defer writers.Done()
		for i := range retires {
			if rec := serve(http.MethodPost, "/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, i%2)); rec.Code != http.StatusOK {
				t.Errorf("retire: %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
		}
	}()
	for r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := int(covered.Load())
				gn := g.gen.Load()
				epochs := make([]uint64, len(gn.ranges))
				for i, rg := range gn.ranges {
					epochs[i] = rg.epoch
					if n := len(rg.log); n > writeLogLen || (rg.epoch > 0) != (n > 0) || n > 0 && rg.log[n-1].epoch != rg.epoch {
						t.Errorf("range %d at epoch %d logs %d writes, the last %+v", i, rg.epoch, n, rg.log[max(n-1, 0):])
						return
					}
				}
				if bad := whole(gn.epoch, gn.plan, epochs, c); bad != "" {
					t.Errorf("generation: %s", bad)
					return
				}
				if r == 0 {
					rec := serve(http.MethodGet, "/stats", "")
					var st GatewayStatsResponse
					if json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.Partials == nil {
						t.Errorf("stats: %d: %s", rec.Code, rec.Body.Bytes())
						return
					}
					if bad := whole(st.Epoch, st.Plan, st.Partials.Epochs, c); bad != "" {
						t.Errorf("/stats: %s", bad)
						return
					}
				} else if rec := serve(http.MethodPost, "/query/findall", carryBody); rec.Code != http.StatusOK {
					t.Errorf("findall: %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	reading.Wait()
	if gn := g.gen.Load(); gn.epoch != appends+retires || gn.plan.Seqs != 4+appends {
		t.Fatalf("after %d appends and %d retires: epoch %d, plan %+v", appends, retires, gn.epoch, gn.plan)
	}
}

// A plan of one range keeps no partials: its merged answer is the only
// one.
func TestOneRangeKeepsNoPartials(t *testing.T) {
	rs := newRangeShard(t, Range{0, 2})
	g, err := NewGateway(mustPlan(t, 2, []Range{{0, 2}}), []string{rs.srv.URL}, WithCache(1<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	doPost(t, g.Handler(), "/admin/retire", `{"seq_id":0}`)
	doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	if ps, _ := g.PartialStats(); ps.Hits+ps.Misses != 0 || ps.Entries != 0 {
		t.Fatalf("one-range plan used partials: %+v", ps)
	}
	if n := rs.callCount(); n != 2 {
		t.Fatalf("shard asked %d times, want 2", n)
	}
}

// --- carrying partials across writes ---

// carryFleet is a 2-range plan of fake shards behind a cached gateway and
// an uncached one. read posts one findall of body to both and requires the
// cached answer to be the uncached one, byte for byte; it returns how many
// times the cached read asked each range, and with which "seqs" the last
// time (nil: in full, or not asked).
func carryFleet(t *testing.T, body string) (shards []*rangeShard, g, ref *Gateway, read func(step string) readTrace) {
	t.Helper()
	ranges := []Range{{0, 2}, {2, 4}}
	urls := make([]string, len(ranges))
	for i, r := range ranges {
		shards = append(shards, newRangeShard(t, r))
		urls[i] = shards[i].srv.URL
	}
	plan := mustPlan(t, 4, ranges)
	var err error
	if g, err = NewGateway(plan, urls, WithCache(1<<20, 0)); err != nil {
		t.Fatal(err)
	}
	if ref, err = NewGateway(plan, urls); err != nil {
		t.Fatal(err)
	}
	read = func(step string) (tr readTrace) {
		t.Helper()
		for i, s := range shards {
			tr.asked[i] = s.callCount()
		}
		rec, got := doPost(t, g.Handler(), "/query/findall", body)
		for i, s := range shards {
			if tr.asked[i] = s.callCount() - tr.asked[i]; tr.asked[i] > 0 {
				tr.scopes[i] = s.lastScope()
			}
		}
		_, want := doPost(t, ref.Handler(), "/query/findall", body)
		if rec.Code != http.StatusOK || string(got) != string(want) {
			t.Fatalf("%s: cached gateway answered %d\n  %s\nuncached\n  %s", step, rec.Code, got, want)
		}
		return tr
	}
	return shards, g, ref, read
}

// readTrace is what one cached read asked of each range of carryFleet.
type readTrace struct {
	asked  [2]int
	scopes [2][]int
}

const carryBody = `{"query":"abc","eps":1}`

// write posts one admin write through g.
func write(t *testing.T, g *Gateway, path, body string) {
	t.Helper()
	if rec, b := doPost(t, g.Handler(), path, body); rec.Code != http.StatusOK {
		t.Fatalf("%s: %d: %s", path, rec.Code, b)
	}
}

// racedPartial leaves range 1's partial current at epoch 0 yet holding
// sequence 4: a read's full ask of range 1 is held while an append through
// the gateway lands sequence 4 there, and answers after it.
func racedPartial(t *testing.T) (g *Gateway, read func(step string) readTrace) {
	shards, g, _, read := carryFleet(t, carryBody)
	entered, gate := shards[1].hold()
	raced := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/findall", strings.NewReader(carryBody)))
		raced <- rec
	}()
	<-entered // the read loaded range 1's epoch 0 and asks it in full
	write(t, g, "/admin/append", `{"sequence":"abc"}`)
	close(gate)
	if rec := <-raced; rec.Code != http.StatusOK {
		t.Fatalf("racing read: %d: %s", rec.Code, rec.Body.Bytes())
	}
	return g, read
}

// A full ask that a concurrent append reaches before the gateway logs it
// holds the appended sequence already; the next read asks range 1 for that
// sequence alone and the union keeps its match once.
func TestFullAskRacingAppendIsNotMergedTwice(t *testing.T) {
	g, read := racedPartial(t)
	if tr := read("after the raced append"); tr.asked != [2]int{0, 1} || !slices.Equal(tr.scopes[1], []int{4}) {
		t.Fatalf("the read asked %v, range 1 for %v; want range 1 alone, for the appended sequence [4]", tr.asked, tr.scopes[1])
	}
	if ps, _ := g.PartialStats(); ps.Deltas != 1 {
		t.Fatalf("partials %+v: want one delta", ps)
	}
}

// An append and a retire of S between two reads cancel in the delta, but
// an entry that names S — here one whose full ask raced S's append — is
// not carried: the range is asked again in full.
func TestAppendAndRetireOfNamedSequenceReasks(t *testing.T) {
	g, read := racedPartial(t)
	write(t, g, "/admin/retire", `{"seq_id":4}`)
	if tr := read("after the append and the retire of sequence 4"); tr.asked != [2]int{0, 1} || tr.scopes[1] != nil {
		t.Fatalf("the read asked %v, range 1 for %v; want range 1 alone, in full", tr.asked, tr.scopes[1])
	}
}

// An append and a retire of S between two reads, against an entry that
// does not name S, leave the entry as it is: the read asks no shard. A
// further append is then asked for alone — also for a body whose "seqs" is
// null, which asks what a body without one does.
func TestAppendAndRetireOfUnnamedSequenceForwards(t *testing.T) {
	for _, body := range []string{carryBody, `{"eps":1,"query":"abc","seqs":null}`} {
		_, g, _, read := carryFleet(t, body)
		read("warm-up")
		write(t, g, "/admin/append", `{"sequence":"abc"}`)
		write(t, g, "/admin/retire", `{"seq_id":4}`)
		if tr := read("after the append and the retire of sequence 4"); tr.asked != [2]int{} {
			t.Fatalf("%s: the read asked %v, want no range", body, tr.asked)
		}
		if ps, _ := g.PartialStats(); ps.Forwarded != 1 || ps.Deltas != 0 {
			t.Fatalf("%s: partials %+v: want one forwarded, no delta", body, ps)
		}
		write(t, g, "/admin/append", `{"sequence":"abc"}`)
		if tr := read("after a further append"); tr.asked != [2]int{0, 1} || !slices.Equal(tr.scopes[1], []int{5}) {
			t.Fatalf("%s: the read asked %v, range 1 for %v; want range 1 alone, for [5]", body, tr.asked, tr.scopes[1])
		}
	}
}

// A partial older than the log reaches is asked again in full: after
// writeLogLen appends range 1 is asked for those sequences alone, after
// writeLogLen+1 more for the whole range.
func TestWritesPastTheLogReaskTheRange(t *testing.T) {
	_, g, _, read := carryFleet(t, carryBody)
	for _, n := range []int{writeLogLen, writeLogLen + 1} {
		read("warm-up")
		for range n {
			write(t, g, "/admin/append", `{"sequence":"abc"}`)
		}
		tr := read(fmt.Sprintf("after %d appends", n))
		want := n // the sequences appended, asked for alone
		if n > writeLogLen {
			want = 0 // the whole range
		}
		if tr.asked != [2]int{0, 1} || len(tr.scopes[1]) != want {
			t.Fatalf("after %d appends the read asked %v, range 1 for %d sequences; want range 1 alone, for %d (0: all)",
				n, tr.asked, len(tr.scopes[1]), want)
		}
	}
}

// A put at an older epoch never replaces an entry current at a newer one,
// and a put at a newer epoch does, whatever the kind. A nearest partial put
// at an older epoch neither replaces a newer entry nor answers a read at
// the newer epoch: the read counts it an invalidation and asks the range.
func TestCarriedPutNeverReplacesNewer(t *testing.T) {
	for _, path := range []string{"/query/findall", "/query/nearest"} {
		c := NewCache(1<<20, 0)
		key := partKey(path, carryBody)
		c.PutPart(0, partRef{key: key, epoch: 2}, []byte("two"))
		c.PutPart(0, partRef{key: key, epoch: 1}, []byte("one"))
		if b, at, _, ok := c.GetPart(0, key); !ok || at != 2 || string(b) != "two" {
			t.Fatalf("%s: after an older put: %q at %d (%v), want \"two\" at 2", path, b, at, ok)
		}
		c.PutPart(0, partRef{key: key, epoch: 3}, []byte("three"))
		if b, at, _, ok := c.GetPart(0, key); !ok || at != 3 || string(b) != "three" {
			t.Fatalf("%s: after a newer put: %q at %d (%v), want \"three\" at 3", path, b, at, ok)
		}
		if ps := c.PartStats(); ps.Entries != 1 {
			t.Fatalf("%s: partial stats %+v", path, ps)
		}
	}

	g := &Gateway{cache: NewCache(1<<20, 0)}
	rd := read{gen: &gen{ranges: []rangeGen{{epoch: 2}}}, path: "/query/nearest", canon: carryBody}
	key := partKey(rd.path, rd.canon)
	g.cache.PutPart(0, partRef{key: key, epoch: 2}, []byte("two"))
	g.cache.PutPart(0, partRef{key: key, epoch: 1}, []byte("one"))
	if _, base, _, done := g.lookupPart(0, rd); !done || string(base) != "two" {
		t.Fatalf("a read at epoch 2 got %q (done %v), want \"two\"", base, done)
	}
	rd.gen.ranges[0].epoch = 3
	if part, base, _, done := g.lookupPart(0, rd); done || base != nil || part.epoch != 3 {
		t.Fatalf("a read at epoch 3 was answered by the partial at 2 (%q, done %v, stored at %d)", base, done, part.epoch)
	}
	if ps := g.cache.PartStats(); ps.Hits != 1 || ps.Misses != 1 || ps.Invalidations != 1 {
		t.Fatalf("partial stats %+v: want one hit, one miss, one invalidation", ps)
	}
}

// A partial carried forward keeps the expiry of the one it was carried
// from, and a merged answer expires with the earliest of its parts: the TTL
// bounds how old a shard reply the gateway serves even while writes through
// it keep carrying the reply forward. Range 1's partial is warmed at t0 and
// carried across an append at t0+ttl/2; once t0+ttl has passed, the next
// read asks both ranges in full, after a further write (the carried
// partial's expiry) and after none (the merged answer's).
func TestCarriedPartialKeepsItsExpiry(t *testing.T) {
	const ttl = time.Minute
	for _, writeBefore := range []bool{true, false} {
		_, g, _, read := carryFleet(t, carryBody)
		now := time.Unix(1000, 0)
		g.cache.ttl, g.cache.now = ttl, func() time.Time { return now }
		read("warm-up")
		now = now.Add(ttl / 2)
		write(t, g, "/admin/append", `{"sequence":"abc"}`)
		if tr := read("after an append"); tr.asked != [2]int{0, 1} || !slices.Equal(tr.scopes[1], []int{4}) {
			t.Fatalf("after an append the read asked %v, range 1 for %v; want range 1 alone, for [4]", tr.asked, tr.scopes[1])
		}
		now = now.Add(ttl/2 + time.Second)
		if writeBefore {
			write(t, g, "/admin/append", `{"sequence":"abc"}`)
		}
		step := fmt.Sprintf("past the ttl (write before the read: %v)", writeBefore)
		if tr := read(step); tr.asked != [2]int{1, 1} || tr.scopes[1] != nil {
			t.Fatalf("%s: the read asked %v, range 1 for %v; want both ranges in full", step, tr.asked, tr.scopes[1])
		}
	}
}
