package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeShard builds an httptest server answering the serving protocol
// with canned payloads per path.
func fakeShard(t *testing.T, responses map[string]any) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for path, v := range responses {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(v)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestGateway(t *testing.T, plan Plan, urls []string) *Gateway {
	t.Helper()
	g, err := NewGateway(plan, urls)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	return g
}

func doPost(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return rec, b
}

func mustPlan(t *testing.T, seqs int, ranges []Range) Plan {
	t.Helper()
	p, err := PlanFromRanges(seqs, ranges)
	if err != nil {
		t.Fatalf("PlanFromRanges: %v", err)
	}
	return p
}

func TestGatewayFindAllMergesAcrossShards(t *testing.T) {
	m0 := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 1, XEnd: 5, Dist: 0.5}
	m1 := Match{SeqID: 1, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 1}
	m2 := Match{SeqID: 2, QStart: 0, QEnd: 4, XStart: 3, XEnd: 7, Dist: 0.25}
	s0 := fakeShard(t, map[string]any{"POST /query/findall": MatchesResponse{Count: 2, Matches: []Match{m0, m1}}})
	s1 := fakeShard(t, map[string]any{"POST /query/findall": MatchesResponse{Count: 1, Matches: []Match{m2}}})
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, s1.URL})

	rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp MatchesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Count != 3 || len(resp.Matches) != 3 {
		t.Fatalf("count = %d, matches = %v", resp.Count, resp.Matches)
	}
	want := []Match{m0, m1, m2}
	for i, m := range resp.Matches {
		if m != want[i] {
			t.Errorf("match %d = %v, want %v", i, m, want[i])
		}
	}
	if resp.Degradation != nil {
		t.Errorf("healthy merge marked degraded: %+v", resp.Degradation)
	}
}

func TestGatewayDegradedWhenShardDown(t *testing.T) {
	m0 := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 1, XEnd: 5, Dist: 0.5}
	s0 := fakeShard(t, map[string]any{"POST /query/findall": MatchesResponse{Count: 1, Matches: []Match{m0}}})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, dead.URL})

	rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded query should still answer 200, got %d: %s", rec.Code, body)
	}
	var resp MatchesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Count != 1 || resp.Matches[0] != m0 {
		t.Fatalf("surviving shard's answer lost: %+v", resp)
	}
	if resp.Degradation == nil || !resp.Degradation.Degraded {
		t.Fatal("no degradation block on a partial answer")
	}
	if len(resp.Degradation.Failures) != 1 {
		t.Fatalf("failures = %+v", resp.Degradation.Failures)
	}
	f := resp.Degradation.Failures[0]
	if f.Shard != 1 || (f.Range != Range{2, 4}) || f.Error == "" {
		t.Fatalf("failure does not name the dead shard: %+v", f)
	}
}

func TestGatewayAllShardsDownIs502(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	dead2.Close()
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{dead1.URL, dead2.URL})

	rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !strings.Contains(er.Error, "all shards failed") {
		t.Fatalf("error %q does not explain total failure", er.Error)
	}
}

func TestGatewayPassesClientErrorVerbatim(t *testing.T) {
	badReq := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(ErrorResponse{Error: `missing "eps"`})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/findall", badReq)
	s0 := httptest.NewServer(mux)
	t.Cleanup(s0.Close)
	s1 := httptest.NewServer(mux)
	t.Cleanup(s1.Close)
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, s1.URL})

	rec, body := doPost(t, g.Handler(), "/query/findall", `{"query":"abc"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want shard's 400: %s", rec.Code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if er.Error != `missing "eps"` {
		t.Fatalf("shard's error not passed verbatim: %q", er.Error)
	}
}

func TestGatewayBestMerge(t *testing.T) {
	long := Match{SeqID: 0, QStart: 0, QEnd: 8, XStart: 0, XEnd: 8, Dist: 2}
	short := Match{SeqID: 3, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 0}
	s0 := fakeShard(t, map[string]any{
		"POST /query/longest": BestResponse{BestResult: BestResult{Found: true, Match: &long}},
		"POST /query/nearest": BestResponse{BestResult: BestResult{Found: true, Match: &long}},
	})
	s1 := fakeShard(t, map[string]any{
		"POST /query/longest": BestResponse{BestResult: BestResult{Found: true, Match: &short}},
		"POST /query/nearest": BestResponse{BestResult: BestResult{Found: true, Match: &short}},
	})
	g := newTestGateway(t, mustPlan(t, 6, []Range{{0, 3}, {3, 6}}), []string{s0.URL, s1.URL})

	_, body := doPost(t, g.Handler(), "/query/longest", `{"query":"abc","eps":2}`)
	var resp BestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Found || *resp.Match != long {
		t.Fatalf("longest merge = %+v, want the longer match", resp)
	}

	_, body = doPost(t, g.Handler(), "/query/nearest", `{"query":"abc","eps_max":4}`)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Found || *resp.Match != short {
		t.Fatalf("nearest merge = %+v, want the closer match", resp)
	}
}

func TestGatewayBestNoneFound(t *testing.T) {
	s0 := fakeShard(t, map[string]any{"POST /query/longest": BestResponse{}})
	s1 := fakeShard(t, map[string]any{"POST /query/longest": BestResponse{}})
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, s1.URL})
	rec, body := doPost(t, g.Handler(), "/query/longest", `{"query":"abc","eps":0.1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BestResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Found || resp.Match != nil {
		t.Fatalf("no-shard-found merge = %+v", resp)
	}
}

func TestGatewayBatchMerge(t *testing.T) {
	mA := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 0.5}
	mB := Match{SeqID: 2, QStart: 0, QEnd: 4, XStart: 1, XEnd: 5, Dist: 1}
	s0 := fakeShard(t, map[string]any{"POST /query/batch": BatchResponse{
		Kind: "findall", Count: 2, Matches: [][]Match{{mA}, {}},
	}})
	s1 := fakeShard(t, map[string]any{"POST /query/batch": BatchResponse{
		Kind: "findall", Count: 2, Matches: [][]Match{{}, {mB}},
	}})
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, s1.URL})

	rec, body := doPost(t, g.Handler(), "/query/batch",
		`{"kind":"findall","queries":["ab","cd"],"eps":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Kind != "findall" || resp.Count != 2 || len(resp.Matches) != 2 {
		t.Fatalf("batch envelope = %+v", resp)
	}
	if len(resp.Matches[0]) != 1 || resp.Matches[0][0] != mA {
		t.Fatalf("query 0 merged = %v", resp.Matches[0])
	}
	if len(resp.Matches[1]) != 1 || resp.Matches[1][0] != mB {
		t.Fatalf("query 1 merged = %v", resp.Matches[1])
	}
}

func TestGatewayBatchRejectsBadEnvelope(t *testing.T) {
	s0 := fakeShard(t, map[string]any{"POST /query/batch": BatchResponse{}})
	g := newTestGateway(t, mustPlan(t, 2, []Range{{0, 2}}), []string{s0.URL})
	cases := []struct {
		body, wantSub string
	}{
		{`{"kind":"nearest","queries":["a"],"eps":1}`, "batch kind"},
		{`{"kind":"findall","queries":[],"eps":1}`, "non-empty"},
		{`not json`, "invalid batch request"},
	}
	for _, c := range cases {
		rec, body := doPost(t, g.Handler(), "/query/batch", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", c.body, rec.Code)
		}
		if !strings.Contains(string(body), c.wantSub) {
			t.Errorf("body %q: error %s does not mention %q", c.body, body, c.wantSub)
		}
	}
}

func TestGatewayBatchDemotesMismatchedShard(t *testing.T) {
	mA := Match{SeqID: 0, QStart: 0, QEnd: 4, XStart: 0, XEnd: 4, Dist: 0.5}
	good := fakeShard(t, map[string]any{"POST /query/batch": BatchResponse{
		Kind: "findall", Count: 2, Matches: [][]Match{{mA}, {}},
	}})
	// Liar: answers the wrong number of queries.
	liar := fakeShard(t, map[string]any{"POST /query/batch": BatchResponse{
		Kind: "findall", Count: 1, Matches: [][]Match{{}},
	}})
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{good.URL, liar.URL})

	rec, body := doPost(t, g.Handler(), "/query/batch",
		`{"kind":"findall","queries":["ab","cd"],"eps":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Degradation == nil || len(resp.Degradation.Failures) != 1 {
		t.Fatalf("mismatched shard not surfaced as degradation: %+v", resp.Degradation)
	}
	if !strings.Contains(resp.Degradation.Failures[0].Error, "batch answer mismatch") {
		t.Fatalf("failure = %+v", resp.Degradation.Failures[0])
	}
	if len(resp.Matches[0]) != 1 || resp.Matches[0][0] != mA {
		t.Fatalf("good shard's answer lost: %v", resp.Matches)
	}
}

func TestGatewayStatsMergesTotals(t *testing.T) {
	mkStats := func(windows int, filter int64) map[string]any {
		return map[string]any{
			"num_windows": windows,
			"distance_calls": map[string]int64{
				"build": 10, "filter": filter, "verify": 3,
			},
		}
	}
	s0 := fakeShard(t, map[string]any{"GET /stats": mkStats(40, 100)})
	s1 := fakeShard(t, map[string]any{"GET /stats": mkStats(25, 50)})
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, s1.URL})

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	var resp GatewayStatsResponse
	if err := json.NewDecoder(rec.Result().Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Totals.NumWindows != 65 {
		t.Errorf("total windows = %d, want 65", resp.Totals.NumWindows)
	}
	if resp.Totals.DistanceCalls.Filter != 150 || resp.Totals.DistanceCalls.Build != 20 {
		t.Errorf("distance totals = %+v", resp.Totals.DistanceCalls)
	}
	if len(resp.Shards) != 2 || !resp.Shards[0].OK || !resp.Shards[1].OK {
		t.Errorf("shard stats = %+v", resp.Shards)
	}
	if resp.Degradation != nil {
		t.Errorf("healthy stats degraded: %+v", resp.Degradation)
	}
}

func TestGatewayStatsNamesDeadShard(t *testing.T) {
	s0 := fakeShard(t, map[string]any{"GET /stats": map[string]any{"num_windows": 40}})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{s0.URL, dead.URL})

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	var resp GatewayStatsResponse
	if err := json.NewDecoder(rec.Result().Body).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Degradation == nil || len(resp.Degradation.Failures) != 1 || resp.Degradation.Failures[0].Shard != 1 {
		t.Fatalf("dead shard not named: %+v", resp.Degradation)
	}
	if resp.Totals.NumWindows != 40 {
		t.Errorf("totals should cover surviving shards: %+v", resp.Totals)
	}
}

func TestGatewayHealthz(t *testing.T) {
	up := fakeShard(t, map[string]any{"GET /healthz": map[string]any{"ok": true}})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	g := newTestGateway(t, mustPlan(t, 4, []Range{{0, 2}, {2, 4}}), []string{up.URL, dead.URL})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("one shard up should be healthy, got %d", rec.Code)
	}
	var h struct {
		OK       bool `json:"ok"`
		ShardsUp int  `json:"shards_up"`
	}
	if err := json.NewDecoder(rec.Result().Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !h.OK || h.ShardsUp != 1 {
		t.Fatalf("healthz = %+v", h)
	}

	gDead := newTestGateway(t, mustPlan(t, 2, []Range{{0, 2}}), []string{dead.URL})
	rec = httptest.NewRecorder()
	gDead.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all shards down should be 503, got %d", rec.Code)
	}
}

func TestNewGatewayValidation(t *testing.T) {
	plan := mustPlan(t, 4, []Range{{0, 2}, {2, 4}})
	if _, err := NewGateway(plan, []string{"http://a"}); err == nil {
		t.Fatal("accepted URL count != range count")
	}
	if _, err := NewGateway(plan, []string{"http://a", ""}); err == nil {
		t.Fatal("accepted empty shard URL")
	}
	if _, err := NewGateway(Plan{}, nil); err == nil {
		t.Fatal("accepted zero shards")
	}
}

func TestGatewayCountersAccumulate(t *testing.T) {
	s0 := fakeShard(t, map[string]any{
		"POST /query/findall": MatchesResponse{Count: 0, Matches: []Match{}},
		"POST /query/batch":   BatchResponse{Kind: "findall", Count: 2, Matches: [][]Match{{}, {}}},
	})
	g := newTestGateway(t, mustPlan(t, 2, []Range{{0, 2}}), []string{s0.URL})
	doPost(t, g.Handler(), "/query/findall", `{"query":"abc","eps":1}`)
	doPost(t, g.Handler(), "/query/batch", `{"kind":"findall","queries":["a","b"],"eps":1}`)
	if q := g.queries.Load(); q != 3 {
		t.Errorf("queries = %d, want 3 (1 single + 2 batched)", q)
	}
	if b := g.batches.Load(); b != 1 {
		t.Errorf("batches = %d, want 1", b)
	}
}
