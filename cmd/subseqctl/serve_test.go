package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/registry"
)

// newTestServer builds an in-process serving stack over a tiny session,
// wrapped in an httptest.Server. The returned cleanup closes the pool.
func newTestServer(t *testing.T, dataset, measure, backend string) (*httptest.Server, registry.ServerConfig) {
	t.Helper()
	spec := newSpec(dataset, measure, backend)
	s, err := newSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.newServer(registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(qs.handler())
	t.Cleanup(func() { ts.Close(); qs.close() })
	return ts, qs.config()
}

// newTestServerSpec is newTestServer over a caller-built ServerSpec, for
// tests exercising the robustness knobs (shedding, timeouts, background
// snapshots); restore names a snapshot file to restore from.
func newTestServerSpec(t *testing.T, spec registry.ServerSpec, restore string) (*httptest.Server, queryServer) {
	t.Helper()
	s, err := newSession(spec.SessionSpec)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := s.newServer(spec, restore)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(qs.handler())
	t.Cleanup(func() { ts.Close(); qs.close() })
	return ts, qs
}

// postJSON POSTs body to path and decodes the JSON response into out,
// returning the HTTP status.
func postJSON(t *testing.T, ts *httptest.Server, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: invalid JSON %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode
}

// getJSON GETs path and decodes the JSON response into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", path, raw, err)
	}
	return resp.StatusCode
}

// All four query endpoints answer end to end on a byte dataset, and their
// answers agree with the library run directly on the same session.
func TestServeEndpointsByteDataset(t *testing.T) {
	ts, _ := newTestServer(t, "proteins", "levenshtein-fast", "refnet")
	// The query is a verbatim subsequence of the generated dataset (same
	// family/seed as newSpec), so exact matches are guaranteed to exist.
	ds, err := registry.GenerateDataset[byte]("proteins", 30, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := fmt.Sprintf("%q", ds.Sequences[0][:16])

	var fa shard.MatchesResponse
	if code := postJSON(t, ts, "/query/findall", `{"query":`+q+`,"eps":2}`, &fa); code != http.StatusOK {
		t.Fatalf("findall status %d", code)
	}
	if fa.Count != len(fa.Matches) {
		t.Fatalf("findall count %d != %d matches", fa.Count, len(fa.Matches))
	}
	if fa.Count == 0 {
		t.Fatal("findall returned no matches for a verbatim database subsequence")
	}

	var lg shard.BestResponse
	if code := postJSON(t, ts, "/query/longest", `{"query":`+q+`,"eps":2}`, &lg); code != http.StatusOK {
		t.Fatalf("longest status %d", code)
	}
	if !lg.Found || lg.Match == nil {
		t.Fatal("longest found nothing for a verbatim database subsequence")
	}
	if lg.Match.QEnd <= lg.Match.QStart {
		t.Fatalf("longest returned empty span %+v", lg.Match)
	}

	var nr shard.BestResponse
	if code := postJSON(t, ts, "/query/nearest", `{"query":`+q+`,"eps_max":4}`, &nr); code != http.StatusOK {
		t.Fatalf("nearest status %d", code)
	}
	if !nr.Found || nr.Match == nil {
		t.Fatal("nearest found nothing for a verbatim database subsequence")
	}

	var fl shard.HitsResponse
	if code := postJSON(t, ts, "/query/filter", `{"query":`+q+`,"eps":2}`, &fl); code != http.StatusOK {
		t.Fatalf("filter status %d", code)
	}
	if fl.Count != len(fl.Hits) || fl.Count == 0 {
		t.Fatalf("filter count %d, hits %d", fl.Count, len(fl.Hits))
	}
	for _, h := range fl.Hits {
		if h.WindowEnd <= h.WindowStart || h.SegEnd <= h.SegStart {
			t.Fatalf("degenerate hit %+v", h)
		}
	}
}

// The float64 and point2 datasets decode their own query encodings.
func TestServeElementTypedQueries(t *testing.T) {
	ts, _ := newTestServer(t, "songs", "dfd", "refnet")
	var fl shard.HitsResponse
	if code := postJSON(t, ts, "/query/filter",
		`{"query":[1,2,3,4,5,6,7,8,9,10,11,0,1,2],"eps":4}`, &fl); code != http.StatusOK {
		t.Fatalf("songs filter status %d", code)
	}

	tp, _ := newTestServer(t, "traj", "erp", "refnet")
	var fa shard.MatchesResponse
	if code := postJSON(t, tp, "/query/findall",
		`{"query":[[0,0],[1,1],[2,2],[3,3],[4,4],[5,5],[6,6],[7,7],[8,8],[9,9],[10,10],[11,11]],"eps":40}`,
		&fa); code != http.StatusOK {
		t.Fatalf("traj findall status %d", code)
	}
	// Wrong encoding for the element type is a 400, not a panic.
	var er shard.ErrorResponse
	if code := postJSON(t, tp, "/query/findall", `{"query":"ABC","eps":1}`, &er); code != http.StatusBadRequest {
		t.Fatalf("mistyped query status %d, want 400", code)
	}
	if er.Error == "" {
		t.Fatal("mistyped query produced no error message")
	}
}

// The serving answers must be bit-identical to the library's: run the same
// query through the endpoint and through Matcher.FindAll directly.
func TestServeMatchesLibrary(t *testing.T) {
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	mt, ds, err := registry.NewMatcher[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]byte, 16)
	copy(q, ds.Sequences[0][:16])
	want := mt.FindAll(q, 5)

	ts, _ := newTestServer(t, "proteins", "levenshtein-fast", "refnet")
	var fa shard.MatchesResponse
	if code := postJSON(t, ts, "/query/findall",
		fmt.Sprintf(`{"query":%q,"eps":5}`, q), &fa); code != http.StatusOK {
		t.Fatalf("findall status %d", code)
	}
	if len(want) != fa.Count {
		t.Fatalf("endpoint %d matches, library %d", fa.Count, len(want))
	}
	for i, m := range want {
		w := fa.Matches[i]
		if w.SeqID != m.SeqID || w.QStart != m.QStart || w.QEnd != m.QEnd ||
			w.XStart != m.XStart || w.XEnd != m.XEnd || w.Dist != m.Dist {
			t.Fatalf("match %d: endpoint %+v, library %v", i, w, m)
		}
	}
}

// Bad requests are 400s with JSON error bodies; wrong methods are 405s.
func TestServeRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t, "proteins", "", "refnet")
	cases := []struct {
		path, body string
	}{
		{"/query/findall", `{}`},                                         // missing query
		{"/query/findall", `{"query":"AC"}`},                             // missing eps
		{"/query/findall", `{"query":"AC","eps":-1}`},                    // negative eps
		{"/query/findall", `not json`},                                   // malformed body
		{"/query/findall", `{"query":"AC","epsilon":1}`},                 // unknown field
		{"/query/nearest", `{"query":"AC"}`},                             // missing eps_max
		{"/query/nearest", `{"query":"AC","eps_max":-2}`},                // bad eps_max
		{"/query/nearest", `{"query":"AC","eps_max":2,"eps_inc":0}`},     // bad eps_inc
		{"/query/nearest", `{"query":"AC","eps_max":8,"eps_inc":1e-17}`}, // a schedule that would never end
		{"/query/filter", `{"query":[1,2],"eps":1}`},                     // wrong element encoding
	}
	for _, c := range cases {
		var er shard.ErrorResponse
		if code := postJSON(t, ts, c.path, c.body, &er); code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.path, c.body, code)
		} else if er.Error == "" {
			t.Errorf("POST %s %s: empty error body", c.path, c.body)
		}
	}
	resp, err := http.Get(ts.URL + "/query/findall")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query/findall: status %d, want 405", resp.StatusCode)
	}
}

// /stats echoes the resolved configuration and live counters; /healthz
// reports readiness. After queries, the distance tallies and streaming
// counters must have moved.
func TestServeStats(t *testing.T) {
	ts, cfg := newTestServer(t, "proteins", "levenshtein-fast", "covertree")
	var health struct {
		OK         bool `json:"ok"`
		NumWindows int  `json:"num_windows"`
	}
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz = %+v (status %d)", health, code)
	}
	for i := 0; i < 3; i++ {
		var fa shard.MatchesResponse
		postJSON(t, ts, "/query/findall", `{"query":"ACDEFGHIKLMNPQRS","eps":6}`, &fa)
	}
	var st statsResponse
	if code := getJSON(t, ts, "/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Config.Measure.Name != cfg.Measure.Name || st.Config.Backend.Name != "covertree" {
		t.Fatalf("stats config %+v does not echo the session", st.Config)
	}
	if st.Config.Lambda != 2*st.Config.WindowLen {
		t.Fatalf("stats lambda %d != 2×%d", st.Config.Lambda, st.Config.WindowLen)
	}
	if st.NumWindows != health.NumWindows {
		t.Fatalf("stats windows %d, healthz windows %d", st.NumWindows, health.NumWindows)
	}
	if st.DistanceCalls.Build <= 0 || st.DistanceCalls.Filter <= 0 {
		t.Fatalf("distance tallies did not move: %+v", st.DistanceCalls)
	}
	if st.Stream.Submitted < 3 || st.Stream.Completed < 3 {
		t.Fatalf("stream counters did not move: %+v", st.Stream)
	}
	if st.Stream.Workers != 2 || st.Stream.QueueDepth != 16 {
		t.Fatalf("stream config %+v does not echo the spec", st.Stream)
	}
}

// The admin surface mutates the live store end to end: append a
// sequence (queries then find it), retire it (queries stop finding it),
// snapshot to a file, and restore that file into a second server that
// answers identically without re-indexing.
func TestServeAdminLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, "proteins", "levenshtein-fast", "refnet")

	// A distinctive sequence not present in the generated dataset.
	novel := strings.Repeat("WYWYAC", 4)
	q := fmt.Sprintf("%q", novel[:14])

	var before shard.MatchesResponse
	postJSON(t, ts, "/query/findall", `{"query":`+q+`,"eps":1}`, &before)

	var ar appendResponse
	if code := postJSON(t, ts, "/admin/append", fmt.Sprintf(`{"sequence":%q}`, novel), &ar); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	if ar.WindowsAdded != len(novel)/6 {
		t.Fatalf("append added %d windows, want %d", ar.WindowsAdded, len(novel)/6)
	}
	var after shard.MatchesResponse
	postJSON(t, ts, "/query/findall", `{"query":`+q+`,"eps":1}`, &after)
	found := false
	for _, m := range after.Matches {
		if m.SeqID == ar.SeqID {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended sequence %d not found by queries (before %d, after %d matches)",
			ar.SeqID, before.Count, after.Count)
	}

	// Snapshot while the appended sequence is live.
	snap := filepath.Join(t.TempDir(), "live.snap")
	var sr snapshotResponse
	if code := postJSON(t, ts, "/admin/snapshot", fmt.Sprintf(`{"path":%q}`, snap), &sr); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if sr.Bytes <= 0 {
		t.Fatalf("snapshot reported %d bytes", sr.Bytes)
	}

	var rr retireResponse
	if code := postJSON(t, ts, "/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, ar.SeqID), &rr); code != http.StatusOK {
		t.Fatalf("retire status %d", code)
	}
	if rr.WindowsRemoved != ar.WindowsAdded {
		t.Fatalf("retire removed %d windows, appended %d", rr.WindowsRemoved, ar.WindowsAdded)
	}
	var gone shard.MatchesResponse
	postJSON(t, ts, "/query/findall", `{"query":`+q+`,"eps":1}`, &gone)
	for _, m := range gone.Matches {
		if m.SeqID == ar.SeqID {
			t.Fatalf("retired sequence %d still matches", ar.SeqID)
		}
	}
	var er shard.ErrorResponse
	if code := postJSON(t, ts, "/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, ar.SeqID), &er); code != http.StatusBadRequest {
		t.Fatalf("double retire status %d, want 400", code)
	}

	// Restore the snapshot into a fresh server: the appended sequence is
	// back (the snapshot predates the retire) and queries answer
	// identically, with zero build distances (refnet decode, not rebuild).
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	s2, err := newSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	qs2, err := s2.newServer(registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, snap)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(qs2.handler())
	defer func() { ts2.Close(); qs2.close() }()

	var restoredMatches shard.MatchesResponse
	postJSON(t, ts2, "/query/findall", `{"query":`+q+`,"eps":1}`, &restoredMatches)
	if restoredMatches.Count != after.Count {
		t.Fatalf("restored server finds %d matches, original found %d", restoredMatches.Count, after.Count)
	}
	for i := range restoredMatches.Matches {
		if restoredMatches.Matches[i] != after.Matches[i] {
			t.Fatalf("restored match %d = %+v, original %+v", i, restoredMatches.Matches[i], after.Matches[i])
		}
	}
	var st2 statsResponse
	getJSON(t, ts2, "/stats", &st2)
	if !st2.Store.Restored {
		t.Fatal("/stats does not report restored=true")
	}
	if st2.DistanceCalls.Build != 0 {
		t.Fatalf("restored server computed %d build distances, want 0", st2.DistanceCalls.Build)
	}

	// A restore under mismatched session flags is refused with the field
	// named.
	wrong := newSpec("proteins", "weighted-edit", "refnet")
	s3, err := newSession(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.newServer(registry.ServerSpec{SessionSpec: wrong}, snap); err == nil {
		t.Fatal("restore under the wrong measure was accepted")
	} else if !strings.Contains(err.Error(), "measure") {
		t.Fatalf("mismatch rejection does not name the field: %v", err)
	}
}

// Admin requests are validated like query requests.
func TestServeAdminValidation(t *testing.T) {
	ts, _ := newTestServer(t, "proteins", "levenshtein-fast", "refnet")
	cases := []struct {
		path, body string
	}{
		{"/admin/append", `{}`},                                 // missing sequence
		{"/admin/append", `{"sequence":[1,2]}`},                 // wrong element encoding
		{"/admin/append", `{"sequence":"AC","ttl_seconds":-1}`}, // negative TTL
		{"/admin/retire", `{}`},                                 // missing seq_id
		{"/admin/retire", `{"seq_id":99999}`},                   // unknown sequence
		{"/admin/snapshot", `{}`},                               // missing path
	}
	for _, c := range cases {
		var er shard.ErrorResponse
		if code := postJSON(t, ts, c.path, c.body, &er); code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.path, c.body, code)
		} else if er.Error == "" {
			t.Errorf("POST %s %s: empty error body", c.path, c.body)
		}
	}
	// The cover tree has no deletion: retire is a 409 capability conflict.
	tc, _ := newTestServer(t, "proteins", "levenshtein-fast", "covertree")
	var er shard.ErrorResponse
	if code := postJSON(t, tc, "/admin/retire", `{"seq_id":0}`, &er); code != http.StatusConflict {
		t.Errorf("covertree retire status %d, want 409", code)
	}
}

// Under the reject policy, slamming a depth-1 queue sheds requests with
// 429 + Retry-After while the surviving requests still answer 200; the
// shed/completed tallies on /stats account for every request.
func TestServeShedsWith429UnderSlam(t *testing.T) {
	spec := registry.ServerSpec{
		SessionSpec: newSpec("proteins", "levenshtein-fast", "refnet"),
		Workers:     1, QueueDepth: 1, Shed: "reject",
	}
	ts, _ := newTestServerSpec(t, spec, "")

	body := `{"query":"ACDEFGHIKLMNPQRSACDEFGHIKLMNPQRS","eps":8}`
	var ok, shed atomic.Int64
	// Requests race a depth-1 queue; retry rounds until at least one is
	// shed (scheduling may serialise a round on a loaded machine).
	for round := 0; round < 10 && shed.Load() == 0; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/query/findall", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
					}
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	if ok.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("slam produced %d ok, %d shed; want both > 0", ok.Load(), shed.Load())
	}
	var st statsResponse
	getJSON(t, ts, "/stats", &st)
	if st.Stream.Shed != shed.Load() {
		t.Fatalf("/stats shed = %d, clients saw %d", st.Stream.Shed, shed.Load())
	}
	if st.Config.Shed != "reject" {
		t.Fatalf("/stats shed policy = %q", st.Config.Shed)
	}
	if st.Stream.Latency.Count == 0 || st.Stream.QueueWait.Count == 0 {
		t.Fatalf("latency histograms did not move: %+v", st.Stream)
	}
}

// -request-timeout turns an unpriceable deadline into a 504: a timeout
// that has already passed by submission time is dropped before a worker
// prices it.
func TestServeRequestTimeout504(t *testing.T) {
	spec := registry.ServerSpec{
		SessionSpec: newSpec("proteins", "levenshtein-fast", "refnet"),
		Workers:     1, QueueDepth: 4, RequestTimeout: time.Nanosecond,
	}
	ts, _ := newTestServerSpec(t, spec, "")
	var er shard.ErrorResponse
	if code := postJSON(t, ts, "/query/findall", `{"query":"ACDEFGHIKLMNPQRS","eps":2}`, &er); code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if er.Error == "" {
		t.Fatal("504 with empty error body")
	}
}

// A bad shed policy or a snapshot interval without a path is refused at
// resolution, before anything is built.
func TestServeSpecValidation(t *testing.T) {
	base := newSpec("proteins", "levenshtein-fast", "refnet")
	if _, err := (registry.ServerSpec{SessionSpec: base, Shed: "yolo"}).Resolve(); err == nil {
		t.Fatal("bad shed policy accepted")
	}
	if _, err := (registry.ServerSpec{SessionSpec: base, SnapshotInterval: time.Second}).Resolve(); err == nil {
		t.Fatal("snapshot interval without a path accepted")
	}
	if _, err := (registry.ServerSpec{SessionSpec: base, RequestTimeout: -time.Second}).Resolve(); err == nil {
		t.Fatal("negative request timeout accepted")
	}
}

// -snapshot-interval snapshots in the background: the file appears, the
// scheduler's health shows on /stats, and the snapshot restores into a
// server that answers identically.
func TestServeSnapshotInterval(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "auto.snap")
	spec := registry.ServerSpec{
		SessionSpec: newSpec("proteins", "levenshtein-fast", "refnet"),
		Workers:     2, QueueDepth: 16,
		SnapshotInterval: 20 * time.Millisecond, SnapshotPath: snap,
	}
	ts, _ := newTestServerSpec(t, spec, "")

	deadline := time.Now().Add(5 * time.Second)
	var st statsResponse
	for {
		getJSON(t, ts, "/stats", &st)
		if st.Snapshots != nil && st.Snapshots.Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background snapshot within 5s: %+v", st.Snapshots)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Snapshots.Failures != 0 || st.Snapshots.LastError != "" {
		t.Fatalf("scheduler reported failures: %+v", st.Snapshots)
	}

	q := `{"query":"ACDEFGHIKLMNPQRS","eps":4}`
	var want shard.MatchesResponse
	postJSON(t, ts, "/query/findall", q, &want)

	ts2, qs2 := newTestServerSpec(t, registry.ServerSpec{
		SessionSpec: spec.SessionSpec, Workers: 2, QueueDepth: 16,
	}, snap)
	if !qs2.wasRestored() {
		t.Fatal("background snapshot did not restore")
	}
	var got shard.MatchesResponse
	postJSON(t, ts2, "/query/findall", q, &got)
	if got.Count != want.Count {
		t.Fatalf("restored server finds %d matches, original %d", got.Count, want.Count)
	}
}

// A corrupt -restore snapshot is quarantined (moved to .corrupt) and the
// index rebuilt, instead of wedging the start in a crash loop; a
// mismatched snapshot stays a hard error. Corrupt includes a snapshot
// whose checksum holds but whose embedded net stream is damaged.
func TestServeQuarantinesCorruptRestore(t *testing.T) {
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	st, _, err := registry.NewStore[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		reseal bool // recompute the outer checksum after the flip
	}{
		{"byte flipped", false},
		{"net stream byte flipped, snapshot resealed", true},
	} {
		snap := filepath.Join(t.TempDir(), "live.snap")
		if err := st.SnapshotFile(snap); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		// The index block is the snapshot's last block and a net stream
		// ends in its own checksum: byte len-8 is that checksum's first.
		raw[len(raw)-8] ^= 0xFF
		if tc.reseal {
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
		}
		if err := os.WriteFile(snap, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		ts, qs := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, snap)
		if qs.wasRestored() {
			t.Fatalf("%s: corrupt snapshot reported as restored", tc.name)
		}
		if _, err := os.Stat(snap + ".corrupt"); err != nil {
			t.Fatalf("%s: corrupt snapshot not quarantined: %v", tc.name, err)
		}
		if _, err := os.Stat(snap); !os.IsNotExist(err) {
			t.Fatalf("%s: corrupt snapshot still in place: %v", tc.name, err)
		}
		// The rebuilt server answers queries.
		var fa shard.MatchesResponse
		if code := postJSON(t, ts, "/query/findall", `{"query":"ACDEFGHIKLMNPQRS","eps":4}`, &fa); code != http.StatusOK {
			t.Fatalf("%s: rebuilt server findall status %d", tc.name, code)
		}
		var sr statsResponse
		getJSON(t, ts, "/stats", &sr)
		if sr.Store.Restored {
			t.Fatalf("%s: /stats claims restored=true after a quarantined rebuild", tc.name)
		}
	}
}

// TestServeSmokeBinary is the end-to-end smoke: build the real subseqctl
// binary, start `serve` on a synthetic dataset, issue one query per
// endpoint over real HTTP, check every JSON shape, then shut the daemon
// down gracefully with SIGTERM. CI runs this via `make serve-smoke`.
func TestServeSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "subseqctl")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building subseqctl: %v", err)
	}
	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0", "-dataset", "proteins",
		"-windows", "200", "-windowlen", "10", "-workers", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its resolved address; scrape the port from it.
	addrRE := regexp.MustCompile(`on http://(\S+)`)
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never printed its address: %v", sc.Err())
	}
	// Keep draining stdout so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, raw)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("POST %s: invalid JSON %q: %v", path, raw, err)
		}
		return m
	}
	q := `"ACDEFGHIKLMNPQRSTVWY"`
	for path, keys := range map[string][]string{
		"/query/findall": {"count", "matches"},
		"/query/longest": {"found"},
		"/query/filter":  {"count", "hits"},
	} {
		m := post(path, `{"query":`+q+`,"eps":8}`)
		for _, k := range keys {
			if _, ok := m[k]; !ok {
				t.Fatalf("%s response lacks %q: %v", path, k, m)
			}
		}
	}
	if m := post("/query/nearest", `{"query":`+q+`,"eps_max":10}`); m["found"] == nil {
		t.Fatalf("nearest response lacks \"found\": %v", m)
	}
	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("/stats: invalid JSON %q: %v", raw, err)
	}
	if st.Stream.Completed < 4 {
		t.Fatalf("/stats reports %d completed submissions, want >= 4", st.Stream.Completed)
	}
	// Under -addr :0 the daemon must echo the address it actually bound,
	// not the requested one.
	if want := strings.TrimPrefix(base, "http://"); st.Config.Addr != want {
		t.Fatalf("/stats addr = %q, want bound address %q", st.Config.Addr, want)
	}
	if !bytes.Contains(raw, []byte(`"measure"`)) || !bytes.Contains(raw, []byte(`"distance_calls"`)) {
		t.Fatalf("/stats body lacks config/tally sections: %s", raw)
	}

	// Graceful shutdown: SIGTERM, then the process must exit cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- cmd.Wait() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("daemon exited with %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down within 15s of SIGTERM")
	}
}

// buildSubseqctl compiles the real binary into a temp dir.
func buildSubseqctl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "subseqctl")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building subseqctl: %v", err)
	}
	return bin
}

// startServeBinary starts `bin serve args...` and scrapes the bound
// address from its stdout.
func startServeBinary(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	return startBinary(t, bin, "serve", args...)
}

// startBinary starts `bin sub args...` and scrapes the bound address
// ("on http://…", printed by both serve and gateway) from its stdout,
// draining the rest of the pipe in the background.
func startBinary(t *testing.T, bin, sub string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{sub}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrRE := regexp.MustCompile(`on http://(\S+)`)
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		if m := addrRE.FindStringSubmatch(sc.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		t.Fatalf("daemon never printed its address: %v", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, base
}

// stopServeBinary SIGTERMs the daemon and waits for a clean exit.
func stopServeBinary(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	doneCh := make(chan error, 1)
	go func() { doneCh <- cmd.Wait() }()
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatalf("daemon exited with %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not shut down within 15s of SIGTERM")
	}
}

// TestSnapshotSmokeBinary is the persistence end-to-end smoke CI runs
// via `make snapshot-smoke`: serve, mutate over the admin API, snapshot,
// restart from the snapshot in a fresh process, and check the restored
// daemon answers byte-identically without re-indexing — then exercise
// -snapshot-on-sigterm and verify that snapshot restores too.
func TestSnapshotSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildSubseqctl(t)
	dir := t.TempDir()
	snapLive := filepath.Join(dir, "live.snap")
	snapTerm := filepath.Join(dir, "sigterm.snap")
	session := []string{"-dataset", "proteins", "-windows", "150", "-windowlen", "8", "-workers", "2"}

	cmd, base := startServeBinary(t, bin, append([]string{"-addr", "127.0.0.1:0"}, session...)...)
	defer cmd.Process.Kill()
	client := &http.Client{Timeout: 10 * time.Second}
	postRaw := func(base, path, body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	// Mutate the live index, then capture a query answer to replay later.
	novel := strings.Repeat("WYWYACDE", 3)
	code, raw := postRaw(base, "/admin/append", fmt.Sprintf(`{"sequence":%q}`, novel))
	if code != http.StatusOK {
		t.Fatalf("append status %d: %s", code, raw)
	}
	query := fmt.Sprintf(`{"query":%q,"eps":1}`, novel[:16])
	code, wantAnswer := postRaw(base, "/query/findall", query)
	if code != http.StatusOK {
		t.Fatalf("findall status %d", code)
	}
	var fa shard.MatchesResponse
	if err := json.Unmarshal(wantAnswer, &fa); err != nil || fa.Count == 0 {
		t.Fatalf("findall found nothing for the appended sequence: %s (%v)", wantAnswer, err)
	}
	if code, raw := postRaw(base, "/admin/snapshot", fmt.Sprintf(`{"path":%q}`, snapLive)); code != http.StatusOK {
		t.Fatalf("snapshot status %d: %s", code, raw)
	}
	stopServeBinary(t, cmd)

	// Restart from the snapshot: same answers, zero re-indexing work. The
	// restarted daemon also snapshots in the background (-snapshot-interval).
	snapAuto := filepath.Join(dir, "auto.snap")
	cmd2, base2 := startServeBinary(t, bin,
		append([]string{"-addr", "127.0.0.1:0", "-restore", snapLive, "-snapshot-on-sigterm", snapTerm,
			"-snapshot-interval", "150ms", "-snapshot-path", snapAuto}, session...)...)
	defer cmd2.Process.Kill()
	code, gotAnswer := postRaw(base2, "/query/findall", query)
	if code != http.StatusOK {
		t.Fatalf("restored findall status %d", code)
	}
	if !bytes.Equal(gotAnswer, wantAnswer) {
		t.Fatalf("restored daemon answered differently:\n got %s\nwant %s", gotAnswer, wantAnswer)
	}
	resp, err := client.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("/stats: invalid JSON %q: %v", raw, err)
	}
	if !st.Store.Restored {
		t.Fatalf("/stats does not report restored=true: %s", raw)
	}
	if st.DistanceCalls.Build != 0 {
		t.Fatalf("restored daemon computed %d build distances, want 0 (refnet decodes, never rebuilds)", st.DistanceCalls.Build)
	}
	// The background scheduler flag landed a snapshot on its own clock.
	autoDeadline := time.Now().Add(10 * time.Second)
	for {
		if info, err := os.Stat(snapAuto); err == nil && info.Size() > 0 {
			break
		}
		if time.Now().After(autoDeadline) {
			t.Fatal("-snapshot-interval wrote no snapshot within 10s")
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopServeBinary(t, cmd2)

	// The SIGTERM snapshot landed and restores in-process.
	info, err := os.Stat(snapTerm)
	if err != nil || info.Size() == 0 {
		t.Fatalf("-snapshot-on-sigterm left no snapshot: %v", err)
	}
	spec := registry.SessionSpec{Dataset: "proteins", Windows: 150, WindowLen: 8}
	st3, err := registry.OpenStoreFile[byte](snapTerm, spec)
	if err != nil {
		t.Fatalf("restoring the SIGTERM snapshot: %v", err)
	}
	if _, live := st3.Len(); live == 0 {
		t.Fatal("SIGTERM snapshot restored an empty store")
	}
}
