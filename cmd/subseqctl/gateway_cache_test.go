package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/registry"
)

// --- Cache equivalence: the result cache must be invisible except in
// latency. The same query stream replayed against two gateways over the
// SAME serving fleet — one with the cache on, one with it off — must
// produce byte-identical responses, on all four backends, for every
// query kind, and keep doing so across an /admin/append + /admin/retire
// invalidation boundary driven through the cached gateway itself. The
// uncached gateway cannot be stale by construction (every read scatters
// to the shards), so byte equality after a mutation proves the cached
// gateway invalidated. ---

// postRaw posts a body and returns the verbatim response bytes — the
// unit of comparison here, since the cache stores and replays bytes.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading response: %v", path, err)
	}
	return resp.StatusCode, b
}

// startGatewayPair builds one replicated serving fleet (n replicas per
// plan range, real serving stacks) and two gateways over it: the first
// with the result cache enabled, the second without.
func startGatewayPair(t *testing.T, base registry.SessionSpec, plan shard.Plan, n int) (cached, uncached *shard.Gateway, cachedTS, uncachedTS *httptest.Server) {
	t.Helper()
	groups := make([][]string, len(plan.Ranges))
	for i, r := range plan.Ranges {
		for j := 0; j < n; j++ {
			spec := base
			spec.ShardLo, spec.ShardHi = r.Lo, r.Hi
			ts, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")
			groups[i] = append(groups[i], ts.URL)
		}
	}
	cached, err := shard.NewReplicatedGateway(plan, groups, shard.WithCache(64<<20, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	uncached, err = shard.NewReplicatedGateway(plan, groups)
	if err != nil {
		t.Fatal(err)
	}
	cachedTS = httptest.NewServer(cached.Handler())
	t.Cleanup(cachedTS.Close)
	uncachedTS = httptest.NewServer(uncached.Handler())
	t.Cleanup(uncachedTS.Close)
	return cached, uncached, cachedTS, uncachedTS
}

func TestGatewayCacheEquivalenceAllBackends(t *testing.T) {
	for _, backend := range []string{"refnet", "covertree", "mv", "linear"} {
		t.Run(backend, func(t *testing.T) {
			spec := newSpec("proteins", "levenshtein-fast", backend)
			spec.Windows = equivWindows
			ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			numSeqs := len(ds.Sequences)
			plan, err := shard.Partition(numSeqs, 2)
			if err != nil {
				t.Fatal(err)
			}
			mt, _, err := registry.NewMatcher[byte](spec)
			if err != nil {
				t.Fatal(err)
			}
			cached, _, cachedTS, uncachedTS := startGatewayPair(t, spec, plan, 2)

			// The stream: every query kind over a small hot set, so the
			// cache actually gets hits when the stream replays.
			queries := []string{
				string(ds.Sequences[0][:16]),
				string(ds.Sequences[numSeqs-1][:16]),
				strings.Repeat("WYAC", 5),
			}
			type request struct{ path, body string }
			var stream []request
			for _, q := range queries {
				body := fmt.Sprintf(`{"query":%q,"eps":2}`, q)
				stream = append(stream,
					request{"/query/findall", body},
					request{"/query/filter", body},
					request{"/query/longest", body},
					request{"/query/nearest", fmt.Sprintf(`{"query":%q,"eps_max":2}`, q)},
				)
			}
			qjson := make([]string, len(queries))
			for i, q := range queries {
				qjson[i] = fmt.Sprintf("%q", q)
			}
			stream = append(stream, request{"/query/batch",
				fmt.Sprintf(`{"kind":"findall","queries":[%s],"eps":2}`, strings.Join(qjson, ","))})

			// replay runs the stream twice (misses, then hits) against both
			// gateways and demands byte equality on every response.
			replay := func(phase string) {
				t.Helper()
				for pass := 0; pass < 2; pass++ {
					for _, rq := range stream {
						cs, cb := postRaw(t, cachedTS, rq.path, rq.body)
						us, ub := postRaw(t, uncachedTS, rq.path, rq.body)
						if cs != http.StatusOK || us != http.StatusOK {
							t.Fatalf("%s: %s answered %d cached / %d uncached", phase, rq.path, cs, us)
						}
						if !bytes.Equal(cb, ub) {
							t.Fatalf("%s: %s %s: cache on and off disagree:\n  cached:   %s\n  uncached: %s",
								phase, rq.path, rq.body, cb, ub)
						}
					}
				}
			}
			replay("pre-mutation")

			// Mutation boundary, driven through the CACHED gateway: append a
			// copy of sequence 0 (its queries gain exact matches — a stale
			// cached answer would be detectable), then retire it again.
			refID, _, err := mt.AppendSequence(ds.Sequences[0])
			if err != nil {
				t.Fatal(err)
			}
			status, b := postRaw(t, cachedTS, "/admin/append",
				`{"sequence":`+string(mustMarshal(t, string(ds.Sequences[0])))+`}`)
			if status != http.StatusOK {
				t.Fatalf("append: %d: %s", status, b)
			}
			var ar shard.AdminFanoutResponse
			if err := json.Unmarshal(b, &ar); err != nil {
				t.Fatal(err)
			}
			if ar.Acks != 2 || !ar.Quorum || ar.Diverged || ar.Epoch != 1 {
				t.Fatalf("append fan-out: %+v", ar)
			}
			if ar.SeqID == nil || *ar.SeqID != refID {
				t.Fatalf("fleet allocated seq %v, single node %d", ar.SeqID, refID)
			}
			replay("post-append")

			// And the cached gateway's answer is the mutated single node's,
			// not just the uncached gateway's — staleness cannot hide in a
			// shared blind spot.
			var fa shard.MatchesResponse
			if code := postJSON(t, cachedTS, "/query/findall",
				fmt.Sprintf(`{"query":%q,"eps":2}`, queries[0]), &fa); code != http.StatusOK {
				t.Fatalf("post-append findall status %d", code)
			}
			if want := toShardMatches(mt.FindAll([]byte(queries[0]), 2)); !reflect.DeepEqual(fa.Matches, want) {
				t.Fatalf("post-append: cached gateway %v, single node %v", fa.Matches, want)
			}

			if backend == "covertree" {
				// The cover tree cannot retire: every replica answers 409,
				// the gateway passes it through and invalidates nothing.
				status, b := postRaw(t, cachedTS, "/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, refID))
				if status != http.StatusConflict {
					t.Fatalf("covertree retire: %d, want 409: %s", status, b)
				}
				if e := cached.Epoch(); e != 1 {
					t.Fatalf("refused retire bumped the epoch to %d", e)
				}
			} else {
				if _, err := mt.RetireSequence(refID); err != nil {
					t.Fatal(err)
				}
				status, b := postRaw(t, cachedTS, "/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, refID))
				if status != http.StatusOK {
					t.Fatalf("retire: %d: %s", status, b)
				}
				if err := json.Unmarshal(b, &ar); err != nil {
					t.Fatal(err)
				}
				if ar.Acks != 2 || !ar.Quorum || ar.Epoch != 2 {
					t.Fatalf("retire fan-out: %+v", ar)
				}
				replay("post-retire")
			}

			cs, ok := cached.CacheStats()
			if !ok {
				t.Fatal("cached gateway reports no cache")
			}
			if cs.Hits == 0 {
				t.Fatalf("replayed stream never hit the cache: %+v", cs)
			}
			if cs.Invalidations == 0 {
				t.Fatalf("mutations invalidated nothing: %+v", cs)
			}
		})
	}
}

// TestGatewayPartialsRetireOriginalAllBackends: retiring an original
// sequence of range 0 through the cached gateway re-asks range 0 alone —
// range 1's cached partials answer its share — and the stream replayed
// after it stays byte-identical to the uncached gateway, and each findall
// to a single node that retired the same sequence, on all four backends.
// The cover tree refuses the retire (409), which bumps no epoch and drops
// nothing.
func TestGatewayPartialsRetireOriginalAllBackends(t *testing.T) {
	for _, backend := range []string{"refnet", "covertree", "mv", "linear"} {
		t.Run(backend, func(t *testing.T) {
			spec := newSpec("proteins", "levenshtein-fast", backend)
			spec.Windows = equivWindows
			ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			numSeqs := len(ds.Sequences)
			plan, err := shard.Partition(numSeqs, 2)
			if err != nil {
				t.Fatal(err)
			}
			mt, _, err := registry.NewMatcher[byte](spec)
			if err != nil {
				t.Fatal(err)
			}
			cached, _, cachedTS, uncachedTS := startGatewayPair(t, spec, plan, 2)

			// Queries on the sequence to retire, on another sequence of its
			// range and on the other range, as every kind and one batch.
			queries := []string{
				string(ds.Sequences[0][:16]),
				string(ds.Sequences[1][:16]),
				string(ds.Sequences[numSeqs-1][:16]),
			}
			type request struct{ path, body, query string }
			var stream []request
			qjson := make([]string, len(queries))
			for i, q := range queries {
				body := fmt.Sprintf(`{"query":%q,"eps":2}`, q)
				stream = append(stream,
					request{"/query/findall", body, q},
					request{"/query/filter", body, ""},
					request{"/query/longest", body, ""},
					request{"/query/nearest", fmt.Sprintf(`{"query":%q,"eps_max":2}`, q), ""},
				)
				qjson[i] = fmt.Sprintf("%q", q)
			}
			stream = append(stream, request{"/query/batch",
				fmt.Sprintf(`{"kind":"findall","queries":[%s],"eps":2}`, strings.Join(qjson, ",")), ""})

			replay := func(phase string) {
				t.Helper()
				for _, rq := range stream {
					cs, cb := postRaw(t, cachedTS, rq.path, rq.body)
					us, ub := postRaw(t, uncachedTS, rq.path, rq.body)
					if cs != http.StatusOK || us != http.StatusOK {
						t.Fatalf("%s: %s answered %d cached / %d uncached", phase, rq.path, cs, us)
					}
					if !bytes.Equal(cb, ub) {
						t.Fatalf("%s: %s %s: cache on and off disagree:\n  cached:   %s\n  uncached: %s",
							phase, rq.path, rq.body, cb, ub)
					}
					if rq.query == "" {
						continue
					}
					var fa shard.MatchesResponse
					if err := json.Unmarshal(cb, &fa); err != nil {
						t.Fatal(err)
					}
					if want := toShardMatches(mt.FindAll([]byte(rq.query), 2)); !reflect.DeepEqual(fa.Matches, want) {
						t.Fatalf("%s: findall %q: gateway %v, single node %v", phase, rq.query, fa.Matches, want)
					}
				}
			}
			replay("warm-up")
			before, ok := cached.PartialStats()
			if !ok || before.Entries != 2*len(stream) {
				t.Fatalf("warm-up kept %d partials, want %d", before.Entries, 2*len(stream))
			}

			status, b := postRaw(t, cachedTS, "/admin/retire", `{"seq_id":0}`)
			if backend == "covertree" {
				if status != http.StatusConflict {
					t.Fatalf("covertree retire: %d, want 409: %s", status, b)
				}
			} else {
				if _, err := mt.RetireSequence(0); err != nil {
					t.Fatal(err)
				}
				if status != http.StatusOK {
					t.Fatalf("retire: %d: %s", status, b)
				}
				var ar shard.AdminFanoutResponse
				if err := json.Unmarshal(b, &ar); err != nil {
					t.Fatal(err)
				}
				if *ar.Shard != 0 || ar.Epoch != 1 {
					t.Fatalf("retire fan-out: %+v", ar)
				}
			}
			replay("after the retire")

			after, _ := cached.PartialStats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			dropped := after.Invalidations - before.Invalidations
			wantEpochs := []uint64{1, 0}
			if backend == "covertree" {
				// Nothing was written: the merged answers still hit.
				if hits != 0 || misses != 0 || dropped != 0 || after.Entries != before.Entries || cached.Epoch() != 0 {
					t.Fatalf("refused retire moved the cache: %+v, then %+v, epoch %d", before, after, cached.Epoch())
				}
				wantEpochs = []uint64{0, 0}
			} else if forwarded := after.Forwarded - before.Forwarded; hits != 16 || misses != 10 || dropped != 4 || forwarded != 3 {
				// Range 1 reused all 13 of its partials. Of range 0's, the write
				// dropped the nearest and batch ones (4, asked again); of its 9
				// findall, filter and longest ones the 6 that name sequence 0
				// were asked again and the other 3 carried with no call.
				t.Fatalf("after the retire: %d partial hits (%d forwarded), %d misses and %d dropped, want 16 (3), 10 and 4",
					hits, forwarded, misses, dropped)
			}
			if !reflect.DeepEqual(after.Epochs, wantEpochs) {
				t.Fatalf("range epochs %v, want %v", after.Epochs, wantEpochs)
			}
		})
	}
}

// TestGatewayPartialsCarryAcrossWritesAllBackends: the cached gateway's
// findall, longest and filter partials carry across writes that change
// answers, and every answer stays byte-identical to the uncached gateway's
// and to a single node's over the same database, on all four backends.
// After a warm-up of every kind and one batch, the stream is replayed
// after each of: an append of a copy of a warmed query's own sequence (its
// answers gain the copy's matches), the retire of that copy, the retire of
// an original sequence a warmed answer names, and an append and a retire
// of one more sequence between two reads. The cover tree refuses retires
// (409 from the gateway and the single node alike).
func TestGatewayPartialsCarryAcrossWritesAllBackends(t *testing.T) {
	for _, backend := range []string{"refnet", "covertree", "mv", "linear"} {
		t.Run(backend, func(t *testing.T) {
			spec := newSpec("proteins", "levenshtein-fast", backend)
			spec.Windows = equivWindows
			ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			numSeqs := len(ds.Sequences)
			plan, err := shard.Partition(numSeqs, 2)
			if err != nil {
				t.Fatal(err)
			}
			cached, _, cachedTS, uncachedTS := startGatewayPair(t, spec, plan, 2)
			single, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")

			tail := ds.Sequences[numSeqs-1]
			queries := []string{string(ds.Sequences[0][:16]), string(tail[:16])}
			type request struct{ path, body string }
			var stream []request
			qjson := make([]string, len(queries))
			for i, q := range queries {
				body := fmt.Sprintf(`{"query":%q,"eps":2}`, q)
				stream = append(stream,
					request{"/query/findall", body},
					request{"/query/filter", body},
					request{"/query/longest", body},
					request{"/query/nearest", fmt.Sprintf(`{"query":%q,"eps_max":2}`, q)},
				)
				qjson[i] = fmt.Sprintf("%q", q)
			}
			stream = append(stream, request{"/query/batch",
				fmt.Sprintf(`{"kind":"findall","queries":[%s],"eps":2}`, strings.Join(qjson, ","))})

			// replay posts the stream to the cached gateway, the uncached one
			// and the single node, demanding one answer of all three; it
			// returns the answers.
			replay := func(phase string) []string {
				t.Helper()
				var got []string
				for _, rq := range stream {
					cs, cb := postRaw(t, cachedTS, rq.path, rq.body)
					us, ub := postRaw(t, uncachedTS, rq.path, rq.body)
					ss, sb := postRaw(t, single, rq.path, rq.body)
					if cs != http.StatusOK || us != http.StatusOK || ss != http.StatusOK {
						t.Fatalf("%s: %s answered %d cached / %d uncached / %d single node", phase, rq.path, cs, us, ss)
					}
					if !bytes.Equal(cb, ub) || !bytes.Equal(cb, sb) {
						t.Fatalf("%s: %s %s: answers differ:\n  cached:      %s\n  uncached:    %s\n  single node: %s",
							phase, rq.path, rq.body, cb, ub, sb)
					}
					got = append(got, string(cb))
				}
				return got
			}
			// write posts one write to the cached gateway and the single node;
			// both must give the same verdict, and an append the same ID.
			write := func(path, body string) (status, seqID int) {
				t.Helper()
				gs, gb := postRaw(t, cachedTS, path, body)
				ss, sb := postRaw(t, single, path, body)
				if gs != ss {
					t.Fatalf("%s: gateway %d (%s), single node %d (%s)", path, gs, gb, ss, sb)
				}
				var ar shard.AdminFanoutResponse
				var one struct {
					SeqID int `json:"seq_id"`
				}
				if gs == http.StatusOK && path == "/admin/append" {
					if json.Unmarshal(gb, &ar) != nil || json.Unmarshal(sb, &one) != nil || ar.SeqID == nil || *ar.SeqID != one.SeqID {
						t.Fatalf("append: gateway %s, single node %s", gb, sb)
					}
					seqID = one.SeqID
				}
				return gs, seqID
			}
			retire := func(id int) {
				t.Helper()
				want := http.StatusOK
				if backend == "covertree" {
					want = http.StatusConflict
				}
				if status, _ := write("/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, id)); status != want {
					t.Fatalf("retire %d: %d, want %d", id, status, want)
				}
			}
			appendSeq := func(x []byte) int {
				t.Helper()
				status, id := write("/admin/append", `{"sequence":`+string(mustMarshal(t, string(x)))+`}`)
				if status != http.StatusOK {
					t.Fatalf("append: %d", status)
				}
				return id
			}

			warm := replay("warm-up")
			copyID := appendSeq(tail)
			if after := replay("after appending a copy of the tail query's sequence"); after[4] == warm[4] {
				t.Fatalf("the copy left the tail query's findall as it was: %s", after[4])
			}
			retire(copyID)
			replay("after retiring the copy")
			if !strings.Contains(warm[0], `"seq_id":0,`) {
				t.Fatalf("no warmed answer names sequence 0: %s", warm[0])
			}
			retire(0)
			replay("after retiring sequence 0")
			retire(appendSeq(ds.Sequences[1]))
			replay("after an append and a retire between two reads")

			ps, _ := cached.PartialStats()
			if ps.Deltas == 0 || backend != "covertree" && ps.Forwarded == 0 {
				t.Fatalf("partials %+v: the stream never carried a partial with a scoped ask, or with none", ps)
			}
		})
	}
}

// TestServeScopedQueriesAllBackends: on a shard serve process, findall,
// filter and longest with "seqs" answer over those sequences only — the
// full answer filtered to them, for findall and filter; the full best for
// longest when the scope holds it — on all four backends, before and after
// a retire (a retired ID contributes nothing), and count their evaluations
// in /stats. An ID outside the shard's range, an empty list, and "seqs" on
// nearest or a batch are 400s.
func TestServeScopedQueriesAllBackends(t *testing.T) {
	for _, backend := range []string{"refnet", "covertree", "mv", "linear"} {
		t.Run(backend, func(t *testing.T) {
			spec := newSpec("proteins", "levenshtein-fast", backend)
			spec.Windows = equivWindows
			ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := len(ds.Sequences)/2, len(ds.Sequences)
			spec.ShardLo, spec.ShardHi = lo, hi
			ts, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")
			scoped := func(q string, ids []int) string {
				return fmt.Sprintf(`{"query":%q,"eps":2,"seqs":%s}`, q, mustMarshal(t, ids))
			}
			filterCalls := func() int64 {
				var st statsResponse
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				return st.DistanceCalls.Filter
			}
			check := func(phase string) {
				t.Helper()
				for _, q := range []string{string(ds.Sequences[lo][:16]), string(ds.Sequences[hi-1][4:20])} {
					full := fmt.Sprintf(`{"query":%q,"eps":2}`, q)
					var fa shard.MatchesResponse
					var fh shard.HitsResponse
					var fl shard.BestResponse
					postJSON(t, ts, "/query/findall", full, &fa)
					postJSON(t, ts, "/query/filter", full, &fh)
					postJSON(t, ts, "/query/longest", full, &fl)
					if len(fa.Matches) == 0 || !fl.Found {
						t.Fatalf("%s: query %q finds nothing on its own sequence", phase, q)
					}
					for _, ids := range [][]int{{lo}, {hi - 1, lo, lo}, {lo + 1, hi - 1}} {
						in := func(id int) bool { return slices.Contains(ids, id) }
						var sa shard.MatchesResponse
						var sh shard.HitsResponse
						before := filterCalls()
						if code := postJSON(t, ts, "/query/findall", scoped(q, ids), &sa); code != http.StatusOK {
							t.Fatalf("%s: scoped findall %v: %d", phase, ids, code)
						}
						if filterCalls() == before {
							t.Fatalf("%s: a scoped findall counted no filter evaluations on /stats", phase)
						}
						want := slices.DeleteFunc(slices.Clone(fa.Matches), func(m shard.Match) bool { return !in(m.SeqID) })
						if !reflect.DeepEqual(sa.Matches, want) || sa.Count != len(want) {
							t.Fatalf("%s: findall over %v: %v, want %v", phase, ids, sa.Matches, want)
						}
						postJSON(t, ts, "/query/filter", scoped(q, ids), &sh)
						wantHits := slices.DeleteFunc(slices.Clone(fh.Hits), func(h shard.Hit) bool { return !in(h.SeqID) })
						if !reflect.DeepEqual(sh.Hits, wantHits) || sh.Count != len(wantHits) {
							t.Fatalf("%s: filter over %v: %v, want %v", phase, ids, sh.Hits, wantHits)
						}
						if in(fl.Match.SeqID) {
							var sl shard.BestResponse
							postJSON(t, ts, "/query/longest", scoped(q, ids), &sl)
							if !reflect.DeepEqual(sl, fl) {
								t.Fatalf("%s: longest over %v: %+v, want %+v", phase, ids, sl.Match, fl.Match)
							}
						}
					}
				}
			}
			check("as built")
			if backend != "covertree" {
				if code := postJSON(t, ts, "/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, lo+1), nil); code != http.StatusOK {
					t.Fatalf("retire: %d", code)
				}
				check("after retiring sequence " + fmt.Sprint(lo+1))
			}

			q := string(ds.Sequences[lo][:16])
			for _, bad := range []struct{ path, body string }{
				{"/query/findall", scoped(q, []int{lo - 1})},
				{"/query/filter", scoped(q, []int{lo, hi})},
				{"/query/longest", scoped(q, []int{-1})},
				{"/query/findall", fmt.Sprintf(`{"query":%q,"eps":2,"seqs":[]}`, q)},
				{"/query/nearest", fmt.Sprintf(`{"query":%q,"eps_max":2,"seqs":[%d]}`, q, lo)},
				{"/query/batch", fmt.Sprintf(`{"kind":"findall","queries":[%q],"eps":2,"seqs":[%d]}`, q, lo)},
			} {
				if code, b := postRaw(t, ts, bad.path, bad.body); code != http.StatusBadRequest {
					t.Fatalf("%s %s: %d, want 400: %s", bad.path, bad.body, code, b)
				}
			}
		})
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheSmokeBinary is the cache end-to-end smoke CI runs via `make
// cache-smoke`: a real 2-ranges × 2-replicas fleet of serve processes
// behind a real gateway started with -cache-size/-cache-ttl. A hot query
// warms the cache (visible as hits on /stats); a retire fanned through
// the gateway's admin surface must reach both replicas, bump the epoch,
// show up in the invalidation counter, and change the hot query's answer
// to the post-write truth — never the cached bytes — while the unwritten
// range answers its share from its cached partial: its replicas' own
// distance_calls do not move. Then the partials carry across writes to the
// tail range: after a retire of a tail sequence the hot answer does not
// name, the tail replicas compute nothing for the next read, and after an
// append they compute the appended sequence's share alone, fewer
// evaluations than a full ask of the range — each answer the single
// node's.
// Finally the gateway shuts down cleanly on SIGTERM.
func TestCacheSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildSubseqctl(t)
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	spec.Windows = equivWindows
	ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	numSeqs := len(ds.Sequences)
	cut := numSeqs / 2
	session := func(name string, lo, hi int) string {
		return fmt.Sprintf("name=%s,dataset=proteins,windows=%d,windowlen=%d,seed=%d,shard_lo=%d,shard_hi=%d,workers=2",
			name, spec.Windows, spec.WindowLen, spec.Seed, lo, hi)
	}
	type replica struct {
		cmd  *exec.Cmd
		base string
	}
	var fleet []replica
	for _, s := range []struct {
		name   string
		lo, hi int
	}{
		{"c0a", 0, cut}, {"c0b", 0, cut}, {"c1a", cut, numSeqs}, {"c1b", cut, numSeqs},
	} {
		cmd, base := startServeBinary(t, bin, "-addr", "127.0.0.1:0", "-session", session(s.name, s.lo, s.hi))
		fleet = append(fleet, replica{cmd: cmd, base: base})
	}
	defer func() {
		for _, r := range fleet {
			r.cmd.Process.Kill()
		}
	}()

	gwCmd, gwBase := startBinary(t, bin, "gateway",
		"-addr", "127.0.0.1:0", "-replicas", "2",
		"-cache-size", "8388608", "-cache-ttl", "1m",
		"-probe-interval", "100ms",
		"-shard", fleet[0].base, "-shard", fleet[1].base,
		"-shard", fleet[2].base, "-shard", fleet[3].base)
	defer gwCmd.Process.Kill()

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(gwBase+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	getStats := func() shard.GatewayStatsResponse {
		t.Helper()
		resp, err := client.Get(gwBase + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats shard.GatewayStatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		return stats
	}

	// tailQueryCalls sums the filter and verify evaluations of range 1's
	// replicas (the tail range, which appends land on) off their /stats.
	tailQueryCalls := func() int64 {
		t.Helper()
		var n int64
		for _, r := range fleet[2:] {
			resp, err := client.Get(r.base + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			var st statsResponse
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			n += st.DistanceCalls.Filter + st.DistanceCalls.Verify
		}
		return n
	}

	// Warm the hot query. The second answer must come from the cache
	// (hits >= 1 on /stats) and be byte-identical to the first.
	q := string(ds.Sequences[0][:16])
	body := fmt.Sprintf(`{"query":%q,"eps":2}`, q)
	code, first := post("/query/findall", body)
	if code != http.StatusOK {
		t.Fatalf("warm-up findall: %d: %s", code, first)
	}
	code, second := post("/query/findall", body)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("hot query changed without a write: %d\n  %s\n  %s", code, first, second)
	}
	stats := getStats()
	if stats.Cache == nil || stats.Cache.Hits < 1 {
		t.Fatalf("hot query never hit the cache: %+v", stats.Cache)
	}
	if stats.Epoch != 0 {
		t.Fatalf("epoch %d before any write", stats.Epoch)
	}

	// Retire sequence 0 — the hot query's own sequence — through the
	// gateway. Both replicas of range 0 must ack, the epoch must bump and
	// the warmed entry must be invalidated.
	code, b := post("/admin/retire", `{"seq_id":0}`)
	if code != http.StatusOK {
		t.Fatalf("retire: %d: %s", code, b)
	}
	var ar shard.AdminFanoutResponse
	if err := json.Unmarshal(b, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Acks != 2 || !ar.Quorum || ar.Epoch != 1 || ar.Invalidated < 1 {
		t.Fatalf("retire fan-out: %+v", ar)
	}

	// distanceCalls reads one replica's own distance_calls off its /stats.
	distanceCalls := func(base string) string {
		t.Helper()
		resp, err := client.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			DistanceCalls json.RawMessage `json:"distance_calls"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || len(st.DistanceCalls) == 0 {
			t.Fatalf("replica %s /stats: no distance_calls (%v)", base, err)
		}
		return string(st.DistanceCalls)
	}
	unwritten := []string{distanceCalls(fleet[2].base), distanceCalls(fleet[3].base)}

	// The hot query now answers the post-write truth — bit-identical to a
	// single node that retired the same sequence, not the cached bytes.
	mt, _, err := registry.NewMatcher[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.RetireSequence(0); err != nil {
		t.Fatal(err)
	}
	code, fresh := post("/query/findall", body)
	if code != http.StatusOK {
		t.Fatalf("post-retire findall: %d: %s", code, fresh)
	}
	if bytes.Equal(fresh, first) {
		t.Fatalf("retired sequence still served from cache: %s", fresh)
	}
	var fa shard.MatchesResponse
	if err := json.Unmarshal(fresh, &fa); err != nil {
		t.Fatal(err)
	}
	if want := toShardMatches(mt.FindAll([]byte(q), 2)); !reflect.DeepEqual(fa.Matches, want) {
		t.Fatalf("post-retire: gateway %v, single node %v", fa.Matches, want)
	}
	stats = getStats()
	if stats.Epoch != 1 || stats.Cache == nil || stats.Cache.Invalidations < 1 {
		t.Fatalf("invalidation not visible on /stats: epoch %d, cache %+v", stats.Epoch, stats.Cache)
	}
	if stats.Gateway.Writes != 1 {
		t.Fatalf("writes counter %d after one write", stats.Gateway.Writes)
	}

	// Only range 0 was asked again: range 1's partial answered its share,
	// so neither of its replicas computed a distance.
	for i, r := range fleet[2:] {
		if got := distanceCalls(r.base); got != unwritten[i] {
			t.Fatalf("unwritten range's replica %s computed after the retire: distance_calls %s, then %s",
				r.base, unwritten[i], got)
		}
	}
	if p := stats.Partials; p == nil || p.Hits < 1 || !reflect.DeepEqual(p.Epochs, []uint64{1, 0}) {
		t.Fatalf("partials on /stats after the retire: %+v", p)
	}

	// readFresh reads the hot query and holds it to the single node.
	readFresh := func(step string) {
		t.Helper()
		code, b := post("/query/findall", body)
		if code != http.StatusOK {
			t.Fatalf("%s: findall: %d: %s", step, code, b)
		}
		var fa shard.MatchesResponse
		if err := json.Unmarshal(b, &fa); err != nil {
			t.Fatal(err)
		}
		if want := toShardMatches(mt.FindAll([]byte(q), 2)); !reflect.DeepEqual(fa.Matches, want) {
			t.Fatalf("%s: gateway %v, single node %v", step, fa.Matches, want)
		}
	}

	// Retire a tail sequence the hot query's answer does not name: range
	// 1's partial carries across it with no shard call, so the tail
	// replicas compute nothing.
	named := map[int]bool{}
	for _, m := range fa.Matches {
		named[m.SeqID] = true
	}
	quiet := numSeqs - 1
	for named[quiet] {
		quiet--
	}
	if quiet < cut {
		t.Fatalf("the hot query's answer names every tail sequence: %v", fa.Matches)
	}
	if code, b := post("/admin/retire", fmt.Sprintf(`{"seq_id":%d}`, quiet)); code != http.StatusOK {
		t.Fatalf("retire %d: %d: %s", quiet, code, b)
	}
	if _, err := mt.RetireSequence(quiet); err != nil {
		t.Fatal(err)
	}
	tailBefore := tailQueryCalls()
	readFresh("after retiring an unnamed tail sequence")
	if n := tailQueryCalls() - tailBefore; n != 0 {
		t.Fatalf("the tail replicas computed %d evaluations after a retire no answer named, want none", n)
	}

	// Append a copy of the hot query's sequence: range 1 is asked for the
	// copy alone, which costs its replicas less than a full ask of the
	// range does — one posted straight to a tail replica after the read.
	code, b = post("/admin/append", `{"sequence":`+string(mustMarshal(t, string(ds.Sequences[0])))+`}`)
	if code != http.StatusOK {
		t.Fatalf("append: %d: %s", code, b)
	}
	if _, _, err := mt.AppendSequence(ds.Sequences[0]); err != nil {
		t.Fatal(err)
	}
	tailBefore = tailQueryCalls()
	readFresh("after appending a copy of the hot query's sequence")
	scopedTail := tailQueryCalls() - tailBefore
	tailBefore = tailQueryCalls()
	if resp, err := client.Post(fleet[2].base+"/query/findall", "application/json", strings.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	full := tailQueryCalls() - tailBefore
	t.Logf("tail replicas' evaluations after the append: %d for the scoped ask, %d for a full one", scopedTail, full)
	if scopedTail <= 0 || scopedTail >= full {
		t.Fatalf("after the append the tail replicas computed %d evaluations, want more than 0 and fewer than a full ask's %d", scopedTail, full)
	}
	if p := getStats().Partials; p == nil || p.Forwarded != 1 || p.Deltas != 1 {
		t.Fatalf("partials on /stats after the carried reads: %+v", p)
	}

	// Clean SIGTERM shutdown, same contract as serve.
	stopServeBinary(t, gwCmd)
}
