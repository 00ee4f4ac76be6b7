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
			} else if n := int64(len(stream)); hits != n || misses != n || dropped != n {
				t.Fatalf("after the retire: %d partial hits, %d misses and %d dropped, want %d each (range 1 reused, range 0 re-asked)",
					hits, misses, dropped, n)
			}
			if !reflect.DeepEqual(after.Epochs, wantEpochs) {
				t.Fatalf("range epochs %v, want %v", after.Epochs, wantEpochs)
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
// distance_calls do not move. Finally the gateway shuts down cleanly on
// SIGTERM.
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

	// Clean SIGTERM shutdown, same contract as serve.
	stopServeBinary(t, gwCmd)
}
