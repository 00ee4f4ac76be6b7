package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/registry"
)

// --- Replicated fleets: replica loss must be invisible. With two
// replicas per range, killing any single replica leaves every query kind
// answering 200 with no degradation block, bit-identical to a single
// node over the same windows — on all four backends. ---

// startReplicatedFleet builds an in-process fleet with n serving stacks
// per plan range (each its own index over the range's slice) and a
// replica-aware gateway over them. Returns the gateway's test server and
// the per-range replica servers so a test can kill one.
func startReplicatedFleet(t *testing.T, base registry.SessionSpec, plan shard.Plan, n int, opts ...shard.GatewayOption) (*httptest.Server, [][]*httptest.Server) {
	t.Helper()
	servers := make([][]*httptest.Server, len(plan.Ranges))
	groups := make([][]string, len(plan.Ranges))
	for i, r := range plan.Ranges {
		for j := 0; j < n; j++ {
			spec := base
			spec.ShardLo, spec.ShardHi = r.Lo, r.Hi
			ts, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")
			servers[i] = append(servers[i], ts)
			groups[i] = append(groups[i], ts.URL)
		}
	}
	gw, err := shard.NewReplicatedGateway(plan, groups, opts...)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	return gts, servers
}

func TestReplicatedFleetMasksReplicaLossAllBackends(t *testing.T) {
	for bi, backend := range []string{"refnet", "covertree", "mv", "linear"} {
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
			gts, servers := startReplicatedFleet(t, spec, plan, 2)
			// The single node on the wire, for /query/filter's raw order.
			single, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")

			// Kill one replica — a different slot each backend, so the four
			// runs together cover every range/replica position.
			ri, pi := bi%2, (bi/2)%2
			t.Logf("killing replica %d of range %d %s", pi, ri, plan.Ranges[ri])
			servers[ri][pi].Close()

			q := string(ds.Sequences[0][:16])
			const eps = 2.0
			// Several rounds so round-robin routing lands on the dead
			// replica first at least once and fails over.
			for round := 0; round < 3; round++ {
				body := fmt.Sprintf(`{"query":%q,"eps":%g}`, q, eps)

				var fa shard.MatchesResponse
				if code := postJSON(t, gts, "/query/findall", body, &fa); code != http.StatusOK {
					t.Fatalf("findall status %d", code)
				}
				if fa.Degradation != nil {
					t.Fatalf("replica loss leaked as degradation: %+v", fa.Degradation)
				}
				want := toShardMatches(mt.FindAll([]byte(q), eps))
				if !reflect.DeepEqual(fa.Matches, want) {
					t.Fatalf("findall: gateway %v, single node %v", fa.Matches, want)
				}

				var fl shard.HitsResponse
				if code := postJSON(t, gts, "/query/filter", body, &fl); code != http.StatusOK {
					t.Fatalf("filter status %d", code)
				}
				if fl.Degradation != nil {
					t.Fatalf("filter degraded: %+v", fl.Degradation)
				}
				var sfl shard.HitsResponse
				if code := postJSON(t, single, "/query/filter", body, &sfl); code != http.StatusOK {
					t.Fatalf("single-node filter status %d", code)
				}
				if !reflect.DeepEqual(fl.Hits, sfl.Hits) {
					t.Fatalf("filter: gateway %v, single node %v", fl.Hits, sfl.Hits)
				}

				var lg shard.BestResponse
				if code := postJSON(t, gts, "/query/longest", body, &lg); code != http.StatusOK {
					t.Fatalf("longest status %d", code)
				}
				if lg.Degradation != nil {
					t.Fatalf("longest degraded: %+v", lg.Degradation)
				}
				wm, wok := mt.Longest([]byte(q), eps)
				if lg.Found != wok || (wok && *lg.Match != toShardMatch(wm)) {
					t.Fatalf("longest: gateway %+v/%v, single node %+v/%v", lg.Match, lg.Found, wm, wok)
				}

				var nr shard.BestResponse
				nbody := fmt.Sprintf(`{"query":%q,"eps_max":%g}`, q, eps)
				if code := postJSON(t, gts, "/query/nearest", nbody, &nr); code != http.StatusOK {
					t.Fatalf("nearest status %d", code)
				}
				if nr.Degradation != nil {
					t.Fatalf("nearest degraded: %+v", nr.Degradation)
				}
				nm, nok := mt.Nearest([]byte(q), core.NearestOptions{EpsMax: eps, EpsInc: eps / 16})
				if nr.Found != nok || (nok && *nr.Match != toShardMatch(nm)) {
					t.Fatalf("nearest: gateway %+v/%v, single node %+v/%v", nr.Match, nr.Found, nm, nok)
				}
			}
		})
	}
}

// TestReplicaSmokeBinary is the replication end-to-end smoke CI runs via
// `make replica-smoke`: a real 2-ranges × 2-replicas fleet of serve
// processes behind a real gateway with hedging and probing on. Healthy
// answers are checked bit-identical against the library; then one
// replica process is killed — answers must stay 200 with zero
// degradation and identical bytes; then the replica is restarted on the
// same address and the gateway's breaker must re-admit it; and the
// gateway's /stats must expose the replication roster and single-flight
// counters. Finally the gateway shuts down cleanly on SIGTERM.
func TestReplicaSmokeBinary(t *testing.T) {
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
		args []string
	}
	start := func(addr, sess string) replica {
		args := []string{"-addr", addr, "-session", sess}
		cmd, base := startServeBinary(t, bin, args...)
		return replica{cmd: cmd, base: base, args: args}
	}
	fleet := []replica{
		start("127.0.0.1:0", session("r0a", 0, cut)),
		start("127.0.0.1:0", session("r0b", 0, cut)),
		start("127.0.0.1:0", session("r1a", cut, numSeqs)),
		start("127.0.0.1:0", session("r1b", cut, numSeqs)),
	}
	defer func() {
		for _, r := range fleet {
			r.cmd.Process.Kill()
		}
	}()

	gwCmd, gwBase := startBinary(t, bin, "gateway",
		"-addr", "127.0.0.1:0", "-attempts", "2", "-replicas", "2",
		"-hedge-after", "50ms", "-probe-interval", "100ms",
		"-shard", fleet[0].base, "-shard", fleet[1].base,
		"-shard", fleet[2].base, "-shard", fleet[3].base)
	defer gwCmd.Process.Kill()

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(path, body string, out any) int {
		t.Helper()
		resp, err := client.Post(gwBase+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
		return resp.StatusCode
	}

	mt, _, err := registry.NewMatcher[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	q := string(ds.Sequences[0][:16])
	body := fmt.Sprintf(`{"query":%q,"eps":2}`, q)
	want := toShardMatches(mt.FindAll([]byte(q), 2))
	checkAnswer := func(when string) {
		t.Helper()
		var fa shard.MatchesResponse
		if code := post("/query/findall", body, &fa); code != http.StatusOK {
			t.Fatalf("%s: findall status %d", when, code)
		}
		if fa.Degradation != nil {
			t.Fatalf("%s: degradation: %+v", when, fa.Degradation)
		}
		if !reflect.DeepEqual(fa.Matches, want) {
			t.Fatalf("%s: gateway %v, single node %v", when, fa.Matches, want)
		}
	}
	checkAnswer("healthy fleet")

	// Kill one replica process outright. Its range keeps a live twin, so
	// nothing may degrade.
	const victim = 1 // replica b of range 0
	t.Logf("killing replica %s", fleet[victim].base)
	fleet[victim].cmd.Process.Kill()
	fleet[victim].cmd.Wait()
	for round := 0; round < 3; round++ {
		checkAnswer("after replica kill")
	}

	// The gateway's breaker must notice the corpse (the prober runs every
	// 100ms) and say so on /healthz.
	breakerState := func() string {
		resp, err := client.Get(gwBase + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h shard.HealthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if !h.OK {
			t.Fatalf("gateway unhealthy with every range covered: %+v", h)
		}
		return h.Ranges[0].Replicas[victim].Breaker.State
	}
	waitFor := func(state string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if breakerState() == state {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatalf("breaker never reached %q", state)
	}
	waitFor("open")

	// Restart the replica on the same host:port; the prober must re-admit
	// it without gateway restart.
	addr := strings.TrimPrefix(fleet[victim].base, "http://")
	cmd, base := startServeBinary(t, bin, append([]string{"-addr", addr}, fleet[victim].args[2:]...)...)
	fleet[victim] = replica{cmd: cmd, base: base}
	t.Logf("restarted replica at %s", base)
	waitFor("closed")
	checkAnswer("after replica restart")

	// /stats carries the replication roster and the new counters.
	resp, err := client.Get(gwBase + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats shard.GatewayStatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Replication) != 2 || len(stats.Replication[0].Replicas) != 2 {
		t.Fatalf("stats replication roster = %+v", stats.Replication)
	}
	if stats.Gateway.Queries == 0 {
		t.Fatalf("stats counters empty: %+v", stats.Gateway)
	}
	if stats.Gateway.SingleFlight.Misses == 0 {
		t.Fatalf("single-flight counters never counted a flight: %+v", stats.Gateway.SingleFlight)
	}
	if stats.Degradation != nil {
		t.Fatalf("stats degraded with a full fleet: %+v", stats.Degradation)
	}

	// Clean SIGTERM shutdown, same contract as serve.
	stopServeBinary(t, gwCmd)
}
