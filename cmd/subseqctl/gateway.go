package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/shard"
)

// subseqctl gateway: the scatter-gather front end over a shard fleet.
// Each shard is an ordinary `subseqctl serve` process hosting one slice
// of the logical database (shard_lo/shard_hi on its session spec); the
// gateway fans every query out over all ranges through the bounded-retry
// client and merges the answers deterministically (internal/shard), so a
// client sees one index — bit-identical to a single node over the same
// windows — plus a "degradation" block naming any range that could not
// answer. With -replicas N, consecutive -shard URLs form replica sets:
// each range is served by N interchangeable processes, routed by
// per-replica circuit breakers with background health probing, failover
// on error and an optional hedged second read (-hedge-after) — one
// replica loss is then masked entirely. Merged answers are kept in a
// bounded result cache (-cache-size/-cache-ttl) keyed by endpoint,
// shard-plan epoch and canonical body, and beside them each range's own
// reply, each current at that range's epoch; /admin/append,
// /admin/retire and /admin/snapshot are accepted too, fanned out to every
// replica of the owning range with quorum accounting, and every
// acknowledged write swaps in the next write generation (range and plan
// epochs moved as one) and flushes every merged answer, so no stale answer
// can be served, while a read after the write asks only the range it
// touched and, for findall, longest and filter, only for the sequences
// appended since (or not at all after a retire of a sequence the range's
// reply does not name). A carried reply keeps its first expiry, so
// -cache-ttl bounds how old a shard reply is served. Clients may not send
// "seqs" to the gateway: it sends every range the same body. docs/SHARDING.md
// documents the topology end to end.

// defaultGatewayAddr deliberately differs from registry.DefaultServeAddr
// so a gateway and a shard can share a host with no flags.
const defaultGatewayAddr = "127.0.0.1:8090"

func cmdGateway(args []string) {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", defaultGatewayAddr, "TCP listen address (host:port; :0 picks a free port)")
	var shards stringList
	fs.Var(&shards, "shard", "base URL of one shard serve process, e.g. http://127.0.0.1:8077 (repeatable, in shard order; with -replicas N, N consecutive URLs form one range's replica set, or give one comma-separated list per range)")
	ranges := fs.String("ranges", "", `comma-separated lo-hi sequence ranges, one per shard range in order (e.g. "0-3,3-6"); empty discovers the plan from each shard's /stats`)
	attempts := fs.Int("attempts", 4, "per-request attempts against one replica (retries on 429/503 and transport errors)")
	replicasPerRange := fs.Int("replicas", 1, "replicas per shard range: consecutive -shard URLs are grouped N at a time")
	hedgeAfter := fs.Duration("hedge-after", 100*time.Millisecond, "launch a hedged read to another replica when the first has been in flight this long (0 disables hedging)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "background health-probe period per replica (0 disables probing)")
	cacheSize := fs.Int64("cache-size", 64<<20, "result-cache byte budget for merged answers and per-range partial answers together (0 disables the cache)")
	cacheTTL := fs.Duration("cache-ttl", time.Minute, "result-cache entry TTL; writes through the gateway invalidate regardless, the TTL only bounds staleness from mutations that bypass it (0 keeps entries until eviction or invalidation)")
	fs.Parse(args)
	if len(shards) == 0 {
		fail(errors.New("gateway needs at least one -shard URL"))
	}
	groups, err := replicaGroups(shards, *replicasPerRange)
	if err != nil {
		fail(err)
	}
	rc := &retryClient{attempts: *attempts}
	get := func(ctx context.Context, url string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	var plan shard.Plan
	if *ranges != "" {
		plan, err = planFromFlag(*ranges)
	} else {
		plan, err = discoverPlan(groups, get)
	}
	if err != nil {
		fail(err)
	}
	gw, err := shard.NewReplicatedGateway(plan, groups,
		shard.WithPost(rc.postJSON), shard.WithGet(get),
		shard.WithHedgeAfter(*hedgeAfter), shard.WithProbeInterval(*probeInterval),
		shard.WithCache(*cacheSize, *cacheTTL))
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	for i, r := range plan.Ranges {
		fmt.Printf("subseqctl: gateway shard %d %s at %s\n", i, r, strings.Join(gw.Replicas()[i], ", "))
	}
	if *cacheSize > 0 {
		fmt.Printf("subseqctl: gateway result cache %d bytes, ttl %s\n", *cacheSize, *cacheTTL)
	}
	fmt.Printf("subseqctl: gateway over %d shards (%d sequences) on http://%s\n",
		len(plan.Ranges), plan.Seqs, ln.Addr())
	stopProbing := gw.StartProbing()
	hs := &http.Server{Handler: gw.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	<-done
	stopProbing()
	fmt.Println("subseqctl: gateway shut down")
}

// replicaGroups turns the flat -shard list into per-range replica sets.
// Two spellings are accepted: with -replicas N, consecutive entries are
// chunked N at a time (so the list length must be a multiple of N); or
// each entry is itself a comma-separated replica list for one range
// (then -replicas must stay 1, the grouping being explicit already).
func replicaGroups(entries []string, n int) ([][]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("-replicas must be at least 1, got %d", n)
	}
	var groups [][]string
	explicit := false
	for _, e := range entries {
		if strings.Contains(e, ",") {
			explicit = true
		}
	}
	if explicit {
		if n != 1 {
			return nil, errors.New("give replicas either via -replicas N or as comma-separated -shard entries, not both")
		}
		for i, e := range entries {
			var set []string
			for _, u := range strings.Split(e, ",") {
				u = strings.TrimSpace(u)
				if u == "" {
					return nil, fmt.Errorf("-shard entry %d has an empty replica URL", i)
				}
				set = append(set, u)
			}
			groups = append(groups, set)
		}
		return groups, nil
	}
	if len(entries)%n != 0 {
		return nil, fmt.Errorf("%d -shard URLs do not divide into replica sets of %d", len(entries), n)
	}
	for i := 0; i < len(entries); i += n {
		groups = append(groups, append([]string(nil), entries[i:i+n]...))
	}
	return groups, nil
}

// planFromFlag parses the -ranges flag ("0-3,3-6") into a validated plan;
// the total sequence count is the last range's hi.
func planFromFlag(s string) (shard.Plan, error) {
	parts := strings.Split(s, ",")
	rs := make([]shard.Range, len(parts))
	for i, p := range parts {
		lo, hi, ok := strings.Cut(strings.TrimSpace(p), "-")
		if !ok {
			return shard.Plan{}, fmt.Errorf("-ranges entry %q is not lo-hi", p)
		}
		var err error
		if rs[i].Lo, err = strconv.Atoi(lo); err != nil {
			return shard.Plan{}, fmt.Errorf("-ranges entry %q: %w", p, err)
		}
		if rs[i].Hi, err = strconv.Atoi(hi); err != nil {
			return shard.Plan{}, fmt.Errorf("-ranges entry %q: %w", p, err)
		}
	}
	numSeqs := rs[len(rs)-1].Hi
	return shard.PlanFromRanges(numSeqs, rs)
}

// shardProbe is the slice of a shard's /stats the gateway needs to learn
// the topology: the shard range its session was configured with, and the
// store's sequence count as a fallback for unsharded fleets.
type shardProbe struct {
	Config struct {
		ShardLo int `json:"shard_lo"`
		ShardHi int `json:"shard_hi"`
	} `json:"config"`
	Store struct {
		Sequences int `json:"sequences"`
	} `json:"store"`
}

// parseProbe decodes one /stats body into the topology slice.
func parseProbe(body []byte) (shardProbe, error) {
	var p shardProbe
	if err := json.Unmarshal(body, &p); err != nil {
		return shardProbe{}, err
	}
	if p.Config.ShardHi < 0 || p.Config.ShardLo < 0 || p.Store.Sequences < 0 {
		return shardProbe{}, errors.New("negative shard range or sequence count")
	}
	return p, nil
}

// planFromProbes assembles the fleet's plan from one probe per range:
// either every range declares its shard_lo/shard_hi (a sharded fleet,
// validated exactly like an explicit -ranges flag) or none does (an
// unsharded fleet, stacked by store size). Mixed fleets are ambiguous.
func planFromProbes(probes []shardProbe) (shard.Plan, error) {
	sharded := 0
	for _, p := range probes {
		if p.Config.ShardHi > 0 {
			sharded++
		}
	}
	switch {
	case sharded == len(probes) && len(probes) > 0:
		rs := make([]shard.Range, len(probes))
		for i, p := range probes {
			rs[i] = shard.Range{Lo: p.Config.ShardLo, Hi: p.Config.ShardHi}
		}
		return shard.PlanFromRanges(rs[len(rs)-1].Hi, rs)
	case sharded == 0 && len(probes) > 0:
		rs := make([]shard.Range, len(probes))
		lo := 0
		for i, p := range probes {
			rs[i] = shard.Range{Lo: lo, Hi: lo + p.Store.Sequences}
			lo = rs[i].Hi
		}
		return shard.PlanFromRanges(lo, rs)
	case len(probes) == 0:
		return shard.Plan{}, errors.New("no shards to discover a plan from")
	default:
		return shard.Plan{}, fmt.Errorf(
			"%d of %d shards declare a shard range and the rest do not; mixed fleets are ambiguous (give -ranges explicitly)",
			sharded, len(probes))
	}
}

// discoverPlan learns the partition from the fleet itself: each serve
// process echoes its shard_lo/shard_hi on /stats, so a correctly
// configured fleet describes its own plan (and a misconfigured one —
// gaps, overlaps, out-of-order URLs — is rejected by the same validation
// a -ranges flag gets). Within a replica set the first answering replica
// speaks for the range, but every replica that does answer must agree —
// replicas serving different slices under one range is a deployment
// error worth failing on. A fleet of unsharded sessions is stacked
// instead: range i owns the next Sequences-sized block, which matches
// how a gateway over independent stores would number them.
func discoverPlan(groups [][]string, get shard.GetFunc) (shard.Plan, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	probes := make([]shardProbe, len(groups))
	for i, set := range groups {
		var got []shardProbe
		var errs []string
		for j, u := range set {
			p, err := fetchProbe(ctx, strings.TrimRight(u, "/"), get)
			if err != nil {
				errs = append(errs, fmt.Sprintf("replica %d (%s): %v", j, u, err))
				continue
			}
			got = append(got, p)
		}
		if len(got) == 0 {
			return shard.Plan{}, fmt.Errorf("discovering plan: shard %d: no replica answered: %s", i, strings.Join(errs, "; "))
		}
		for _, p := range got[1:] {
			if p != got[0] {
				return shard.Plan{}, fmt.Errorf("discovering plan: shard %d: replicas disagree on their range/store (%+v vs %+v)", i, got[0], p)
			}
		}
		probes[i] = got[0]
	}
	plan, err := planFromProbes(probes)
	if err != nil {
		return shard.Plan{}, fmt.Errorf("discovering plan: %w", err)
	}
	return plan, nil
}

// fetchProbe GETs one replica's /stats and decodes the topology slice.
func fetchProbe(ctx context.Context, base string, get shard.GetFunc) (shardProbe, error) {
	res, err := get(ctx, base+"/stats")
	if err != nil {
		return shardProbe{}, err
	}
	b, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	res.Body.Close()
	if err != nil {
		return shardProbe{}, err
	}
	if res.StatusCode != http.StatusOK {
		return shardProbe{}, fmt.Errorf("HTTP %d", res.StatusCode)
	}
	return parseProbe(b)
}
