package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	subseq "repro"
	"repro/internal/shard"
)

// Traced replays of the two HTTP workloads: client-side spans around every
// request plus deltas of the children's own /stats counters. Nothing inside
// the children is instrumented.

// latencySum is a lifetime latency histogram reduced to what two snapshots
// need to yield the mean of the observations in between: how many there
// were and their total.
type latencySum struct {
	count   int64
	totalMS float64
}

func sumOf(l subseq.LatencyStats) latencySum {
	return latencySum{l.Count, l.MeanMillis * float64(l.Count)}
}

func (s latencySum) plus(o latencySum) latencySum {
	return latencySum{s.count + o.count, s.totalMS + o.totalMS}
}

// meanSince is the mean of the observations gained since the earlier
// snapshot.
func (s latencySum) meanSince(earlier latencySum) float64 {
	return ratio(s.totalMS-earlier.totalMS, float64(s.count-earlier.count))
}

// replayHTTP drives ops [lo, hi) of the list with the given number of
// closed-loop clients, a span per request when tr is set; label, when set,
// is called by client 0 after each of its read requests.
func (e *httpEnv) replayHTTP(in inputs[byte], tr *tracer, lo, hi, clients int, label func(lat time.Duration)) ([]*clientLog, error) {
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		logs[c] = newClientLog()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, l := newClient(e.front), logs[c]
			defer cl.close()
			for i := lo + c; i < hi && l.fatal == nil; i += clients {
				reads := len(l.readLat)
				var id int
				if tr != nil {
					id = tr.begin("http."+in.Ops[i].Kind.String(), -1, i)
				}
				e.runOp(cl, in, i, l)
				if tr != nil {
					tr.end(id)
				}
				if label != nil && c == 0 && len(l.readLat) > reads {
					label(time.Duration(l.readLat[reads] * float64(time.Millisecond)))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, l := range logs {
		if l.fatal != nil {
			return nil, l.fatal
		}
	}
	return logs, nil
}

// mergeLogs folds the clients' logs into one and checks the answers.
func mergeLogs(logs []*clientLog, expected map[opKey][]answer) (*clientLog, replay) {
	all := newClientLog()
	res := &result{}
	for _, l := range logs {
		all.readLat = append(all.readLat, l.readLat...)
		all.writeLat = append(all.writeLat, l.writeLat...)
		for k, v := range l.byKind {
			all.byKind[k] = append(all.byKind[k], v...)
		}
		for k, v := range l.status {
			all.status[k] += v
		}
		all.queries += l.queries
		all.ops += l.ops
		all.replyBytes += l.replyBytes
		res.Failed += l.failed
	}
	verifyObserved(logs, expected, res)
	var rp replay
	rp.latMS, rp.attempted, rp.fails = all.readLat, all.ops, res.Failed
	for _, v := range all.readLat {
		rp.tracedS += v / 1e3
	}
	return all, rp
}

// untracedPass runs the replay's ops without spans first, for
// bench.trace_overhead_share, and returns the seconds spent in read requests.
func (e *httpEnv) untracedPass(rc runConfig, in inputs[byte]) (float64, error) {
	logs, err := e.replayHTTP(in, nil, 0, min(rc.def.TraceOps, len(in.Ops)), httpClients, nil)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, l := range logs {
		for _, v := range l.readLat {
			s += v / 1e3
		}
	}
	return s, nil
}

func count5xx(status map[int]int) int {
	n := 0
	for code, c := range status {
		if code >= 500 {
			n += c
		}
	}
	return n
}

// traceServe replays the first traceN ops of serve-mixed against a fresh
// child.
func traceServe(rc runConfig, tr *tracer, own bool) (metrics, replay, error) {
	m := metrics{}
	var rp replay
	p, err := serveWorkload.prep(rc)
	if err != nil {
		return nil, rp, err
	}
	env, err := serveWorkload.setup(rc, p)
	if err != nil {
		return nil, rp, err
	}
	defer env.stop()
	m.set("serve.startup_s", env.startup.Seconds(), 1)
	var untraced float64
	if own {
		if untraced, err = env.untracedPass(rc, p.in); err != nil {
			return nil, rp, err
		}
	}
	st0, err := fetchServeStats(env.front)
	if err != nil {
		return nil, rp, err
	}
	logs, err := env.replayHTTP(p.in, tr, 0, min(rc.def.TraceOps, len(p.in.Ops)), httpClients, nil)
	if err != nil {
		return nil, rp, err
	}
	st1, err := fetchServeStats(env.front)
	if err != nil {
		return nil, rp, err
	}
	all, rp := mergeLogs(logs, p.expected)
	rp.untracedS = untraced

	// Batches bypass the streaming pool, so the engine's own latency is
	// compared with the single-query requests only.
	var single []float64
	for _, k := range []opKind{opFindAll, opLongest, opFilter, opNearest} {
		single = append(single, all.byKind[k]...)
	}
	engine := sumOf(st1.Stream.Latency).meanSince(sumOf(st0.Stream.Latency))
	m.set("serve.overhead_ms", mean(single)-engine, len(single))
	for _, k := range []opKind{opFindAll, opLongest, opFilter, opNearest, opBatch, opAppend, opRetire} {
		m.set("serve."+k.String()+"_p50_ms", median(all.byKind[k]), len(all.byKind[k]))
	}
	m.set("serve.resp_bytes_per_query", ratio(float64(all.replyBytes), float64(all.queries)), all.queries)
	m.set("serve.http_429", float64(all.status[http.StatusTooManyRequests]), 0)
	m.set("serve.http_5xx", float64(count5xx(all.status)), 0)
	rss, err := env.fleet.peakRSS()
	if err != nil {
		return nil, rp, err
	}
	m.set("serve.rss_mb", rss, 1)
	return m, rp, nil
}

func fetchGatewayStats(c *client) (shard.GatewayStatsResponse, error) {
	var s shard.GatewayStatsResponse
	err := c.getJSON("/stats", &s)
	if err == nil && s.Cache == nil {
		err = fmt.Errorf("gateway /stats reports no cache")
	}
	return s, err
}

// traceFleet replays the first TraceOps ops of fleet-hotkeys against a fresh
// fleet, in two phases. In the first half one client runs alone and reads
// the gateway's cache counters after each request, so every request is
// labelled hit or miss by the counter that moved, and a miss can be set
// against the shards' own engine latency over the same requests. The second
// half runs with the usual two clients, unlabelled, so that concurrent
// identical misses (single-flight) can happen; counters are taken over both.
func traceFleet(rc runConfig, tr *tracer, own bool) (metrics, replay, error) {
	m := metrics{}
	var rp replay
	p, err := fleetWorkload.prep(rc)
	if err != nil {
		return nil, rp, err
	}
	env, err := fleetWorkload.setup(rc, p)
	if err != nil {
		return nil, rp, err
	}
	defer env.stop()
	n := min(rc.def.TraceOps, len(p.in.Ops))
	// phases is the replay's shape: the first half one client at a time,
	// the second half with both.
	var engineA []latencySum // the ranges' engine latency after the first phase
	phases := func(tr *tracer, label func(time.Duration)) ([]*clientLog, error) {
		logs, err := env.replayHTTP(p.in, tr, 0, n/2, 1, label)
		if err != nil {
			return nil, err
		}
		if engineA, err = env.engineLatency(); err != nil {
			return nil, err
		}
		more, err := env.replayHTTP(p.in, tr, n/2, n, httpClients, nil)
		return append(logs, more...), err
	}
	var untraced float64
	if own {
		logs, err := phases(nil, nil)
		if err != nil {
			return nil, rp, err
		}
		for _, l := range logs {
			for _, v := range l.readLat {
				untraced += v / 1e3
			}
		}
		// One write empties the cache the untraced pass filled, so both
		// passes start cold.
		c := newClient(env.front)
		_, _, err = env.doWrite(c, p.in, op{Kind: opRetire})
		c.close()
		if err != nil {
			return nil, rp, err
		}
	}
	statsClient := newClient(env.front)
	defer statsClient.close()
	g0, err := fetchGatewayStats(statsClient)
	if err != nil {
		return nil, rp, err
	}
	engine0, err := env.engineLatency()
	if err != nil {
		return nil, rp, err
	}

	var hitMS, missMS []float64
	prev := *g0.Cache
	var labelErr error
	label := func(lat time.Duration) {
		id := tr.begin("gateway.stats", -1, -1)
		g, err := fetchGatewayStats(statsClient)
		tr.end(id)
		if err != nil {
			labelErr = err
			return
		}
		switch {
		case g.Cache.Hits == prev.Hits+1:
			hitMS = append(hitMS, ms(lat))
		case g.Cache.Misses == prev.Misses+1:
			missMS = append(missMS, ms(lat))
		}
		prev = *g.Cache
	}
	logs, err := phases(tr, label)
	if err == nil {
		err = labelErr
	}
	if err != nil {
		return nil, rp, err
	}
	g1, err := fetchGatewayStats(statsClient)
	if err != nil {
		return nil, rp, err
	}
	all, rp := mergeLogs(logs, p.expected)
	rp.untracedS = untraced

	hits, misses := g1.Cache.Hits-g0.Cache.Hits, g1.Cache.Misses-g0.Cache.Misses
	m.set("gateway.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	m.set("gateway.cache_evictions", float64(g1.Cache.Evictions-g0.Cache.Evictions), 0)
	m.set("gateway.cache_invalidations", float64(g1.Cache.Invalidations-g0.Cache.Invalidations), 0)
	fh := g1.Gateway.SingleFlight.Hits - g0.Gateway.SingleFlight.Hits
	fm := g1.Gateway.SingleFlight.Misses - g0.Gateway.SingleFlight.Misses
	m.set("gateway.single_flight_hit_ratio", ratio(float64(fh), float64(fh+fm)), int(fh+fm))
	m.set("gateway.hit_p50_ms", median(hitMS), len(hitMS))
	m.set("gateway.miss_p50_ms", median(missMS), len(missMS))
	// A miss waits for the slower of the two ranges: the gateway's own cost
	// is what is left of a mean miss after the slower range's mean engine
	// latency over the same, one-at-a-time requests.
	var slowest float64
	for r := range engine0 {
		slowest = max(slowest, engineA[r].meanSince(engine0[r]))
	}
	m.set("gateway.overhead_ms", mean(missMS)-slowest, len(missMS))
	m.set("gateway.write_p50_ms", median(all.writeLat), len(all.writeLat))
	var acks float64
	for _, l := range logs {
		acks += float64(l.writeAcks)
	}
	m.set("gateway.write_acks_per_write", ratio(acks, float64(len(all.writeLat))), len(all.writeLat))
	m.set("gateway.hedges", float64(g1.Gateway.Hedges-g0.Gateway.Hedges), 0)
	m.set("gateway.failovers", float64(g1.Gateway.Failovers-g0.Gateway.Failovers), 0)
	m.set("gateway.degraded", float64(g1.Gateway.Degraded-g0.Gateway.Degraded), 0)
	m.set("gateway.shard_errors", float64(g1.Gateway.ShardErrors-g0.Gateway.ShardErrors), 0)
	var shardsRSS float64
	for _, c := range env.fleet.children {
		v, err := peakRSSMiB(c.cmd.Process.Pid)
		if err != nil {
			return nil, rp, err
		}
		if c.url == env.front {
			m.set("gateway.rss_mb", v, 1)
		} else {
			shardsRSS += v
		}
	}
	m.set("gateway.shards_rss_mb", shardsRSS, len(env.serves))
	return m, rp, nil
}

// engineLatency reads every serve process's stream.latency and folds
// replicas into their range (the fleet starts them range-major).
func (e *httpEnv) engineLatency() ([]latencySum, error) {
	out := make([]latencySum, fleetRanges)
	for i, s := range e.serves {
		st, err := fetchServeStats(s.url)
		if err != nil {
			return nil, err
		}
		out[i/fleetReplicas] = out[i/fleetReplicas].plus(sumOf(st.Stream.Latency))
	}
	return out, nil
}

// fanoutAcks reads the ack count off a gateway write reply (0 for a serve
// process's own reply, which has no such field).
func fanoutAcks(reply []byte) int {
	var r struct {
		Acks int `json:"acks"`
	}
	json.Unmarshal(reply, &r) // a reply without the field leaves 0
	return r.Acks
}
