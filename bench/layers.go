package main

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"time"

	subseq "repro"
	"repro/internal/covertree"
	"repro/internal/data"
	"repro/internal/metric"
	"repro/internal/refindex"
	"repro/internal/refnet"
	"repro/internal/seq"
)

// Per-layer measurements of a traced run: every layer is timed from outside,
// by calling its exported functions with spans recorded around each call.
// dist, the indexes and the store are probed directly; core, batch and
// stream are measured by replaying the first ops of the in-process workloads
// with every call into a layer wrapped in a span.

// replay summarises a traced replay for the harness's own metrics: the
// per-query latencies of the traced pass and, when the replay is the run's
// own workload, the same ops timed untraced for bench.trace_overhead_share.
type replay struct {
	latMS            []float64
	tracedS          float64 // time inside the traced calls
	untracedS        float64 // the same calls, untraced (0 if not measured)
	attempted, fails int
}

// clientMetrics are the harness's own per-layer metrics, from the replay of
// the run's workload.
func (r replay) clientMetrics(m metrics) {
	p99, n, _ := percentile(sortedCopy(r.latMS), 0.99) // ungated: read it beside client.samples
	m.set("client.lat_p99_ms", p99, n)
	m.set("client.samples", float64(n), n)
	m.set("bench.trace_overhead_share", ratio(r.tracedS, r.untracedS), len(r.latMS))
}

// --- internal/dist ---

// distPairs is how many segment×window pairs the kernel probes replay and
// distReps how often, sized for tens of milliseconds per probe.
const (
	distPairs = 2048
	distReps  = 16
)

var distSink float64

// timeNS runs fn reps times over n items and returns the nanoseconds per
// item, recording one span.
func timeNS(tr *tracer, name string, n, reps int, fn func(i int)) float64 {
	id := tr.begin(name, -1, -1)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	return float64(tr.end(id).Nanoseconds()) / float64(n*reps)
}

// segmentWindowPairs pairs the segments the workload's first queries
// generate with database windows at a fixed stride — the evaluations the
// filter actually performs, minus the index's choice of which to skip.
func segmentWindowPairs[E any](in inputs[E], ds data.Dataset[E]) (segs, wins [][]E) {
	var all []seq.Segment[E]
	for _, q := range in.Queries[:min(len(in.Queries), 32)] {
		all = seq.AppendSegmentsFor(all, q, benchParams.Lambda, benchParams.Lambda0)
	}
	for i := 0; i < distPairs; i++ {
		segs = append(segs, all[(i*31)%len(all)].Data)
		wins = append(wins, ds.Windows[(i*7919)%len(ds.Windows)].Data)
	}
	return segs, wins
}

// probeKernels times a measure's three evaluation paths on the pairs.
func probeKernels[E any](tr *tracer, m metrics, prefix string, measure subseq.Measure[E], in inputs[E], ds data.Dataset[E]) {
	segs, wins := segmentWindowPairs(in, ds)
	m.set("dist."+prefix+"_ns_per_eval", timeNS(tr, "dist."+prefix, distPairs, distReps, func(i int) {
		distSink += measure.Fn(segs[i], wins[i])
	}), distPairs*distReps)
	m.set("dist."+prefix+"_bounded_ns_per_eval", timeNS(tr, "dist."+prefix+"_bounded", distPairs, distReps, func(i int) {
		distSink += measure.Bounded(segs[i], wins[i], 2)
	}), distPairs*distReps)
}

func probeDist(rc runConfig, tr *tracer) metrics {
	m := metrics{}
	pds := proteinBench.dataset()
	pin := genProteinSeq(rc.seed, pds, 32)
	probeKernels(tr, m, "myers", proteinBench.measure, pin, pds)

	// One kernel pass: bind the state to a window's prepared tables, then
	// stream the λ/2+λ0 elements at one query offset, which prices all
	// 2λ0+1 segment lengths there.
	prepared := make([]subseq.PreparedKernel[byte], 256)
	for i := range prepared {
		prepared[i] = proteinBench.measure.Prepare(pds.Windows[(i*7919)%len(pds.Windows)].Data)
	}
	var state subseq.IncrementalKernel[byte]
	passLen := benchParams.WindowLen() + benchParams.Lambda0
	m.set("dist.myers_kernel_ns_per_pass", timeNS(tr, "dist.myers_kernel", distPairs, distReps, func(i int) {
		state = subseq.BindKernel(state, prepared[i%len(prepared)])
		q := pin.Queries[i%len(pin.Queries)]
		off := i % (len(q) - passLen + 1)
		for _, c := range q[off : off+passLen] {
			distSink += state.Feed(c)
		}
	}), distPairs*distReps)

	tds := trajBench.dataset()
	tin := genTrajSeq(rc.seed, tds, 32)
	probeKernels(tr, m, "erp", trajBench.measure, tin, tds)
	// The verifier's shape: whole queries against database subsequences of
	// the same length.
	const verifyPairs = 256
	m.set("dist.erp_verify_ns_per_eval", timeNS(tr, "dist.erp_verify", verifyPairs, 4, func(i int) {
		x := tds.Sequences[i%len(tds.Sequences)]
		q := tin.Queries[i%len(tin.Queries)]
		off := (i * 13) % (len(x) - len(q) + 1)
		distSink += trajBench.measure.Fn(q, x[off:off+len(q)])
	}), verifyPairs*4)
	return m
}

// --- internal/refnet and the three baselines ---

// indexProbes is the number of fixed window-probes; each is asked at ε=2
// and ε=4.
const indexProbes = 64

var probeRadii = []float64{2, 4}

type ranger interface {
	Range(q seq.Window[byte], eps float64) []seq.Window[byte]
}

var rangeSink int

// probeRange asks every probe at every radius once and returns the mean
// distance evaluations and microseconds per probe.
func probeRange(tr *tracer, name string, idx ranger, counter *metric.Counter[seq.Window[byte]], probes []seq.Window[byte]) (distPer, usPer float64) {
	c0 := counter.Calls()
	id := tr.begin(name, -1, -1)
	for _, eps := range probeRadii {
		for _, p := range probes {
			rangeSink += len(idx.Range(p, eps))
		}
	}
	d := tr.end(id)
	n := float64(len(probes) * len(probeRadii))
	return float64(counter.Calls()-c0) / n, us(d) / n
}

func probeIndexes(tr *tracer) metrics {
	m := metrics{}
	wins := fleetDataset().Windows // 2000 protein windows, whatever the workloads index
	n := float64(len(wins))
	lev, bounded := proteinBench.measure.Fn, proteinBench.measure.Bounded
	counter := metric.NewCounter(func(a, b seq.Window[byte]) float64 { return lev(a.Data, b.Data) })
	countedBounded := counter.CountBounded(func(a, b seq.Window[byte], eps float64) float64 {
		return bounded(a.Data, b.Data, eps)
	})
	probes := make([]seq.Window[byte], indexProbes)
	for i := range probes {
		probes[i] = seq.Window[byte]{SeqID: -1, Data: wins[(i*31+7)%len(wins)].Data}
	}
	// The net is armed exactly as core.NewMatcher arms it, so these numbers
	// are the ones the workloads' filter pays.
	buildNet := func(name string, opts ...refnet.Option) (*refnet.Net[seq.Window[byte]], time.Duration, int64) {
		c0 := counter.Calls()
		id := tr.begin(name, -1, -1)
		net := refnet.New(counter.Distance, opts...)
		net.SetBounded(countedBounded)
		for _, w := range wins {
			net.Insert(w)
		}
		return net, tr.end(id), counter.Calls() - c0
	}
	net, buildD, buildCalls := buildNet("refnet.build")
	m.set("refnet.build_s", buildD.Seconds(), 1)
	m.set("refnet.build_dist_per_window", float64(buildCalls)/n, len(wins))
	nq := indexProbes * len(probeRadii)
	distPer, usPer := probeRange(tr, "refnet.range", net, counter, probes)
	m.set("refnet.range_dist_per_probe", distPer, nq)
	m.set("refnet.range_us_per_probe", usPer, nq)
	m.set("refnet.pruned_share", 1-distPer/n, nq)

	id := tr.begin("refnet.batchrange", -1, -1)
	for _, eps := range probeRadii {
		for lo := 0; lo < len(probes); lo += 32 {
			for _, r := range net.BatchRange(probes[lo:lo+32], eps) {
				rangeSink += len(r)
			}
		}
	}
	m.set("refnet.batchrange_us_per_probe", us(tr.end(id))/float64(nq), nq)
	st := net.Stats()
	m.set("refnet.struct_bytes_per_window", float64(st.StructBytes)/n, len(wins))
	m.set("refnet.avg_parents", st.AvgParents, len(wins))

	off, _, _ := buildNet("refnet.build_edgebounds_off", refnet.WithEdgeBounds(false))
	distPer, usPer = probeRange(tr, "refnet.range_edgebounds_off", off, counter, probes)
	m.set("refnet.edgebounds_off_dist_per_probe", distPer, nq)
	m.set("refnet.edgebounds_off_us_per_probe", usPer, nq)

	ct := covertree.New(counter.Distance, 1)
	for _, w := range wins {
		ct.Insert(w)
	}
	distPer, usPer = probeRange(tr, "covertree.range", ct, counter, probes)
	m.set("covertree.range_dist_per_probe", distPer, nq)
	m.set("covertree.range_us_per_probe", usPer, nq)

	mv, err := refindex.Build(wins, 5, counter.Distance, refindex.Options{})
	if err != nil {
		panic(err) // k is a positive constant
	}
	distPer, usPer = probeRange(tr, "refindex.range", mv, counter, probes)
	m.set("refindex.range_dist_per_probe", distPer, nq)
	m.set("refindex.range_us_per_probe", usPer, nq)

	ls := metric.NewLinearScan(counter.Distance)
	ls.SetBounded(countedBounded)
	for _, w := range wins {
		ls.Insert(w)
	}
	_, usPer = probeRange(tr, "linear.range", ls, counter, probes)
	m.set("linear.range_us_per_probe", usPer, nq)
	return m
}

// --- internal/core: filter vs verify ---

// nearestProbes is how many Type III ops a traced replay adds when the
// workload's own op cycle has none, so that core.nearest_ms always has a
// value.
const nearestProbes = 4

// traceSeq replays the first traceN ops of a -seq workload. Each Type I or
// II op is answered twice — FilterHits alone, then the full call — so that
// verify time is the difference; Type III ops (whose filter is a radius
// search, not one FilterHits call) only feed core.nearest_ms.
func traceSeq[E any](b inprocBench[E], rc runConfig, tr *tracer, own bool) (metrics, replay, error) {
	m := metrics{}
	var rp replay
	env, err := b.setup(rc, func(env *inprocEnv[E], o op) { answerQuery(env.mt, env.in.Queries[o.Q], o.Kind, o.Eps) })
	if err != nil {
		return nil, rp, err
	}
	mt := env.mt
	ops := append([]op(nil), env.in.Ops[:min(rc.def.TraceOps, len(env.in.Ops))]...)
	hasNearest := false
	var maxEps float64
	for _, o := range ops {
		hasNearest = hasNearest || o.Kind == opNearest
		maxEps = max(maxEps, o.Eps)
	}
	if !hasNearest {
		for i := 0; i < nearestProbes; i++ {
			ops = append(ops, op{Kind: opNearest, Q: i, N: 1, Eps: maxEps})
		}
	}
	// The run's own workload is also timed untraced, op by op and
	// alternating which of the two goes first, so that neither side is
	// always the one that finds the caches warm.
	untraced := func(first bool, i int, o op) {
		if own && first == (i%2 == 0) {
			t0 := time.Now()
			answerQuery(mt, env.in.Queries[o.Q], o.Kind, o.Eps)
			rp.untracedS += time.Since(t0).Seconds()
		}
	}

	var filterMS, answerMS, segs, hits, matches, fDist, vDist, allocs, allocBytes float64
	var n12 int
	byKind := map[opKind][]float64{}
	var before, after runtime.MemStats
	for i, o := range ops {
		q := env.in.Queries[o.Q]
		untraced(true, i, o)
		root := tr.begin("op."+o.Kind.String(), -1, i)
		if o.Kind != opNearest {
			id := tr.begin("core.filter", root, i)
			h := mt.FilterHits(q, o.Eps)
			filterMS += ms(tr.end(id))
			hits += float64(len(h))
			segs += float64(len(seq.SegmentsFor(q, benchParams.Lambda, benchParams.Lambda0)))
		}
		runtime.ReadMemStats(&before)
		f0, v0 := mt.FilterDistanceCalls(), mt.VerifyDistanceCalls()
		id := tr.begin("core.answer", root, i)
		a := answerQuery(mt, q, o.Kind, o.Eps)
		d := tr.end(id)
		f1, v1 := mt.FilterDistanceCalls(), mt.VerifyDistanceCalls()
		runtime.ReadMemStats(&after)
		tr.end(root)
		untraced(false, i, o)
		rp.latMS = append(rp.latMS, ms(d))
		rp.tracedS += d.Seconds()
		byKind[o.Kind] = append(byKind[o.Kind], ms(d))
		if o.Kind != opNearest {
			n12++
			answerMS += ms(d)
			matches += float64(len(a.Matches))
			fDist += float64(f1 - f0)
			vDist += float64(v1 - v0)
			allocs += float64(after.Mallocs - before.Mallocs)
			allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
	}
	rp.attempted = len(ops)
	n := float64(n12)
	m.set("core.filter_ms_per_query", filterMS/n, n12)
	m.set("core.verify_ms_per_query", (answerMS-filterMS)/n, n12)
	m.set("core.filter_share", ratio(filterMS, answerMS), n12)
	m.set("core.filter_dist_per_query", fDist/n, n12)
	m.set("core.verify_dist_per_query", vDist/n, n12)
	m.set("core.segments_per_query", segs/n, n12)
	m.set("core.hits_per_query", hits/n, n12)
	m.set("core.matches_per_query", matches/n, n12)
	m.set("core.verify_useful_ratio", ratio(matches, vDist), n12)
	m.set("core.findall_ms", mean(byKind[opFindAll]), len(byKind[opFindAll]))
	m.set("core.longest_ms", mean(byKind[opLongest]), len(byKind[opLongest]))
	m.set("core.nearest_ms", mean(byKind[opNearest]), len(byKind[opNearest]))
	m.set("core.allocs_per_query", allocs/n, n12)
	m.set("core.bytes_per_query", allocBytes/n, n12)
	return m, rp, nil
}

// --- the batch engine and the streaming scheduler ---

// noopRoundTrips is how many Submit→Await round trips price the scheduler
// against a matcher with next to nothing to compute.
const noopRoundTrips = 2000

// tracePool replays the first traceN bursts of protein-pool on a fresh pool,
// so that the pool's lifetime StreamStats are the replay's. Every batch
// burst is also answered one query at a time for batch.vs_seq_ratio.
func tracePool(rc runConfig, tr *tracer, own bool) (metrics, replay, error) {
	m := metrics{}
	var rp replay
	env, err := setupPool(rc)
	if err != nil {
		return nil, rp, err
	}
	defer env.close()
	mt := env.mt
	// The replay gets a pool of its own, so that its lifetime StreamStats
	// are the replay's; the warmed-up one serves the untraced bursts.
	pool := subseq.NewQueryPool(mt, poolWorkers)
	defer pool.Close()
	ops := env.in.Ops[:min(rc.def.TraceOps, len(env.in.Ops))]
	// As in traceSeq: the run's own workload is also timed untraced, burst
	// by burst on the warmed-up pool, alternating which goes first.
	untraced := func(first bool, i int, o op) error {
		if !own || first != (i%2 == 0) {
			return nil
		}
		t0 := time.Now()
		_, _, err := burstAnswers(mt, env.pool, env.in.Queries[o.Q:o.Q+o.N], o)
		rp.untracedS += time.Since(t0).Seconds()
		return err
	}

	calls0, queries0 := mt.BatchCalls(), mt.BatchQueries()
	byKind := map[opKind][]float64{}
	var batchQueries int
	var batchDist int64
	var seqMS float64
	for i, o := range ops {
		qs := env.in.Queries[o.Q : o.Q+o.N]
		if err := untraced(true, i, o); err != nil {
			return nil, rp, err
		}
		d0 := mt.FilterDistanceCalls() + mt.VerifyDistanceCalls()
		id := tr.begin("burst."+o.Kind.String(), -1, i)
		_, lats, err := burstAnswers(mt, pool, qs, o)
		d := tr.end(id)
		batchDistNow := mt.FilterDistanceCalls() + mt.VerifyDistanceCalls() - d0
		rp.attempted++
		if err != nil {
			rp.fails++
			continue
		}
		if err := untraced(false, i, o); err != nil {
			return nil, rp, err
		}
		for _, l := range lats {
			rp.latMS = append(rp.latMS, ms(l))
		}
		rp.tracedS += d.Seconds()
		byKind[o.Kind] = append(byKind[o.Kind], ms(d))
		if o.Kind == opSeqBatch {
			batchQueries += len(qs)
			batchDist += batchDistNow
			id := tr.begin("burst.sequential", -1, i)
			for _, q := range qs {
				rangeSink += len(mt.FindAll(q, o.Eps))
			}
			seqMS += ms(tr.end(id))
		}
	}
	var batchMS float64
	for _, v := range byKind[opSeqBatch] {
		batchMS += v
	}
	m.set("batch.ms_per_query", ratio(batchMS, float64(batchQueries)), batchQueries)
	m.set("batch.dist_per_query", ratio(float64(batchDist), float64(batchQueries)), batchQueries)
	m.set("batch.vs_seq_ratio", ratio(batchMS, seqMS), batchQueries)
	calls, queries := mt.BatchCalls()-calls0, mt.BatchQueries()-queries0
	m.set("batch.calls", float64(calls), 0)
	m.set("batch.queries_per_call", ratio(float64(queries), float64(calls)), int(calls))

	st := pool.StreamStats()
	m.set("stream.queue_wait_p50_ms", st.QueueWait.P50Millis, int(st.QueueWait.Count))
	m.set("stream.queue_wait_p95_ms", st.QueueWait.P95Millis, int(st.QueueWait.Count))
	m.set("stream.engine_lat_p50_ms", st.Latency.P50Millis, int(st.Latency.Count))
	m.set("stream.coalesced_per_batch", ratio(float64(st.Coalesced), float64(st.Batches)), int(st.Batches))
	m.set("stream.max_batch", float64(st.MaxBatch), 0)
	m.set("stream.barrier_ms_per_burst", mean(byKind[opBarrier]), len(byKind[opBarrier]))
	m.set("stream.submit_ms_per_burst", mean(byKind[opSubmit]), len(byKind[opSubmit]))
	m.set("stream.shed", float64(st.Shed), 0)
	m.set("stream.expired", float64(st.Expired), 0)
	m.set("stream.crashed", float64(st.Crashed), 0)

	// The scheduler's own cost: the same round trip against a matcher over
	// one two-window sequence, where the engine has next to nothing to do.
	tiny, err := poolBench.matcher(env.ds.Sequences[:1], subseq.IndexRefNet)
	if err != nil {
		return nil, rp, err
	}
	tinyPool := subseq.NewQueryPool(tiny, poolWorkers)
	defer tinyPool.Close()
	ctx := context.Background()
	q := env.in.Queries[0]
	id := tr.begin("stream.noop", -1, -1)
	for i := 0; i < noopRoundTrips; i++ {
		if _, err := tinyPool.Submit(ctx, q, 0).Await(ctx); err != nil {
			return nil, rp, err
		}
	}
	m.set("stream.noop_roundtrip_us", us(tr.end(id))/noopRoundTrips, noopRoundTrips)
	return m, rp, nil
}

// --- internal/store ---

// storeWrites is how many appends (two windows each) and retires the store
// probe times.
const storeWrites = 16

func probeStore(rc runConfig, tr *tracer) (metrics, error) {
	m := metrics{}
	ds := proteinBench.dataset()
	cfg := subseq.Config{Params: benchParams}
	st, err := subseq.NewStore(proteinBench.measure, cfg, ds.Sequences)
	if err != nil {
		return nil, err
	}
	// One reader keeps the read side busy, as a serving process would:
	// every mutation waits for the claim in flight.
	pool := st.NewQueryPool(poolWorkers)
	defer pool.Close()
	reader := []seq.Sequence[byte]{data.RandomQuery(ds, queryLen, proteinMutation, data.MutateAA, rc.seed)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				pool.FindAll(reader, 2)
			}
		}
	}()
	rng := newRNG(rc.seed, 0x5e06)
	var appendMS, retireMS []float64
	var ids []int
	windows := 0
	build0 := st.Matcher().BuildDistanceCalls()
	for i := 0; i < storeWrites; i++ {
		x := linkerSequence(rng, 40)
		id := tr.begin("store.append", -1, i)
		res, err := st.Append(x)
		appendMS = append(appendMS, ms(tr.end(id)))
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		ids = append(ids, res.SeqID)
		windows += res.Windows
	}
	buildCalls := st.Matcher().BuildDistanceCalls() - build0
	for i, sid := range ids {
		id := tr.begin("store.retire", -1, i)
		_, err := st.Retire(sid)
		retireMS = append(retireMS, ms(tr.end(id)))
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
	}
	close(stop)
	wg.Wait()
	m.set("store.append_ms", median(appendMS), len(appendMS))
	m.set("store.retire_ms", median(retireMS), len(retireMS))
	m.set("store.append_dist_per_window", ratio(float64(buildCalls), float64(windows)), windows)

	var blob bytes.Buffer
	id := tr.begin("store.snapshot", -1, -1)
	err = st.Snapshot(&blob)
	m.set("store.snapshot_ms", ms(tr.end(id)), 1)
	if err != nil {
		return nil, err
	}
	nw := st.Matcher().NumWindows()
	m.set("store.snapshot_bytes_per_window", float64(blob.Len())/float64(nw), nw)
	id = tr.begin("store.restore", -1, -1)
	restored, err := subseq.OpenStore(bytes.NewReader(blob.Bytes()), proteinBench.measure, nil)
	m.set("store.restore_ms", ms(tr.end(id)), 1)
	if err != nil {
		return nil, err
	}
	m.set("store.restore_dist", float64(restored.Matcher().BuildDistanceCalls()), 0)
	return m, nil
}
