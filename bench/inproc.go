package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	subseq "repro"
	"repro/internal/data"
	"repro/internal/seq"
)

// The three in-process workloads: the harness is the caller and the process
// under test at once, driving the public library surface (subseq.Matcher,
// subseq.QueryPool) exactly as an embedding program would.

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, the last set-up is the one measured on.
const setupRepeats = 3

// inprocBench describes an in-process workload over element type E.
type inprocBench[E any] struct {
	dataset func() data.Dataset[E]
	measure subseq.Measure[E]
	gen     func(seed uint64, ds data.Dataset[E], n int) inputs[E]
}

var proteinBench = inprocBench[byte]{
	dataset: func() data.Dataset[byte] { return data.Proteins(500, 20, 1) },
	measure: subseq.LevenshteinFastMeasure(),
	gen:     genProteinSeq,
}

var trajBench = inprocBench[seq.Point2]{
	dataset: func() data.Dataset[seq.Point2] { return data.Trajectories(500, 20, 3) },
	measure: subseq.ERPMeasure(subseq.Point2Dist, subseq.Point2{}),
	gen:     genTrajSeq,
}

var poolBench = inprocBench[byte]{
	dataset: proteinBench.dataset,
	measure: proteinBench.measure,
	gen:     genProteinPool,
}

// benchParams are the framework parameters every workload uses (the paper's
// l = 20, so λ = 40, with λ0 = 1).
var benchParams = subseq.Params{Lambda: 40, Lambda0: 1}

// inprocEnv is one set-up in-process workload.
type inprocEnv[E any] struct {
	ds data.Dataset[E]
	mt *subseq.Matcher[E]
	in inputs[E]
}

func (b inprocBench[E]) matcher(db []seq.Sequence[E], index subseq.IndexKind) (*subseq.Matcher[E], error) {
	return subseq.NewMatcher(b.measure, subseq.Config{Params: benchParams, Index: index}, db)
}

// setup generates the data and the op list, builds the refnet matcher and
// runs the first 5 % of the op list untimed (lazy prepared-kernel tables,
// scratch pools).
func (b inprocBench[E]) setup(rc runConfig, warm func(env *inprocEnv[E], o op)) (*inprocEnv[E], error) {
	ds := b.dataset()
	mt, err := b.matcher(ds.Sequences, subseq.IndexRefNet)
	if err != nil {
		return nil, err
	}
	env := &inprocEnv[E]{ds: ds, mt: mt, in: b.gen(rc.seed, ds, rc.def.Ops)}
	for _, o := range env.in.Ops[:warmupOps(rc.def)] {
		warm(env, o)
	}
	return env, nil
}

func warmupOps(def workloadDef) int { return max(def.Ops/20, 1) }

// repeatSetup sets the workload up setupRepeats times, returning the last
// environment and the median set-up time. Earlier environments are dropped
// and collected so that they do not count against the next one.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var env T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
			var zero T
			env = zero
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

// finishInproc fills in what every in-process run ends with, before the
// oracle check allocates anything: the harness's own peak RSS, the window,
// the latency metrics, dist_per_query (distCalls over distQueries queries)
// and the digest.
func (res *result) finishInproc(rc runConfig, latMS []float64, ops, queries int, window time.Duration,
	distCalls int64, distQueries int, dig *digester) error {
	rss, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return err
	}
	res.WindowS, res.Attempted, res.Queries = window.Seconds(), ops, queries
	res.AnswersDigest = dig.sum()
	res.Metrics.set("dist_per_query", ratio(float64(distCalls), float64(distQueries)), distQueries)
	res.Metrics.set("peak_rss_mb", rss, 1)
	return latencyMetrics(res.Metrics, latMS, queries, window, rc.smoke)
}

// runSeq is protein-seq and traj-erp-seq: one goroutine, one call at a time.
func runSeq[E any](b inprocBench[E], rc runConfig) (*result, error) {
	res := &result{Workload: rc.def.Name, Seed: rc.seed, Metrics: metrics{}}
	env, setupS, err := repeatSetup(func() (*inprocEnv[E], error) {
		return b.setup(rc, func(env *inprocEnv[E], o op) { answerQuery(env.mt, env.in.Queries[o.Q], o.Kind, o.Eps) })
	}, func(*inprocEnv[E]) {})
	if err != nil {
		return nil, err
	}
	res.Metrics.set("setup_s", setupS, setupRepeats)

	mt, ops := env.mt, env.in.Ops
	dig := newDigester()
	var lat []float64
	var checked []answer // every oracleEvery-th answer of the prefix
	var prefixDist int64
	dist0 := mt.FilterDistanceCalls() + mt.VerifyDistanceCalls()
	start := time.Now()
	n := 0
	for ; n < rc.def.Prefix || time.Since(start) < rc.window; n++ {
		o := ops[n%len(ops)]
		t0 := time.Now()
		a := answerQuery(mt, env.in.Queries[o.Q], o.Kind, o.Eps)
		lat = append(lat, ms(time.Since(t0)))
		if n < rc.def.Prefix {
			dig.add(a)
			if n%oracleEvery == 0 {
				checked = append(checked, a)
			}
			if n == rc.def.Prefix-1 {
				prefixDist = mt.FilterDistanceCalls() + mt.VerifyDistanceCalls() - dist0
			}
		}
	}
	window := time.Since(start)
	if err := res.finishInproc(rc, lat, n, n, window, prefixDist, rc.def.Prefix, dig); err != nil {
		return nil, err
	}

	oracle, err := b.matcher(env.ds.Sequences, subseq.IndexLinearScan)
	if err != nil {
		return nil, err
	}
	for i, got := range checked {
		o := ops[i*oracleEvery]
		want := answerQuery(oracle, env.in.Queries[o.Q], o.Kind, o.Eps)
		if d := got.diff(want); d != "" {
			res.fail("op %d (%v eps=%g): refnet vs linear scan: %s", i*oracleEvery, o.Kind, o.Eps, d)
		}
	}
	return res, nil
}

// burstAnswers answers one protein-pool burst, returning each query's
// answer and its latency from the burst's start.
func burstAnswers(mt *subseq.Matcher[byte], pool *subseq.QueryPool[byte], qs []seq.Sequence[byte], o op) ([][]subseq.Match, []time.Duration, error) {
	lat := make([]time.Duration, len(qs))
	t0 := time.Now()
	var out [][]subseq.Match
	switch o.Kind {
	case opBarrier:
		out = pool.FindAll(qs, o.Eps)
	case opSeqBatch:
		out = mt.FindAllBatch(qs, o.Eps)
	case opSubmit:
		ctx := context.Background()
		futures := make([]*subseq.Future[[]subseq.Match], len(qs))
		for i, q := range qs {
			futures[i] = pool.Submit(ctx, q, submitEps(o, i))
		}
		out = make([][]subseq.Match, len(qs))
		for i, f := range futures {
			matches, err := f.Await(ctx)
			if err != nil {
				return nil, nil, err
			}
			out[i] = matches
			lat[i] = time.Since(t0)
		}
		return out, lat, nil
	default:
		panic(fmt.Sprintf("bench: %v is not a burst op", o.Kind))
	}
	d := time.Since(t0)
	for i := range lat {
		lat[i] = d
	}
	return out, lat, nil
}

// submitEps is the radius of member i of a Submit burst.
func submitEps(o op, i int) float64 {
	if o.Eps2 != 0 && i%2 == 1 {
		return o.Eps2
	}
	return o.Eps
}

// poolWorkers is the protein-pool worker count (the sandbox has 2 cores).
const poolWorkers = 2

type poolEnv struct {
	*inprocEnv[byte]
	pool *subseq.QueryPool[byte]
}

func setupPool(rc runConfig) (*poolEnv, error) {
	pe := &poolEnv{}
	var err error
	pe.inprocEnv, err = poolBench.setup(rc, func(env *inprocEnv[byte], o op) {
		if pe.pool == nil {
			pe.pool = subseq.NewQueryPool(env.mt, poolWorkers)
		}
		burstAnswers(env.mt, pe.pool, env.in.Queries[o.Q:o.Q+o.N], o)
	})
	return pe, err
}

func (pe *poolEnv) close() {
	if pe != nil && pe.pool != nil {
		pe.pool.Close()
	}
}

// runPool is protein-pool: bursts of 16 through the three call styles.
func runPool(rc runConfig) (*result, error) {
	res := &result{Workload: rc.def.Name, Seed: rc.seed, Metrics: metrics{}}
	env, setupS, err := repeatSetup(func() (*poolEnv, error) { return setupPool(rc) }, (*poolEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.Metrics.set("setup_s", setupS, setupRepeats)

	mt, ops := env.mt, env.in.Ops
	dig := newDigester()
	var lat []float64
	type checkedQuery struct {
		q   seq.Sequence[byte]
		eps float64
		got answer
	}
	var checked []checkedQuery
	queries := 0
	dist0 := mt.FilterDistanceCalls() + mt.VerifyDistanceCalls()
	start := time.Now()
	n := 0
	for ; n < rc.def.Prefix || time.Since(start) < rc.window; n++ {
		o := ops[n%len(ops)]
		qs := env.in.Queries[o.Q : o.Q+o.N]
		out, lats, err := burstAnswers(mt, env.pool, qs, o)
		if err != nil {
			res.fail("burst %d (%v): %v", n, o.Kind, err)
			continue
		}
		for _, d := range lats {
			lat = append(lat, ms(d))
		}
		queries += len(qs)
		if n < rc.def.Prefix {
			for i, matches := range out {
				a := answer{Kind: opFindAll, Matches: matches}
				dig.add(a)
				if (n*burstSize+i)%oracleEvery == 0 {
					eps := o.Eps
					if o.Kind == opSubmit {
						eps = submitEps(o, i)
					}
					checked = append(checked, checkedQuery{qs[i], eps, a})
				}
			}
		}
	}
	window := time.Since(start)
	distCalls := mt.FilterDistanceCalls() + mt.VerifyDistanceCalls() - dist0
	if err := res.finishInproc(rc, lat, n, queries, window, distCalls, queries, dig); err != nil {
		return nil, err
	}

	oracle, err := poolBench.matcher(env.ds.Sequences, subseq.IndexLinearScan)
	if err != nil {
		return nil, err
	}
	for i, c := range checked {
		want := answerQuery(oracle, c.q, opFindAll, c.eps)
		if d := c.got.diff(want); d != "" {
			res.fail("checked query %d (eps=%g): pool vs linear scan: %s", i, c.eps, d)
		}
	}
	return res, nil
}
