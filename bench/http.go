package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	subseq "repro"
	"repro/internal/data"
	"repro/internal/shard"
)

// The two HTTP workloads drive real subseqctl processes through their public
// HTTP surface: serve-mixed one `serve` child, fleet-hotkeys four of them
// behind a `gateway`. Two keep-alive clients run a closed loop — each waits
// for its reply before sending its next request — because the callers these
// tiers have today are batch clients and the gateway itself.

// httpClients is the number of closed-loop clients (and connections).
const httpClients = 2

// client is one keep-alive HTTP connection to the system under test.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole reply, timing both.
func (c *client) post(path string, body []byte) (status int, reply []byte, d time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, reply, time.Since(t0), err
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: HTTP %d", c.base, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// --- request bodies ---

var opPaths = map[opKind]string{
	opFindAll: "/query/findall", opLongest: "/query/longest", opNearest: "/query/nearest",
	opFilter: "/query/filter", opBatch: "/query/batch",
	opAppend: "/admin/append", opRetire: "/admin/retire",
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain data is marshalled
	}
	return b
}

// opBody builds the request body of a read or append op (retire bodies
// depend on the run, see retireBody).
func opBody(in inputs[byte], o op) []byte {
	switch o.Kind {
	case opNearest:
		return mustJSON(map[string]any{"query": string(in.Queries[o.Q]), "eps_max": o.Eps, "eps_inc": 1})
	case opBatch:
		qs := make([]string, o.N)
		for i := range qs {
			qs[i] = string(in.Queries[o.Q+i])
		}
		return mustJSON(map[string]any{"kind": "findall", "queries": qs, "eps": o.Eps})
	case opAppend:
		return mustJSON(map[string]any{"sequence": string(in.Appends[o.Q])})
	default:
		return mustJSON(map[string]any{"query": string(in.Queries[o.Q]), "eps": o.Eps})
	}
}

func retireBody(seqID int) []byte { return []byte(`{"seq_id":` + strconv.Itoa(seqID) + `}`) }

// --- decoding replies into canonical answers ---

func fromWire(m shard.Match) subseq.Match {
	return subseq.Match{SeqID: m.SeqID, QStart: m.QStart, QEnd: m.QEnd, XStart: m.XStart, XEnd: m.XEnd, Dist: m.Dist}
}

func wireMatches(ms []shard.Match) []subseq.Match {
	if len(ms) == 0 {
		return nil
	}
	out := make([]subseq.Match, len(ms))
	for i, m := range ms {
		out[i] = fromWire(m)
	}
	return out
}

var errDegraded = errors.New("reply carries a degradation block")

// decodeAnswers turns a 200 reply into canonical answers: one for a
// single-query op, one per member for a batch. A degraded reply (the gateway
// answered without every shard) is an error — it is not the full answer.
func decodeAnswers(kind opKind, body []byte) ([]answer, error) {
	switch kind {
	case opFindAll:
		var r shard.MatchesResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Degradation != nil {
			return nil, errDegraded
		}
		if r.Count != len(r.Matches) {
			return nil, fmt.Errorf("count %d but %d matches", r.Count, len(r.Matches))
		}
		return []answer{{Kind: kind, Matches: wireMatches(r.Matches)}}, nil
	case opLongest, opNearest:
		var r shard.BestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Degradation != nil {
			return nil, errDegraded
		}
		if r.Found != (r.Match != nil) {
			return nil, fmt.Errorf("found=%v but match present=%v", r.Found, r.Match != nil)
		}
		a := answer{Kind: kind, Found: r.Found}
		if r.Found {
			a.Matches = []subseq.Match{fromWire(*r.Match)}
		}
		return []answer{a}, nil
	case opFilter:
		var r shard.HitsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Degradation != nil {
			return nil, errDegraded
		}
		hs := make([]hit, len(r.Hits))
		for i, h := range r.Hits {
			hs[i] = hit{h.SeqID, h.WindowStart, h.WindowEnd, h.SegStart, h.SegEnd}
		}
		sortHits(hs)
		return []answer{{Kind: kind, Hits: hs}}, nil
	case opBatch:
		var r shard.BatchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		if r.Degradation != nil {
			return nil, errDegraded
		}
		out := make([]answer, len(r.Matches))
		for i, ms := range r.Matches {
			out[i] = answer{Kind: opFindAll, Matches: wireMatches(ms)}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no answer to decode for %v", kind)
}

// --- expected answers, computed in process ---

// opKey identifies a distinct read op: its kind and first query. The
// generators ask a given query one question only, so the pair is unique.
type opKey struct {
	kind opKind
	q    int
}

// expectAnswers answers every distinct read op of the list on mt, an
// in-process matcher over the same database the children serve, using both
// cores.
func expectAnswers(mt *subseq.Matcher[byte], in inputs[byte]) map[opKey][]answer {
	var keys []opKey
	ops := map[opKey]op{}
	for _, o := range in.Ops {
		k := opKey{o.Kind, o.Q}
		if _, seen := ops[k]; !seen && !o.Kind.isWrite() {
			ops[k] = o
			keys = append(keys, k)
		}
	}
	answers := make([][]answer, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < httpClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += httpClients {
				o := ops[keys[i]]
				if o.Kind == opBatch {
					for _, q := range in.Queries[o.Q : o.Q+o.N] {
						answers[i] = append(answers[i], answerQuery(mt, q, opFindAll, o.Eps))
					}
				} else {
					answers[i] = []answer{answerQuery(mt, in.Queries[o.Q], o.Kind, o.Eps)}
				}
			}
		}(w)
	}
	wg.Wait()
	out := make(map[opKey][]answer, len(keys))
	for i, k := range keys {
		out[k] = answers[i]
	}
	return out
}

// assertAnswerNeutral proves with a real matcher that no query of the list
// comes within the largest radius used of any window of any appended
// sequence. Filter hits are pairwise (one segment, one window) and matches
// never span sequences, so an append set without hits cannot change any
// read's answer, whatever the interleaving of reads and writes.
func assertAnswerNeutral(in inputs[byte]) error {
	mt, err := subseq.NewMatcher(proteinBench.measure, subseq.Config{Params: benchParams, Index: subseq.IndexLinearScan}, in.Appends)
	if err != nil {
		return err
	}
	var maxEps float64
	for _, o := range in.Ops {
		maxEps = max(maxEps, o.Eps)
	}
	for i, q := range in.Queries {
		if hits := mt.FilterHits(q, maxEps); len(hits) > 0 {
			return fmt.Errorf("bench: append set is not answer-neutral: query %d hits appended sequence %d at eps %g (pick another seed or widen the noise)",
				i, hits[0].Window.SeqID, maxEps)
		}
	}
	return nil
}

// --- the system under test ---

// httpEnv is one set-up HTTP workload.
type httpEnv struct {
	fleet *fleet
	// front is the URL requests go to; serves are the serve processes whose
	// distance counters are summed.
	front  string
	serves []*child
	// startup is how long the children took from launch to healthy.
	startup time.Duration

	mu       sync.Mutex
	appended []int // live appended sequence IDs, oldest first
}

func (e *httpEnv) stop() {
	if e != nil {
		e.fleet.stop()
	}
}

func (e *httpEnv) pushAppended(id int) {
	e.mu.Lock()
	e.appended = append(e.appended, id)
	e.mu.Unlock()
}

func (e *httpEnv) popAppended() (int, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.appended) == 0 {
		return 0, false
	}
	id := e.appended[0]
	e.appended = e.appended[1:]
	return id, true
}

// serveStats is the slice of a serve process's /stats the harness reads.
type serveStats struct {
	NumWindows    int `json:"num_windows"`
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
	Stream subseq.StreamStats `json:"stream"`
	Batch  struct {
		Calls   int64 `json:"calls"`
		Queries int64 `json:"queries"`
	} `json:"batch"`
}

func fetchServeStats(url string) (serveStats, error) {
	var s serveStats
	c := newClient(url)
	defer c.close()
	err := c.getJSON("/stats", &s)
	return s, err
}

// queryDist sums filter+verify distance evaluations over the serve processes.
func (e *httpEnv) queryDist() (int64, error) {
	var sum int64
	for _, s := range e.serves {
		st, err := fetchServeStats(s.url)
		if err != nil {
			return 0, err
		}
		sum += st.DistanceCalls.Filter + st.DistanceCalls.Verify
	}
	return sum, nil
}

// appendID extracts the allocated sequence ID from an append reply (the same
// field on a serve process and on the gateway's fan-out envelope).
func appendID(reply []byte) (int, error) {
	var r struct {
		SeqID *int `json:"seq_id"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return 0, err
	}
	if r.SeqID == nil {
		return 0, errors.New("append reply has no seq_id")
	}
	return *r.SeqID, nil
}

// doWrite issues one append or retire against the front end.
func (e *httpEnv) doWrite(c *client, in inputs[byte], o op) (time.Duration, []byte, error) {
	var body []byte
	if o.Kind == opAppend {
		body = opBody(in, o)
	} else {
		id, ok := e.popAppended()
		if !ok {
			return 0, nil, errors.New("nothing left to retire")
		}
		body = retireBody(id)
	}
	status, reply, d, err := c.post(opPaths[o.Kind], body)
	if err != nil {
		return d, nil, err
	}
	if status != http.StatusOK {
		return d, reply, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(reply))
	}
	if o.Kind == opAppend {
		id, err := appendID(reply)
		if err != nil {
			return d, reply, err
		}
		e.pushAppended(id)
	}
	return d, reply, nil
}

// startServe starts the serve-mixed child: one small index, two workers.
func startServe(bin string) (*httpEnv, error) {
	t0 := time.Now()
	c, err := startChild(bin, "serve", 2, "serve", "-dataset", "proteins", "-windows", "200",
		"-workers", "2", "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &httpEnv{fleet: &fleet{children: []*child{c}}, front: c.url, serves: []*child{c}, startup: time.Since(t0)}, nil
}

// serveDataset is the database the serve-mixed child generates from its
// flags; fleetDataset the one the fleet's shards slice.
func serveDataset() data.Dataset[byte] { return data.Proteins(200, 20, 1) }
func fleetDataset() data.Dataset[byte] { return data.Proteins(2000, 20, 1) }

// The fleet's shape; shards are started, and listed in httpEnv.serves,
// range-major.
const fleetRanges, fleetReplicas = 2, 2

// startFleet starts 2 ranges × 2 replicas of serve (one worker, one core
// each) and a caching gateway in front (hedging off: timing-dependent
// duplicate reads would stop dist_per_query repeating).
func startFleet(bin string, numSeqs int) (*httpEnv, error) {
	t0 := time.Now()
	const ranges, replicas = fleetRanges, fleetReplicas
	shards := make([]*child, ranges*replicas)
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := i / replicas
			lo, hi := r*numSeqs/ranges, (r+1)*numSeqs/ranges
			name := fmt.Sprintf("shard%d%c", r, 'a'+i%replicas)
			shards[i], errs[i] = startChild(bin, name, 1, "serve", "-addr", "127.0.0.1:0", "-session",
				fmt.Sprintf("name=%s,dataset=proteins,windows=2000,seed=1,shard_lo=%d,shard_hi=%d,workers=1", name, lo, hi))
		}(i)
	}
	wg.Wait()
	f := &fleet{}
	for _, s := range shards {
		if s != nil {
			f.children = append(f.children, s)
		}
	}
	if err := errors.Join(errs...); err != nil {
		f.stop()
		return nil, err
	}
	args := []string{"gateway", "-addr", "127.0.0.1:0", "-replicas", strconv.Itoa(replicas), "-hedge-after", "0"}
	for _, s := range shards {
		args = append(args, "-shard", s.url)
	}
	gw, err := startChild(bin, "gateway", 2, args...)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.children = append(f.children, gw)
	return &httpEnv{fleet: f, front: gw.url, serves: shards, startup: time.Since(t0)}, nil
}

// prepare finishes set-up on started children: the pre-appends, then the
// first 5 % of the op list untimed (connections, lazy kernel tables, cache).
func (e *httpEnv) prepare(rc runConfig, in inputs[byte]) error {
	c := newClient(e.front)
	defer c.close()
	for i := 0; i < preAppends; i++ {
		if _, _, err := e.doWrite(c, in, op{Kind: opAppend, Q: i}); err != nil {
			return fmt.Errorf("bench: set-up append: %w", err)
		}
	}
	for i, o := range in.Ops[:warmupOps(rc.def)] {
		var err error
		if o.Kind.isWrite() {
			_, _, err = e.doWrite(c, in, o)
		} else {
			var status int
			status, _, _, err = c.post(opPaths[o.Kind], opBody(in, o))
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d", status)
			}
		}
		if err != nil {
			return fmt.Errorf("bench: warm-up op %d (%v): %w", i, o.Kind, err)
		}
	}
	return nil
}

// --- the measured window ---

// observed is one distinct reply body seen for one distinct read op.
type observed struct {
	body  []byte
	count int
}

// clientLog is what one client records during the window. Replies are only
// hashed there; each distinct (op, body) pair is decoded and compared once,
// after the window, so checking costs the clients next to nothing while the
// system is being timed.
type clientLog struct {
	readLat, writeLat []float64 // ms
	byKind            map[opKind][]float64
	queries, ops      int
	writeAcks         int // replicas that acknowledged writes (gateway replies only)
	replyBytes        int64
	status            map[int]int
	seen              map[opKey]map[uint64]*observed
	failures          []string
	failed            int
	end               time.Time
	fatal             error
}

func newClientLog() *clientLog {
	return &clientLog{byKind: map[opKind][]float64{}, status: map[int]int{}, seen: map[opKey]map[uint64]*observed{}}
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 4 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

func (l *clientLog) observe(o op, reply []byte) {
	h := fnv.New64a()
	h.Write(reply)
	k, sum := opKey{o.Kind, o.Q}, h.Sum64()
	m := l.seen[k]
	if m == nil {
		m = map[uint64]*observed{}
		l.seen[k] = m
	}
	if ob := m[sum]; ob != nil {
		ob.count++
		return
	}
	m[sum] = &observed{body: reply, count: 1}
}

// runOp issues op i and records it.
func (e *httpEnv) runOp(c *client, in inputs[byte], i int, l *clientLog) {
	o := in.Ops[i%len(in.Ops)]
	l.ops++
	if o.Kind.isWrite() {
		d, reply, err := e.doWrite(c, in, o)
		if err != nil {
			l.fail("op %d (%v): %v", i, o.Kind, err)
			e.noteTransport(err, l)
			return
		}
		l.writeAcks += fanoutAcks(reply)
		l.writeLat = append(l.writeLat, ms(d))
		l.byKind[o.Kind] = append(l.byKind[o.Kind], ms(d))
		l.status[http.StatusOK]++
		return
	}
	status, reply, d, err := c.post(opPaths[o.Kind], opBody(in, o))
	if err != nil {
		l.fail("op %d (%v): %v", i, o.Kind, err)
		e.noteTransport(err, l)
		return
	}
	l.status[status]++
	if status != http.StatusOK {
		l.fail("op %d (%v): HTTP %d: %s", i, o.Kind, status, bytes.TrimSpace(reply))
		return
	}
	l.readLat = append(l.readLat, ms(d))
	l.byKind[o.Kind] = append(l.byKind[o.Kind], ms(d))
	l.queries += o.N
	l.replyBytes += int64(len(reply))
	l.observe(o, reply)
}

// noteTransport turns a failed request into a fatal error when a child has
// died: the workload fails at once instead of grinding through refused
// connections.
func (e *httpEnv) noteTransport(err error, l *clientLog) {
	if name := e.fleet.deadChild(); name != "" {
		l.fatal = fmt.Errorf("bench: child %s died mid-run (%v)", name, err)
	}
}

// drive runs the closed loop: client c issues the ops at positions ≡ c
// (mod httpClients), in order, until the window has passed and the counted
// prefix is done.
func (e *httpEnv) drive(rc runConfig, in inputs[byte]) ([]*clientLog, time.Time, error) {
	logs := make([]*clientLog, httpClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		logs[c] = newClientLog()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, l := newClient(e.front), logs[c]
			defer cl.close()
			for i := c; i < rc.def.Prefix || time.Since(start) < rc.window; i += httpClients {
				e.runOp(cl, in, i, l)
				if l.fatal != nil {
					break
				}
			}
			l.end = time.Now()
		}(c)
	}
	wg.Wait()
	for _, l := range logs {
		if l.fatal != nil {
			return nil, start, l.fatal
		}
	}
	return logs, start, nil
}

// verify decodes each distinct reply once and compares it with the expected
// answer, returning how many ops saw a wrong one.
func verifyObserved(logs []*clientLog, expected map[opKey][]answer, res *result) {
	for _, l := range logs {
		for k, bodies := range l.seen {
			want := expected[k]
			for _, ob := range bodies {
				got, err := decodeAnswers(k.kind, ob.body)
				why := ""
				switch {
				case err != nil:
					why = err.Error()
				case len(got) != len(want):
					why = fmt.Sprintf("%d answers, want %d", len(got), len(want))
				default:
					for i := range got {
						if d := got[i].diff(want[i]); d != "" {
							why = fmt.Sprintf("answer %d: %s", i, d)
							break
						}
					}
				}
				if why != "" {
					res.Failed += ob.count - 1
					res.fail("%v of query %d, seen %d times: wrong answer: %s", k.kind, k.q, ob.count, why)
				}
			}
		}
	}
}

// httpWorkload is what differs between serve-mixed and fleet-hotkeys.
type httpWorkload struct {
	dataset func() data.Dataset[byte]
	gen     func(seed uint64, ds data.Dataset[byte], n int) inputs[byte]
	start   func(bin string, ds data.Dataset[byte]) (*httpEnv, error)
}

var serveWorkload = httpWorkload{
	dataset: serveDataset, gen: genServeMixed,
	start: func(bin string, _ data.Dataset[byte]) (*httpEnv, error) { return startServe(bin) },
}

var fleetWorkload = httpWorkload{
	dataset: fleetDataset, gen: genFleetHotkeys,
	start: func(bin string, ds data.Dataset[byte]) (*httpEnv, error) { return startFleet(bin, len(ds.Sequences)) },
}

// httpPrep is the part of an HTTP run that is the harness's own work, done
// before set-up is timed: the build, the op list, the expected answers and
// the answer-neutrality proof.
type httpPrep struct {
	bin      string
	ds       data.Dataset[byte]
	in       inputs[byte]
	expected map[opKey][]answer
}

func (w httpWorkload) prep(rc runConfig) (*httpPrep, error) {
	bin, _, err := rc.builder.binary()
	if err != nil {
		return nil, err
	}
	p := &httpPrep{bin: bin, ds: w.dataset()}
	p.in = w.gen(rc.seed, p.ds, rc.def.Ops)
	if err := assertAnswerNeutral(p.in); err != nil {
		return nil, err
	}
	mt, err := proteinBench.matcher(p.ds.Sequences, subseq.IndexRefNet)
	if err != nil {
		return nil, err
	}
	p.expected = expectAnswers(mt, p.in)
	return p, nil
}

// setup starts the children and prepares them; it is what setup_s times.
func (w httpWorkload) setup(rc runConfig, p *httpPrep) (*httpEnv, error) {
	env, err := w.start(p.bin, p.ds)
	if err != nil {
		return nil, err
	}
	if err := env.prepare(rc, p.in); err != nil {
		env.stop()
		return nil, err
	}
	return env, nil
}

// runHTTP is serve-mixed and fleet-hotkeys.
func runHTTP(w httpWorkload, rc runConfig) (*result, error) {
	res := &result{Workload: rc.def.Name, Seed: rc.seed, Metrics: metrics{}}
	p, err := w.prep(rc)
	if err != nil {
		return nil, err
	}
	env, setupS, err := repeatSetup(func() (*httpEnv, error) { return w.setup(rc, p) }, (*httpEnv).stop)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	res.Metrics.set("setup_s", setupS, setupRepeats)

	dist0, err := env.queryDist()
	if err != nil {
		return nil, err
	}
	logs, start, err := env.drive(rc, p.in)
	if err != nil {
		return nil, err
	}
	dist1, err := env.queryDist()
	if err != nil {
		return nil, err
	}
	rss, err := env.fleet.peakRSS()
	if err != nil {
		return nil, err
	}

	var readLat, writeLat []float64
	end := start
	for _, l := range logs {
		readLat = append(readLat, l.readLat...)
		writeLat = append(writeLat, l.writeLat...)
		res.Attempted += l.ops
		res.Queries += l.queries
		res.Failed += l.failed
		res.Failures = append(res.Failures, l.failures...)
		if l.end.After(end) {
			end = l.end
		}
	}
	window := end.Sub(start)
	res.WindowS = window.Seconds()
	verifyObserved(logs, p.expected, res)
	if err := latencyMetrics(res.Metrics, readLat, res.Queries, window, rc.smoke); err != nil {
		return nil, err
	}
	res.Metrics.set("write_p50_ms", median(writeLat), len(writeLat))
	res.Metrics.set("dist_per_query", ratio(float64(dist1-dist0), float64(res.Queries)), res.Queries)
	res.Metrics.set("peak_rss_mb", rss, len(env.fleet.children))
	return res, nil
}
