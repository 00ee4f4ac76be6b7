package main

import (
	"bytes"
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
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/registry"
)

// subseqctl serve: the long-lived serving path. A session (dataset ×
// measure × backend, resolved by the registry exactly as the query
// subcommand resolves it) is built once at startup — or restored from a
// snapshot in seconds with -restore — and wrapped in a live store
// (internal/store); every request is then streamed through a QueryPool's
// Submit API, whose workers answer one request at a time each, so a slow
// client cannot queue unbounded work (the pool's in-flight budget is the
// backpressure). The admin surface mutates the store while queries run:
// POST /admin/append, /admin/retire and /admin/snapshot, with running
// queries draining before each mutation. docs/SERVING.md covers the query
// API; docs/PERSISTENCE.md covers the lifecycle and snapshot format.

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	spec := commonFlags(fs)
	addr := fs.String("addr", registry.DefaultServeAddr, "TCP listen address (host:port; :0 picks a free port)")
	workers := fs.Int("workers", 0, "streaming worker goroutines; 0 selects GOMAXPROCS")
	queue := fs.Int("queue", 0, "bounded in-flight submissions (backpressure); 0 selects the default")
	restore := fs.String("restore", "", "restore the index from this snapshot file instead of building it (the snapshot must match the session flags)")
	snapOnTerm := fs.String("snapshot-on-sigterm", "", "write a snapshot to this file during graceful shutdown, after in-flight queries drain")
	shed := fs.String("shed", "", "load-shedding policy when the queue is full: block (default), reject or fair")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline; expired queries are dropped before a worker prices them (0: none)")
	snapInterval := fs.Duration("snapshot-interval", 0, "write a background snapshot to -snapshot-path this often (0: disabled)")
	snapPath := fs.String("snapshot-path", "", "target file for -snapshot-interval snapshots (written atomically)")
	config := fs.String("config", "", "JSON file holding a list of server specs, one named session each (multi-session mode; see docs/SHARDING.md)")
	var sessions stringList
	fs.Var(&sessions, "session", "add a named session from comma-separated key=value pairs, e.g. name=p0,dataset=proteins,windows=200,shard_lo=0,shard_hi=3 (repeatable; see docs/SHARDING.md)")
	fs.Parse(args)
	legacy := registry.ServerSpec{
		SessionSpec: *spec, Restore: *restore,
		Addr: *addr, Workers: *workers, QueueDepth: *queue,
		Shed: *shed, RequestTimeout: *reqTimeout,
		SnapshotInterval: *snapInterval, SnapshotPath: *snapPath,
	}
	specs, err := serveSpecs(*config, sessions, legacy)
	if err != nil {
		fail(err)
	}
	if err := registry.ValidateServerSpecs(specs); err != nil {
		fail(err)
	}
	if *snapOnTerm != "" && len(specs) > 1 {
		fail(errors.New("-snapshot-on-sigterm applies to a single session; give multi-session processes per-session snapshot_path entries"))
	}
	// In multi-session mode the process still has exactly one listener: an
	// explicit -addr flag wins, else the one address the spec list names.
	listenAddr := *addr
	if (*config != "" || len(sessions) > 0) && !flagWasSet(fs, "addr") {
		listenAddr = registry.ListenAddr(specs)
	}
	type running struct {
		name string
		s    session
		qs   queryServer
	}
	servers := make([]running, 0, len(specs))
	defer func() {
		for _, rs := range servers {
			rs.qs.close()
		}
	}()
	for _, sp := range specs {
		s, err := newSession(sp.SessionSpec)
		if err != nil {
			fail(fmt.Errorf("session %q: %w", sp.MountName(), err))
		}
		qs, err := s.newServer(sp, sp.Restore)
		if err != nil {
			fail(fmt.Errorf("session %q: %w", sp.MountName(), err))
		}
		servers = append(servers, running{name: sp.MountName(), s: s, qs: qs})
	}
	mounts := make([]mountedSession, len(servers))
	for i, rs := range servers {
		mounts[i] = mountedSession{name: rs.name, qs: rs.qs}
	}
	root := multiSessionMux(mounts)
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fail(err)
	}
	// The bound address is printed and echoed on /stats (not the requested
	// one) so scripts may listen on :0 and scrape the port.
	for _, rs := range servers {
		rs.qs.setAddr(ln.Addr().String())
	}
	for _, rs := range servers {
		if rs.qs.wasRestored() {
			fmt.Printf("subseqctl: session %q restored %d windows without re-indexing\n", rs.name, rs.qs.numWindows())
		}
		if len(servers) > 1 {
			fmt.Printf("subseqctl: session %q (%s) at /s/%s/\n", rs.name, rs.s.describe(), rs.name)
		}
	}
	fmt.Printf("subseqctl: serving %s on http://%s\n", servers[0].s.describe(), ln.Addr())
	hs := &http.Server{Handler: root}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		// Graceful shutdown: stop accepting, give in-flight requests a
		// grace period, then drain the streaming engine.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	<-done
	if *snapOnTerm != "" {
		// Requests have drained; the store is quiescent. Snapshot it so the
		// next start can -restore instead of re-indexing.
		if err := servers[0].qs.snapshot(*snapOnTerm); err != nil {
			fail(err)
		}
		fmt.Printf("subseqctl: snapshot written to %s\n", *snapOnTerm)
	}
	fmt.Println("subseqctl: shut down")
}

// sessionListing is one entry of GET /sessions: how a multi-session
// process advertises what it hosts (the gateway's discovery surface).
type sessionListing struct {
	Name   string                `json:"name"`
	Path   string                `json:"path"`
	Config registry.ServerConfig `json:"config"`
}

// mountedSession pairs a session's mount name with its serving stack.
type mountedSession struct {
	name string
	qs   queryServer
}

// multiSessionMux is the multi-tenant routing surface: every session
// mounts under /s/{name}/, the first session also answers the legacy
// root routes (so single-session invocations and the shard fleet behind
// a gateway keep working unchanged), and GET /sessions lists what the
// process hosts.
func multiSessionMux(servers []mountedSession) *http.ServeMux {
	root := http.NewServeMux()
	for _, rs := range servers {
		root.Handle("/s/"+rs.name+"/", http.StripPrefix("/s/"+rs.name, rs.qs.handler()))
	}
	root.Handle("/", servers[0].qs.handler())
	root.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		out := make([]sessionListing, len(servers))
		for i, rs := range servers {
			out[i] = sessionListing{Name: rs.name, Path: "/s/" + rs.name + "/", Config: rs.qs.config()}
		}
		writeJSON(w, http.StatusOK, out)
	})
	return root
}

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// serveSpecs assembles the process's session list: a JSON -config file, a
// repeated -session flag, or (neither given) the legacy single session the
// plain serve flags describe. The process-level engine flags (-workers,
// -queue, -shed, …) apply to the legacy session only; config/-session
// entries carry their own knobs, whose zero values resolve to the same
// defaults.
func serveSpecs(configPath string, sessions stringList, legacy registry.ServerSpec) ([]registry.ServerSpec, error) {
	if configPath != "" && len(sessions) > 0 {
		return nil, errors.New("-config and -session are mutually exclusive")
	}
	if configPath != "" {
		b, err := os.ReadFile(configPath)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var specs []registry.ServerSpec
		if err := dec.Decode(&specs); err != nil {
			return nil, fmt.Errorf("config %s: %w", configPath, err)
		}
		return specs, nil
	}
	if len(sessions) > 0 {
		specs := make([]registry.ServerSpec, len(sessions))
		for i, s := range sessions {
			spec, err := parseSessionFlag(s)
			if err != nil {
				return nil, fmt.Errorf("-session %q: %w", s, err)
			}
			specs[i] = spec
		}
		return specs, nil
	}
	return []registry.ServerSpec{legacy}, nil
}

// parseSessionFlag parses one -session value: comma-separated key=value
// pairs naming the session and its spec.
func parseSessionFlag(s string) (registry.ServerSpec, error) {
	var spec registry.ServerSpec
	for _, kv := range strings.Split(s, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("%q is not key=value", kv)
		}
		var err error
		switch k {
		case "name":
			spec.Name = v
		case "dataset":
			spec.Dataset = v
		case "measure":
			spec.Measure = v
		case "backend":
			spec.Backend = v
		case "windows":
			spec.Windows, err = strconv.Atoi(v)
		case "windowlen", "window_len":
			spec.WindowLen, err = strconv.Atoi(v)
		case "lambda0":
			spec.Lambda0, err = strconv.Atoi(v)
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "shard_lo":
			spec.ShardLo, err = strconv.Atoi(v)
		case "shard_hi":
			spec.ShardHi, err = strconv.Atoi(v)
		case "restore":
			spec.Restore = v
		case "workers":
			spec.Workers, err = strconv.Atoi(v)
		case "queue", "queue_depth":
			spec.QueueDepth, err = strconv.Atoi(v)
		case "shed":
			spec.Shed = v
		case "request_timeout":
			spec.RequestTimeout, err = time.ParseDuration(v)
		case "snapshot_interval":
			spec.SnapshotInterval, err = time.ParseDuration(v)
		case "snapshot_path":
			spec.SnapshotPath = v
		case "addr":
			spec.Addr = v
		default:
			return spec, fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("key %q: %w", k, err)
		}
	}
	if spec.Dataset == "" {
		return spec, errors.New(`missing "dataset"`)
	}
	if spec.Windows == 0 {
		spec.Windows = 2000
	}
	return spec, nil
}

// queryServer is the untyped face of a typedServer, mirroring how session
// hides typedSession's element type from the subcommands.
type queryServer interface {
	handler() http.Handler
	config() registry.ServerConfig
	// setAddr records the address the listener actually bound (it differs
	// from the requested one under -addr :0), so /stats echoes a usable
	// address. Call before serving requests.
	setAddr(addr string)
	numWindows() int
	// wasRestored reports whether the store actually restored from the
	// -restore snapshot (false when a corrupt snapshot was quarantined
	// and the index rebuilt instead).
	wasRestored() bool
	// snapshot writes the store to path atomically (temp file + rename).
	snapshot(path string) error
	close()
}

// typedServer owns the long-lived serving state: the live store, the
// streaming pool resolving it through the store's view guard, and the
// resolved configuration it echoes on /stats.
type typedServer[E any] struct {
	sess     *typedSession[E]
	cfg      registry.ServerConfig
	st       *store.Store[E]
	pool     *core.QueryPool[E]
	mux      *http.ServeMux
	start    time.Time
	restored bool
	// seqBase re-bases wire-level sequence IDs when this process serves
	// one shard of a logical index (spec.ShardLo): the store numbers its
	// local slice from 0, the wire reports global IDs, so a gateway can
	// merge shard answers without remapping (see internal/shard).
	seqBase int
	// reqTimeout bounds each query request end to end (0: none); sched is
	// the background snapshot loop (nil unless -snapshot-interval is set).
	reqTimeout time.Duration
	sched      *store.Scheduler
	// sweepStop ends the TTL sweeper goroutine at close.
	sweepStop chan struct{}
	closeOnce sync.Once
}

// ttlSweepInterval is how often the serving store retires TTL-expired
// sequences.
const ttlSweepInterval = 30 * time.Second

func (s *typedSession[E]) newServer(spec registry.ServerSpec, restore string) (queryServer, error) {
	cfg, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	shed, err := core.ParseShedPolicy(cfg.Shed)
	if err != nil {
		return nil, err
	}
	var st *store.Store[E]
	restored := false
	if restore != "" {
		// Restore path: decode the snapshot instead of indexing the
		// generated dataset. The snapshot header is validated against the
		// session spec first — a snapshot taken under different flags is
		// refused with the disagreement explained. A snapshot whose bytes
		// are corrupt (as opposed to mismatched) is quarantined and the
		// index rebuilt, so one bad file never wedges a restart loop.
		// Flags that name no backend restore under the snapshot's, which
		// the config and the startup line then report.
		st, err = registry.OpenStoreFile[E](restore, spec.SessionSpec)
		var corrupt *store.CorruptError
		switch {
		case err == nil:
			restored = true
			cfg.Backend, err = registry.Backend(st.Matcher().Index().String())
			s.sess.Backend = cfg.Backend
		case errors.As(err, &corrupt):
			qpath, qerr := store.Quarantine(restore)
			if qerr != nil {
				return nil, fmt.Errorf("snapshot %s is corrupt (%v) and could not be quarantined: %w", restore, corrupt, qerr)
			}
			fmt.Fprintf(os.Stderr, "subseqctl: snapshot %s is corrupt (%v); quarantined to %s, rebuilding the index\n",
				restore, corrupt, qpath)
			st, err = s.store()
		}
	} else {
		st, err = s.store()
	}
	if err != nil {
		return nil, err
	}
	srv := &typedServer[E]{
		sess: s, cfg: cfg, st: st,
		pool:       st.NewQueryPool(cfg.Workers, core.WithQueueDepth(cfg.QueueDepth), core.WithShedPolicy(shed)),
		start:      time.Now(),
		restored:   restored,
		seqBase:    cfg.ShardLo,
		reqTimeout: spec.RequestTimeout,
		sweepStop:  make(chan struct{}),
	}
	if spec.SnapshotInterval > 0 {
		srv.sched, err = st.ScheduleSnapshots(spec.SnapshotPath, spec.SnapshotInterval,
			store.WithSnapshotOnError(func(err error) {
				fmt.Fprintf(os.Stderr, "subseqctl: background snapshot: %v\n", err)
			}))
		if err != nil {
			return nil, err
		}
	}
	go func() {
		t := time.NewTicker(ttlSweepInterval)
		defer t.Stop()
		for {
			select {
			case <-srv.sweepStop:
				return
			case <-t.C:
				srv.st.Sweep()
			}
		}
	}()
	mux := http.NewServeMux()
	kinds := servedKinds[E]()
	for _, k := range kinds {
		mux.HandleFunc("POST /query/"+k.Name, srv.handleQuery(k))
	}
	mux.HandleFunc("POST /query/batch", srv.handleBatch(kinds))
	mux.HandleFunc("POST /admin/append", srv.handleAppend)
	mux.HandleFunc("POST /admin/retire", srv.handleRetire)
	mux.HandleFunc("POST /admin/snapshot", srv.handleSnapshot)
	mux.HandleFunc("GET /stats", srv.handleStats)
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	srv.mux = mux
	return srv, nil
}

func (srv *typedServer[E]) handler() http.Handler         { return srv.mux }
func (srv *typedServer[E]) config() registry.ServerConfig { return srv.cfg }
func (srv *typedServer[E]) setAddr(addr string)           { srv.cfg.Addr = addr }
func (srv *typedServer[E]) numWindows() int               { return srv.st.Matcher().NumWindows() }
func (srv *typedServer[E]) wasRestored() bool             { return srv.restored }
func (srv *typedServer[E]) snapshot(path string) error    { return srv.st.SnapshotFile(path) }
func (srv *typedServer[E]) close() {
	srv.closeOnce.Do(func() {
		close(srv.sweepStop)
		if srv.sched != nil {
			srv.sched.Stop()
		}
		srv.pool.Close()
	})
}

// --- Wire formats (documented in docs/SERVING.md) ---

// queryRequest is the body of every /query/* POST. Query's encoding
// depends on the dataset's element type: a JSON string for byte datasets,
// an array of numbers for float64, an array of [x, y] pairs for point2.
// The parameters are the kind table's (shard.Params).
type queryRequest struct {
	Query json.RawMessage `json:"query"`
	shard.Params
}

// The wire envelopes are the shard package's (shard.Match, shard.Hit,
// shard.MatchesResponse, …): a single node and the gateway speak one
// protocol, so there is one set of types for it.

// matches puts store-local matches on the wire, re-basing the sequence IDs
// into the global numbering when this process is a shard. The result is
// never nil: no match encodes as [], not null.
func (srv *typedServer[E]) matches(ms []core.Match) []shard.Match {
	out := make([]shard.Match, len(ms))
	for i, m := range ms {
		m.SeqID += srv.seqBase
		out[i] = m
	}
	return out
}

// best puts a longest or nearest answer on the wire, re-based like matches.
func (srv *typedServer[E]) best(m core.Match, found bool) shard.BestResult {
	if !found {
		return shard.BestResult{}
	}
	m.SeqID += srv.seqBase
	return shard.BestResult{Found: true, Match: &m}
}

// hits puts store-local filter hits on the wire, re-based like matches and
// in the canonical hit order (shard.SortHits): the matcher emits hits in
// its backend's traversal order, the wire does not, so a single node's
// /query/filter is the gateway's byte for byte.
func (srv *typedServer[E]) hits(hs []core.Hit[E]) []shard.Hit {
	out := make([]shard.Hit, len(hs))
	for i, h := range hs {
		out[i] = shard.Hit{
			SeqID: h.Window.SeqID + srv.seqBase, WindowStart: h.Window.Start, WindowEnd: h.Window.End(),
			SegStart: h.Segment.Start, SegEnd: h.Segment.End(),
		}
	}
	shard.SortHits(out)
	return out
}

type statsResponse struct {
	Config        registry.ServerConfig `json:"config"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	NumWindows    int                   `json:"num_windows"`
	// DistanceCalls surfaces the matcher's distance-call totals, the paper's
	// hardware-independent cost accounting, live: filter and verify add up
	// each finished query's own record, build counts the index's distance,
	// which only construction and mutation call.
	DistanceCalls struct {
		Build  int64 `json:"build"`
		Filter int64 `json:"filter"`
		Verify int64 `json:"verify"`
	} `json:"distance_calls"`
	Stream core.StreamStats `json:"stream"`
	// Batch tallies the /query/batch endpoint: how many batch requests
	// the matcher answered and how many queries they carried.
	Batch struct {
		Calls   int64 `json:"calls"`
		Queries int64 `json:"queries"`
	} `json:"batch"`
	// Snapshots is the background snapshot scheduler's health; absent
	// unless -snapshot-interval is set.
	Snapshots *store.SchedulerStats `json:"snapshots,omitempty"`
	// Store is the live-store census: allocated sequence IDs, live
	// (non-retired) sequences, pending TTLs, and whether this process
	// restored from a snapshot instead of indexing.
	Store struct {
		Sequences int  `json:"sequences"`
		Live      int  `json:"live"`
		TTLs      int  `json:"ttls"`
		Restored  bool `json:"restored"`
	} `json:"store"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, shard.ErrorResponse{Error: err.Error()})
}

// maxRequestBytes caps a /query/* request body. The streaming engine's
// queue depth bounds in-flight queries; this bounds what any single
// request may allocate before it even becomes one.
const maxRequestBytes = 8 << 20

// decodeQuery parses the request body and its element-typed query payload.
func (srv *typedServer[E]) decodeQuery(w http.ResponseWriter, r *http.Request) (queryRequest, seq.Sequence[E], error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		return queryRequest{}, nil, fmt.Errorf("reading request body: %w", err)
	}
	return parseQueryRequest[E](body)
}

// parseQueryRequest is decodeQuery without the HTTP plumbing: the whole
// untrusted-input surface of a /query/* request in one pure function, so
// it can be fuzzed directly (FuzzParseQueryRequest). It must never panic;
// any malformed body must come back as an error.
func parseQueryRequest[E any](body []byte) (queryRequest, seq.Sequence[E], error) {
	var req queryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("invalid request body: %w", err)
	}
	if len(req.Query) == 0 {
		return req, nil, errors.New(`missing "query"`)
	}
	q, err := decodeSeq[E](req.Query)
	if err != nil {
		return req, nil, err
	}
	return req, q, nil
}

// decodeSeq decodes a query sequence from its element-typed JSON encoding:
// a string for byte, an array of numbers for float64, an array of [x, y]
// pairs for point2 — matching how the dataset families are described in
// `subseqctl list`.
func decodeSeq[E any](raw json.RawMessage) (seq.Sequence[E], error) {
	// json.Unmarshal treats null as a no-op for every target type here, so
	// without this guard a null query would decode into a nil sequence
	// with no error (found by FuzzParseQueryRequest).
	if string(raw) == "null" {
		return nil, errors.New(`"query" must not be null`)
	}
	switch any((*E)(nil)).(type) {
	case *byte:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf(`"query" must be a JSON string for byte datasets: %w`, err)
		}
		return any(seq.Sequence[byte](s)).(seq.Sequence[E]), nil
	case *float64:
		var v []float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf(`"query" must be a JSON array of numbers for float64 datasets: %w`, err)
		}
		return any(seq.Sequence[float64](v)).(seq.Sequence[E]), nil
	case *seq.Point2:
		var v [][2]float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf(`"query" must be a JSON array of [x, y] pairs for point2 datasets: %w`, err)
		}
		pts := make(seq.Sequence[seq.Point2], len(v))
		for i, p := range v {
			pts[i] = seq.Point2{X: p[0], Y: p[1]}
		}
		return any(pts).(seq.Sequence[E]), nil
	default:
		return nil, fmt.Errorf("unsupported element type %T", *new(E))
	}
}

// submitErrStatus maps a streaming-submission error to an HTTP status,
// the contract documented in docs/SERVING.md ("Operating under load"):
// shed queries are 429 Too Many Requests, deadline-expired queries 504
// Gateway Timeout, client-abandoned contexts 499 (the de-facto "client
// closed request"), a closed pool 503 Service Unavailable, and a crashed
// worker 500.
func submitErrStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, core.ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeSubmitErr maps err through submitErrStatus; retryable statuses
// (429, 503) carry a Retry-After so well-behaved clients back off instead
// of hammering a saturated queue.
func writeSubmitErr(w http.ResponseWriter, err error) {
	status := submitErrStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, status, err)
}

// submitOpts assembles the per-request admission metadata: the request
// context (bounded by -request-timeout when set), a matching submission
// deadline so expired queries are dropped before a worker prices them,
// and the tenant attribution from the X-Tenant header (for the fair-share
// shed policy). The cancel func must be deferred by the caller.
func (srv *typedServer[E]) submitOpts(r *http.Request) (context.Context, context.CancelFunc, []core.SubmitOption) {
	ctx := r.Context()
	cancel := func() {}
	var opts []core.SubmitOption
	if srv.reqTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, srv.reqTimeout)
		opts = append(opts, core.WithSubmitTimeout(srv.reqTimeout))
	}
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		opts = append(opts, core.WithTenant(tenant))
	}
	return ctx, cancel, opts
}

// servedKind is a kind-table entry (shard.Kinds) with the half only a
// serve process has: how the kind is answered on an element-typed matcher.
type servedKind[E any] struct {
	shard.Kind
	// one streams a single query through the pool — admission, deadline,
	// tenant — and returns its response envelope.
	one func(srv *typedServer[E], ctx context.Context, q seq.Sequence[E], a shard.Args, opts []core.SubmitOption) (any, error)
	// batch answers qs on one pinned matcher with the kind's *Batch method and
	// fills the kind's column of resp; nil when the kind has no batch form.
	batch func(srv *typedServer[E], mt *core.Matcher[E], qs []seq.Sequence[E], eps float64, resp *shard.BatchResponse)
}

// servedKinds is the serve side of the kind table: per kind, the Submit*
// call, the *Batch method and the encoders (matches, best, hits) that both
// share.
func servedKinds[E any]() []servedKind[E] {
	type (
		server  = *typedServer[E]
		query   = seq.Sequence[E]
		options = []core.SubmitOption
	)
	bestOne := func(srv server, res core.QueryResult, err error) (any, error) {
		return shard.BestResponse{BestResult: srv.best(res.Match, res.Found)}, err
	}
	return []servedKind[E]{{
		Kind: shard.FindAll,
		one: func(srv server, ctx context.Context, q query, a shard.Args, o options) (any, error) {
			ms, err := core.SubmitFunc(srv.pool, ctx, func(mt *core.Matcher[E]) []core.Match {
				if a.Seqs != nil {
					return mt.FindAllIn(q, a.Eps, a.Seqs)
				}
				return mt.FindAll(q, a.Eps)
			}, o...).Await(ctx)
			return shard.MatchesResponse{Count: len(ms), Matches: srv.matches(ms)}, err
		},
		batch: func(srv server, mt *core.Matcher[E], qs []query, eps float64, resp *shard.BatchResponse) {
			for _, ms := range mt.FindAllBatch(qs, eps) {
				resp.Matches = append(resp.Matches, srv.matches(ms))
			}
		},
	}, {
		Kind: shard.Longest,
		one: func(srv server, ctx context.Context, q query, a shard.Args, o options) (any, error) {
			res, err := core.SubmitFunc(srv.pool, ctx, func(mt *core.Matcher[E]) (r core.QueryResult) {
				if a.Seqs != nil {
					r.Match, r.Found = mt.LongestIn(q, a.Eps, a.Seqs)
				} else {
					r.Match, r.Found = mt.Longest(q, a.Eps)
				}
				return r
			}, o...).Await(ctx)
			return bestOne(srv, res, err)
		},
		batch: func(srv server, mt *core.Matcher[E], qs []query, eps float64, resp *shard.BatchResponse) {
			ms, found := mt.LongestBatch(qs, eps)
			for i := range ms {
				resp.Best = append(resp.Best, srv.best(ms[i], found[i]))
			}
		},
	}, {
		Kind: shard.Nearest,
		one: func(srv server, ctx context.Context, q query, a shard.Args, o options) (any, error) {
			res, err := srv.pool.SubmitNearest(ctx, q, a.Nearest, o...).Await(ctx)
			return bestOne(srv, res, err)
		},
	}, {
		Kind: shard.Filter,
		one: func(srv server, ctx context.Context, q query, a shard.Args, o options) (any, error) {
			hs, err := core.SubmitFunc(srv.pool, ctx, func(mt *core.Matcher[E]) []core.Hit[E] {
				if a.Seqs != nil {
					return mt.FilterHitsIn(q, a.Eps, a.Seqs)
				}
				return mt.FilterHits(q, a.Eps)
			}, o...).Await(ctx)
			return shard.HitsResponse{Count: len(hs), Hits: srv.hits(hs)}, err
		},
		batch: func(srv server, mt *core.Matcher[E], qs []query, eps float64, resp *shard.BatchResponse) {
			for _, hs := range mt.FilterHitsBatch(qs, eps) {
				resp.Hits = append(resp.Hits, srv.hits(hs))
			}
		},
	}}
}

// handleQuery serves one kind's single-query route from its table entry:
// decode, check the kind's parameters, stream the query through the pool,
// encode.
func (srv *typedServer[E]) handleQuery(k servedKind[E]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, q, err := srv.decodeQuery(w, r)
		var args shard.Args
		if err == nil {
			args, err = k.Check(req.Params)
		}
		if err == nil && args.Seqs != nil {
			args.Seqs, err = srv.localSeqs(args.Seqs)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel, sopts := srv.submitOpts(r)
		defer cancel()
		resp, err := k.one(srv, ctx, q, args, sopts)
		if err != nil {
			writeSubmitErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// localSeqs maps a scope's global sequence IDs to the store's, refusing an
// ID outside this shard's range: below its first ID or past the last one it
// has allocated. A retired ID stays in range and contributes nothing.
func (srv *typedServer[E]) localSeqs(ids []int) ([]int, error) {
	n := srv.st.IDs()
	local := make([]int, len(ids))
	for i, id := range ids {
		if local[i] = id - srv.seqBase; local[i] < 0 || local[i] >= n {
			return nil, fmt.Errorf(`"seqs": sequence %d is outside this shard's range [%d, %d)`, id, srv.seqBase, srv.seqBase+n)
		}
	}
	return local, nil
}

// handleBatch answers POST /query/batch: many queries of one kind in one
// request, saving the HTTP round trips and nothing else. The queries are
// answered by the kind's *Batch method on up to GOMAXPROCS goroutines, this
// handler goroutine among them, each with its own index traversal, against
// one pinned view of the store. The batch runs outside the streaming pool:
// no admission control and no deadline — a large batch holds the view for
// its whole run.
// Validation and encoding are the kind table's, shared with the
// single-query routes.
func (srv *typedServer[E]) handleBatch(kinds []servedKind[E]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req shard.BatchRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
			return
		}
		_, args, err := req.Validate()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		qs := make([]seq.Sequence[E], len(req.Queries))
		for i, raw := range req.Queries {
			if qs[i], err = decodeSeq[E](raw); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
				return
			}
		}
		mt, release := srv.st.View()
		defer release()
		resp := shard.BatchResponse{Kind: req.Kind, Count: len(qs)}
		// Validate accepted req.Kind, so it names exactly one batched entry.
		k := kinds[slices.IndexFunc(kinds, func(k servedKind[E]) bool { return k.Name == req.Kind })]
		k.batch(srv, mt, qs, args.Eps, &resp)
		writeJSON(w, http.StatusOK, resp)
	}
}

func (srv *typedServer[E]) handleStats(w http.ResponseWriter, r *http.Request) {
	// The atomic matcher peek: stats must not queue behind a mutation
	// holding the store's write lock.
	mt := srv.st.Matcher()
	resp := statsResponse{
		Config:        srv.cfg,
		UptimeSeconds: time.Since(srv.start).Seconds(),
		NumWindows:    mt.NumWindows(),
		Stream:        srv.pool.StreamStats(),
	}
	resp.DistanceCalls.Build = mt.BuildDistanceCalls()
	resp.DistanceCalls.Filter = mt.FilterDistanceCalls()
	resp.DistanceCalls.Verify = mt.VerifyDistanceCalls()
	resp.Batch.Calls = mt.BatchCalls()
	resp.Batch.Queries = mt.BatchQueries()
	if srv.sched != nil {
		ss := srv.sched.Stats()
		resp.Snapshots = &ss
	}
	ids, live := srv.st.Len()
	resp.Store.Sequences = ids
	resp.Store.Live = live
	resp.Store.TTLs = len(srv.st.Expiries())
	resp.Store.Restored = srv.restored
	writeJSON(w, http.StatusOK, resp)
}

func (srv *typedServer[E]) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "num_windows": srv.st.Matcher().NumWindows()})
}

// --- Admin surface (POST /admin/*): mutate the live store while queries
// run. Each mutation takes the store's write lock, so it waits only for
// queries already running; docs/PERSISTENCE.md documents the
// consistency model. ---

// appendRequest is the body of POST /admin/append. Sequence uses the
// same element-typed encoding as queries.
type appendRequest struct {
	Sequence json.RawMessage `json:"sequence"`
	// TTLSeconds schedules the sequence for retirement after this many
	// seconds (0 or absent: no TTL).
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

type appendResponse struct {
	SeqID         int `json:"seq_id"`
	WindowsAdded  int `json:"windows_added"`
	NumWindows    int `json:"num_windows"`
	LiveSequences int `json:"live_sequences"`
}

func (srv *typedServer[E]) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if len(req.Sequence) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New(`missing "sequence"`))
		return
	}
	if req.TTLSeconds < 0 {
		writeErr(w, http.StatusBadRequest, errors.New(`"ttl_seconds" must be >= 0`))
		return
	}
	x, err := decodeSeq[E](req.Sequence)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var opts []store.AppendOption
	if req.TTLSeconds > 0 {
		opts = append(opts, store.WithTTL(time.Duration(req.TTLSeconds*float64(time.Second))))
	}
	res, err := srv.st.Append(x, opts...)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	_, live := srv.st.Len()
	writeJSON(w, http.StatusOK, appendResponse{
		SeqID: res.SeqID + srv.seqBase, WindowsAdded: res.Windows,
		NumWindows: srv.st.Matcher().NumWindows(), LiveSequences: live,
	})
}

type retireRequest struct {
	SeqID *int `json:"seq_id"`
}

type retireResponse struct {
	SeqID          int `json:"seq_id"`
	WindowsRemoved int `json:"windows_removed"`
	NumWindows     int `json:"num_windows"`
}

func (srv *typedServer[E]) handleRetire(w http.ResponseWriter, r *http.Request) {
	var req retireRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if req.SeqID == nil {
		writeErr(w, http.StatusBadRequest, errors.New(`missing "seq_id"`))
		return
	}
	// The wire speaks global sequence IDs; the store numbers this shard's
	// slice from 0.
	local := *req.SeqID - srv.seqBase
	if local < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf(
			"sequence %d is not owned by this shard (its range starts at %d)", *req.SeqID, srv.seqBase))
		return
	}
	removed, err := srv.st.Retire(local)
	switch {
	case errors.Is(err, core.ErrRetireUnsupported):
		// The backend cannot do it at all — a capability conflict, not a
		// bad request.
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, retireResponse{
		SeqID: *req.SeqID, WindowsRemoved: removed,
		NumWindows: srv.st.Matcher().NumWindows(),
	})
}

// snapshotRequest is the body of POST /admin/snapshot: the server-side
// path to write (the daemon may not share a filesystem with the client,
// so the snapshot lands next to the daemon, atomically).
type snapshotRequest struct {
	Path string `json:"path"`
}

type snapshotResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

func (srv *typedServer[E]) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req snapshotRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if req.Path == "" {
		writeErr(w, http.StatusBadRequest, errors.New(`missing "path"`))
		return
	}
	if err := srv.st.SnapshotFile(req.Path); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	info, err := os.Stat(req.Path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{Path: req.Path, Bytes: info.Size()})
}
