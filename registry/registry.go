// Package registry names the framework's building blocks — distance
// measures, index backends, dataset families — and glues them together into
// runnable sessions, so that a CLI flag, a config file or a test table can
// select any supported measure × backend combination without recompiling.
//
// The paper's framework is generic over its distance measure (any measure
// satisfying Definition 1), and the Go API mirrors that genericity with
// type-parameterised constructors. Genericity compiled in is only half the
// claim, though: this package makes the parameterisation operational. Every
// built-in measure self-registers its canonical instantiations per element
// type (see the catalog in internal/dist), every backend and dataset family
// is described here, and Compatible explains — rather than just rejects —
// why an unsound pairing (a non-metric measure on a metric index, a
// lock-step measure with temporal shift) cannot run.
//
// Lookup is typed: Measure[byte]("levenshtein") returns a Measure[byte],
// and the element type is checked against the registration, so a measure
// that is not defined over a dataset's element type is a name-resolution
// error, not a runtime panic. Common alternate names resolve via aliases
// ("frechet" → "dfd", "protein" → "protein-edit").
//
// One path ties it all together: SessionSpec.Resolve turns a spec into a
// Session once (defaults applied, names looked up, the pairing, window
// length, λ0 and shard range checked), Generate yields the session's
// measure and its dataset cut to the shard, and a constructor builds on
// them. NewMatcher and NewStore are Resolve → Generate → build;
// `subseqctl` takes the same Resolve → Generate path, and the table-driven
// matrix tests drive NewMatcher.
package registry

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"time"

	subseq "repro"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/seq"
)

// MeasureInfo is the untyped view of one registered (measure, element type)
// pair: name, element type and capability bits, as a listing or a
// compatibility check needs them.
type MeasureInfo struct {
	// Name is the canonical measure name.
	Name string `json:"name"`
	// Elem names the element type the instantiation is registered for:
	// "byte", "float64" or "point2".
	Elem string `json:"elem"`
	// Description is a one-line summary.
	Description string `json:"description"`
	// Metric, Consistent and LockStep are the measure's vetted properties.
	Metric     bool `json:"metric"`
	Consistent bool `json:"consistent"`
	LockStep   bool `json:"lock_step"`
	// Incremental and Bounded report the optional fast-path capabilities.
	Incremental bool `json:"incremental"`
	Bounded     bool `json:"bounded"`
	// BitParallel is the measure's cost class: its kernel pass is
	// bit-parallel (one-word Myers; derived from the measure's Packer).
	// Resolve reads it to pick the default backend; it is not on the wire.
	BitParallel bool `json:"-"`
}

// measureAliases maps accepted alternate names to canonical measure names.
var measureAliases = map[string]string{
	"frechet": "dfd",
	"protein": "protein-edit",
	"myers":   "levenshtein-fast",
	"edit":    "levenshtein",
	"l2":      "euclidean",
}

// CanonicalMeasure resolves accepted alternate spellings ("frechet",
// "protein", …) to the canonical measure name; unknown names pass through
// unchanged.
func CanonicalMeasure(name string) string {
	if c, ok := measureAliases[name]; ok {
		return c
	}
	return name
}

func infoOf(e dist.CatalogEntry) MeasureInfo {
	return MeasureInfo{
		Name:        e.Name,
		Elem:        e.Elem,
		Description: e.Description,
		Metric:      e.Props.Metric,
		Consistent:  e.Props.Consistent,
		LockStep:    e.Props.LockStep,
		Incremental: e.Incremental,
		Bounded:     e.Bounded,
		BitParallel: e.BitParallel,
	}
}

// Measures returns every registered (measure, element type) pair, sorted by
// name then element type.
func Measures() []MeasureInfo {
	cat := dist.Catalog()
	out := make([]MeasureInfo, len(cat))
	for i, e := range cat {
		out[i] = infoOf(e)
	}
	return out
}

// MeasuresFor returns the measures registered over one element type.
func MeasuresFor(elem string) []MeasureInfo {
	cat := dist.CatalogFor(elem)
	out := make([]MeasureInfo, len(cat))
	for i, e := range cat {
		out[i] = infoOf(e)
	}
	return out
}

// MeasureNames returns the sorted canonical measure names, each once.
func MeasureNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range dist.Catalog() {
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, e.Name)
		}
	}
	sort.Strings(out)
	return out
}

// unknownMeasureErr builds the name-resolution error for the name the
// caller typed (canonical is its alias-resolved form): it distinguishes a
// name that exists nowhere from one registered over other element types,
// and keeps the typed spelling in the message so the error stays
// actionable when an alias was used.
func unknownMeasureErr(typed, canonical, elem string) error {
	display := fmt.Sprintf("%q", typed)
	if typed != canonical {
		display = fmt.Sprintf("%q (= %q)", typed, canonical)
	}
	var elems []string
	for _, e := range dist.Catalog() {
		if e.Name == canonical {
			elems = append(elems, e.Elem)
		}
	}
	if len(elems) > 0 {
		return fmt.Errorf("registry: measure %s is not defined over %s elements (defined over: %s)",
			display, elem, strings.Join(elems, ", "))
	}
	return fmt.Errorf("registry: unknown measure %s (measures: %s)",
		display, strings.Join(MeasureNames(), ", "))
}

// LookupMeasure returns the info of the named measure over the given
// element type, resolving aliases.
func LookupMeasure(name, elem string) (MeasureInfo, error) {
	canonical := CanonicalMeasure(name)
	for _, e := range dist.CatalogFor(elem) {
		if e.Name == canonical {
			return infoOf(e), nil
		}
	}
	return MeasureInfo{}, unknownMeasureErr(name, canonical, elem)
}

// Measure returns the canonical Measure[E] registered under name (aliases
// accepted). The element type is part of the lookup: asking for a measure
// over an element type it is not registered for is an error naming the
// types it is registered for.
func Measure[E any](name string) (subseq.Measure[E], error) {
	canonical := CanonicalMeasure(name)
	if m, ok := dist.Builtin[E](canonical); ok {
		return m, nil
	}
	return subseq.Measure[E]{}, unknownMeasureErr(name, canonical, dist.ElemName[E]())
}

// BackendInfo describes one index backend of the window filter.
type BackendInfo struct {
	// Name is the backend's CLI name.
	Name string `json:"name"`
	// Kind is the core backend selector.
	Kind subseq.IndexKind `json:"-"`
	// Description is a one-line summary.
	Description string `json:"description"`
	// NeedsMetric reports that the backend prunes by the triangle
	// inequality and therefore accepts only metric measures.
	NeedsMetric bool `json:"needs_metric"`
}

// backends lists the four filter backends, in display order.
var backends = []BackendInfo{
	{"refnet", subseq.IndexRefNet, "the paper's Reference Net (multi-parent hierarchical metric index)", true},
	{"covertree", subseq.IndexCoverTree, "single-parent cover-tree baseline", true},
	{"mv", subseq.IndexMV, "reference-based index with maximum-variance reference selection", true},
	{"linear", subseq.IndexLinearScan, "exhaustive window scan (sound for every consistent measure)", false},
}

// Backends returns the filter backends in display order.
func Backends() []BackendInfo { return append([]BackendInfo(nil), backends...) }

// Backend returns the named backend.
func Backend(name string) (BackendInfo, error) {
	for _, b := range backends {
		if b.Name == name {
			return b, nil
		}
	}
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name
	}
	return BackendInfo{}, fmt.Errorf("registry: unknown backend %q (backends: %s)",
		name, strings.Join(names, ", "))
}

// Compatible reports whether measure m can soundly drive backend b: nil if
// so, otherwise an error stating which capability is missing and why it
// matters. It is the name-level mirror of the constructor-time validation
// in core.NewMatcher — the CLI uses it to reject a pairing up front with
// the same rationale.
func Compatible(m MeasureInfo, b BackendInfo) error {
	if !m.Consistent {
		return fmt.Errorf("measure %q is not consistent: the window filter would miss matches (Definition 1)", m.Name)
	}
	if b.NeedsMetric && !m.Metric {
		return fmt.Errorf("measure %q is not a metric: backend %q prunes by the triangle inequality and would drop true matches — use the linear backend", m.Name, b.Name)
	}
	return nil
}

// Dataset is a generated dataset: sequences plus their indexed windows.
type Dataset[E any] = data.Dataset[E]

// DatasetInfo describes one synthetic dataset family.
type DatasetInfo struct {
	// Name is the family name.
	Name string `json:"name"`
	// Elem names the element type of its sequences.
	Elem string `json:"elem"`
	// Description is a one-line summary.
	Description string `json:"description"`
	// DefaultMeasure is the measure a session uses when none is named —
	// the pairing the paper evaluates the family with.
	DefaultMeasure string `json:"default_measure"`
}

// datasets lists the dataset families, in display order.
var datasets = []DatasetInfo{
	{"proteins", "byte", "protein-like strings over the 20-letter amino-acid alphabet", "levenshtein-fast"},
	{"songs", "float64", "melodic pitch-class series (values 0..11)", "dfd"},
	{"traj", "point2", "2-D parking-lot trajectories", "erp"},
}

// Datasets returns the dataset families in display order.
func Datasets() []DatasetInfo { return append([]DatasetInfo(nil), datasets...) }

// DatasetByName returns the named dataset family's description.
func DatasetByName(name string) (DatasetInfo, error) {
	for _, d := range datasets {
		if d.Name == name {
			return d, nil
		}
	}
	names := make([]string, len(datasets))
	for i, d := range datasets {
		names[i] = d.Name
	}
	return DatasetInfo{}, fmt.Errorf("registry: unknown dataset %q (datasets: %s)",
		name, strings.Join(names, ", "))
}

// GenerateDataset builds the named dataset at element type E; the element
// type must match the family's.
func GenerateDataset[E any](name string, numWindows, windowLen int, seed uint64) (Dataset[E], error) {
	return data.Generate[E](name, numWindows, windowLen, seed)
}

// QueryMutator returns the named dataset family's query point-mutation
// function, for deriving mutated queries from database subsequences with
// RandomQuery.
func QueryMutator[E any](name string) (func(rng *rand.Rand, e E) E, error) {
	return data.MutatorFor[E](name)
}

// RandomQuery copies a random subsequence of length qlen from ds and
// applies point mutations at the given rate using mutate.
func RandomQuery[E any](ds Dataset[E], qlen int, rate float64,
	mutate func(rng *rand.Rand, e E) E, seed uint64) subseq.Sequence[E] {
	return data.RandomQuery(ds, qlen, rate, mutate, seed)
}

// SessionSpec names a complete framework configuration. The zero values of
// the optional fields select sensible defaults; only Dataset and Windows
// must be set.
type SessionSpec struct {
	// Dataset is the dataset family to generate.
	Dataset string `json:"dataset"`
	// Measure selects the distance measure; "" selects the family's
	// default. Aliases are accepted.
	Measure string `json:"measure,omitempty"`
	// Backend selects the filter backend; "" selects it by what a
	// measure's pass costs (see defaultBackend).
	Backend string `json:"backend,omitempty"`
	// Windows is the number of database windows to generate.
	Windows int `json:"windows"`
	// WindowLen is the window length l (λ = 2l); 0 selects 20, the
	// paper's setting.
	WindowLen int `json:"window_len,omitempty"`
	// Lambda0 is the temporal-shift bound λ0. The zero value selects the
	// measure's default (0 for lock-step measures, 1 otherwise); -1
	// explicitly forces λ0 = 0 for a non-lock-step measure; positive
	// values are used as given (lock-step measures reject them).
	Lambda0 int `json:"lambda0,omitempty"`
	// Seed seeds dataset generation.
	Seed uint64 `json:"seed,omitempty"`
	// ShardLo/ShardHi restrict the session to the generated dataset's
	// sequences with indices in [ShardLo, ShardHi) — one shard of the
	// logical index, reporting matches under the global sequence
	// numbering (see internal/shard and docs/SHARDING.md). Both zero
	// means unsharded (the whole dataset). Generation is deterministic
	// per (dataset, windows, window_len, seed), so every shard process
	// derives its slice from the same logical whole.
	ShardLo int `json:"shard_lo,omitempty"`
	ShardHi int `json:"shard_hi,omitempty"`
}

// Session is a SessionSpec resolved: every default applied, every name
// looked up and every parameter checked. It is the paper's parameter set —
// a consistent measure (Definition 1), an index that suits it, the window
// length l = λ/2 and the shift bound λ0 — over one dataset family, cut to
// an optional shard range. Resolve is the only place that produces one;
// every constructor, the snapshot check and `subseqctl` read it, and it
// marshals to the session fields of a daemon's /stats config.
type Session struct {
	Dataset   DatasetInfo `json:"dataset"`
	Measure   MeasureInfo `json:"measure"`
	Backend   BackendInfo `json:"backend"`
	Windows   int         `json:"windows"`
	WindowLen int         `json:"window_len"`
	// Lambda is the minimum match length λ = 2·WindowLen.
	Lambda  int    `json:"lambda"`
	Lambda0 int    `json:"lambda0"`
	Seed    uint64 `json:"seed"`
	// ShardLo/ShardHi are the shard range ([0,0) = unsharded).
	ShardLo int `json:"shard_lo,omitempty"`
	ShardHi int `json:"shard_hi,omitempty"`
}

// Resolve fills the spec's defaults, resolves its names against the
// registry and checks the result, without generating anything: the
// measure must be defined over the dataset's element type and suit the
// backend (Compatible), the window length must be at least 2, a lock-step
// measure admits no λ0 > 0, and a shard range must be non-empty and start
// at sequence 0 or later. Whether the range fits the dataset is known once
// it is generated (Generate). λ0 resolves before the backend, because a
// spec that names no backend gets one by the measure's cost class and λ0
// (defaultBackend); this is the one place that default is decided.
func (s SessionSpec) Resolve() (Session, error) {
	di, err := DatasetByName(s.Dataset)
	if err != nil {
		return Session{}, err
	}
	mname := s.Measure
	if mname == "" {
		mname = di.DefaultMeasure
	}
	mi, err := LookupMeasure(mname, di.Elem)
	if err != nil {
		return Session{}, err
	}
	wl := s.WindowLen
	if wl == 0 {
		wl = 20
	}
	if wl < 2 {
		return Session{}, fmt.Errorf("registry: window length must be at least 2, got %d", wl)
	}
	// λ0: lock-step measures admit no shift; otherwise the zero value
	// selects 1, a negative value forces 0 and a positive one is kept.
	lambda0 := max(s.Lambda0, 0)
	switch {
	case mi.LockStep && s.Lambda0 > 0:
		return Session{}, fmt.Errorf("registry: lock-step measure %q admits no temporal shift; lambda0 must be 0, got %d",
			mi.Name, s.Lambda0)
	case !mi.LockStep && s.Lambda0 == 0:
		lambda0 = 1
	}
	bname := s.Backend
	if bname == "" {
		bname = defaultBackend(mi, lambda0)
	}
	bi, err := Backend(bname)
	if err != nil {
		return Session{}, err
	}
	if err := Compatible(mi, bi); err != nil {
		return Session{}, fmt.Errorf("registry: %w", err)
	}
	sess := Session{
		Dataset: di, Measure: mi, Backend: bi,
		Windows: s.Windows, WindowLen: wl, Lambda: 2 * wl, Lambda0: lambda0, Seed: s.Seed,
		ShardLo: s.ShardLo, ShardHi: s.ShardHi,
	}
	if sess.Sharded() {
		if s.ShardLo < 0 {
			return Session{}, fmt.Errorf("registry: shard range [%d,%d) starts before sequence 0", s.ShardLo, s.ShardHi)
		}
		if s.ShardHi <= s.ShardLo {
			return Session{}, fmt.Errorf("registry: shard range [%d,%d) is empty (shard_hi must exceed shard_lo)", s.ShardLo, s.ShardHi)
		}
	}
	return sess, nil
}

// defaultBackend names the backend of a spec that names none, by what one
// kernel pass costs: the scan for a measure that is not a metric (the one
// backend it suits) and for a bit-parallel kernel at λ0 > 0, where one
// free-start pass per window (≈ 0.2 µs on one-word Myers) costs less than
// the net's walk saves at every size measured; the paper's reference net
// otherwise, whose pruning pays when a pass is dear (ERP, ≈ 5 µs).
// DESIGN.md §5 item 15 has the table.
func defaultBackend(m MeasureInfo, lambda0 int) string {
	if !m.Metric || (m.BitParallel && lambda0 > 0) {
		return "linear"
	}
	return "refnet"
}

// Sharded reports whether the session is restricted to a shard range.
func (s Session) Sharded() bool { return s.ShardLo != 0 || s.ShardHi != 0 }

// Config returns the matcher configuration the session runs: λ, λ0 and
// the backend's index kind.
func (s Session) Config() subseq.Config {
	return subseq.Config{
		Params: subseq.Params{Lambda: s.Lambda, Lambda0: s.Lambda0},
		Index:  s.Backend.Kind,
	}
}

// Generate returns the session's measure at element type E and its
// dataset, cut to the shard's whole sequences when the session is sharded
// (see SessionSpec.ShardLo). Matches never span sequences, which is what
// makes the scatter-gather merge exact (see internal/shard). E must be the
// element type of the session's dataset family.
func Generate[E any](s Session) (subseq.Measure[E], Dataset[E], error) {
	m, err := Measure[E](s.Measure.Name)
	if err != nil {
		return subseq.Measure[E]{}, Dataset[E]{}, err
	}
	ds, err := GenerateDataset[E](s.Dataset.Name, s.Windows, s.WindowLen, s.Seed)
	if err != nil {
		return subseq.Measure[E]{}, Dataset[E]{}, err
	}
	if s.Sharded() {
		if s.ShardHi > len(ds.Sequences) {
			return subseq.Measure[E]{}, Dataset[E]{}, fmt.Errorf(
				"shard range [%d,%d) exceeds the dataset's %d sequences (windows=%d at windowlen=%d generates %d sequences)",
				s.ShardLo, s.ShardHi, len(ds.Sequences), s.Windows, s.WindowLen, len(ds.Sequences))
		}
		ds.Sequences = ds.Sequences[s.ShardLo:s.ShardHi]
		ds.Windows = seq.PartitionAll(ds.Sequences, s.WindowLen)
	}
	return m, ds, nil
}

// ServerSpec names a complete serving-daemon configuration: a session
// (dataset × measure × backend, exactly as `subseqctl query` takes it)
// plus the knobs serving adds — the listen address and the streaming
// engine's worker count and in-flight bound. `subseqctl serve` fills one
// from its flags; Resolve turns it into the fully-resolved ServerConfig
// the daemon runs and reports on /stats. See docs/SERVING.md.
type ServerSpec struct {
	SessionSpec
	// Name names the session inside a multi-session process: its routes
	// mount under /s/{name}/ (see docs/SHARDING.md). "" defaults to the
	// dataset family name. Names must be URL-path-safe (letters, digits,
	// '-', '_', '.') and unique within one process (ValidateServerSpecs).
	Name string `json:"name,omitempty"`
	// Restore makes the session restore its index from this snapshot
	// file instead of building it (the snapshot must match the session
	// spec; see docs/PERSISTENCE.md).
	Restore string `json:"restore,omitempty"`
	// Addr is the TCP listen address; "" selects 127.0.0.1:8077.
	Addr string `json:"addr,omitempty"`
	// Workers is the streaming engine's worker count; 0 selects
	// GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// QueueDepth bounds in-flight submissions (accepted but not yet
	// answered); 0 selects subseq.DefaultQueueDepth.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Shed names the load-shedding policy applied when the in-flight
	// budget is exhausted: "block" (default), "reject" or "fair"
	// (synonyms accepted, see subseq.ParseShedPolicy).
	Shed string `json:"shed,omitempty"`
	// RequestTimeout bounds each query request end to end; expired work
	// is dropped before a worker prices it. 0 means no timeout.
	RequestTimeout time.Duration `json:"request_timeout,omitempty"`
	// SnapshotInterval enables background periodic snapshots to
	// SnapshotPath; 0 disables them.
	SnapshotInterval time.Duration `json:"snapshot_interval,omitempty"`
	// SnapshotPath is where background snapshots land (required when
	// SnapshotInterval is set).
	SnapshotPath string `json:"snapshot_path,omitempty"`
}

// DefaultServeAddr is the listen address a ServerSpec resolves to when
// none is given.
const DefaultServeAddr = "127.0.0.1:8077"

// ServerConfig is a ServerSpec after name resolution: the resolved
// Session plus every serving knob with its default applied. It marshals to
// the JSON a daemon's /stats endpoint echoes, so a client can always ask a
// server what it is.
type ServerConfig struct {
	// Name is the session's mount name inside a multi-session process
	// ("" when the process serves it as its only, legacy-routed session).
	Name string `json:"name,omitempty"`
	Session
	Restore    string `json:"restore,omitempty"`
	Addr       string `json:"addr"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	// Shed is the canonical shed-policy name ("block", "reject", "fair").
	Shed string `json:"shed"`
	// RequestTimeoutMillis is the per-request timeout in milliseconds
	// (0: none).
	RequestTimeoutMillis int64 `json:"request_timeout_ms,omitempty"`
	// SnapshotIntervalMillis is the background snapshot period in
	// milliseconds (0: disabled); SnapshotPath is its target file.
	SnapshotIntervalMillis int64  `json:"snapshot_interval_ms,omitempty"`
	SnapshotPath           string `json:"snapshot_path,omitempty"`
}

// Resolve resolves the session (SessionSpec.Resolve) and fills the serving
// knobs' defaults, validating them; nothing is generated or built. The
// returned config is what the daemon serves under /stats.
func (s ServerSpec) Resolve() (ServerConfig, error) {
	sess, err := s.SessionSpec.Resolve()
	if err != nil {
		return ServerConfig{}, err
	}
	shed, err := subseq.ParseShedPolicy(s.Shed)
	if err != nil {
		return ServerConfig{}, fmt.Errorf("registry: %w", err)
	}
	if s.RequestTimeout < 0 {
		return ServerConfig{}, fmt.Errorf("registry: request timeout %v is negative", s.RequestTimeout)
	}
	if s.SnapshotInterval < 0 {
		return ServerConfig{}, fmt.Errorf("registry: snapshot interval %v is negative", s.SnapshotInterval)
	}
	if s.SnapshotInterval > 0 && s.SnapshotPath == "" {
		return ServerConfig{}, fmt.Errorf("registry: snapshot interval %v set without a snapshot path", s.SnapshotInterval)
	}
	if err := validSessionName(s.Name); err != nil {
		return ServerConfig{}, err
	}
	cfg := ServerConfig{
		Name: s.Name, Session: sess, Restore: s.Restore,
		Addr: s.Addr, Workers: s.Workers, QueueDepth: s.QueueDepth,
		Shed:                   shed.String(),
		RequestTimeoutMillis:   s.RequestTimeout.Milliseconds(),
		SnapshotIntervalMillis: s.SnapshotInterval.Milliseconds(),
		SnapshotPath:           s.SnapshotPath,
	}
	if cfg.Addr == "" {
		cfg.Addr = DefaultServeAddr
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = subseq.DefaultQueueDepth
	}
	return cfg, nil
}

// NewMatcher resolves spec, generates its dataset (Generate) and builds
// the matcher over it. E must be the element type of the spec's dataset
// family.
func NewMatcher[E any](spec SessionSpec) (*subseq.Matcher[E], Dataset[E], error) {
	sess, err := spec.Resolve()
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	m, ds, err := Generate[E](sess)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	mt, err := subseq.NewMatcher(m, sess.Config(), ds.Sequences)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	return mt, ds, nil
}
