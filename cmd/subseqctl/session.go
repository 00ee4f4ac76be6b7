package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/refnet"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/registry"
)

// Session construction is registry-driven: the dataset name fixes the
// element type, the measure and backend are resolved by name and validated
// against each other before anything is generated, and the one place the
// program mentions concrete element types is the three-way dispatch in
// newSession. Everything downstream is generic.

// session is the untyped face of a typedSession, letting the subcommands
// ignore the dataset's element type.
type session interface {
	describe() string
	numWindows() int
	netStats() (refnet.Stats, []struct{ Level, Count, Childless int })
	distanceSample(samples int) []float64
	runQuery(opts queryOpts) (string, error)
	// newServer builds the long-lived serving state behind `subseqctl
	// serve` (see serve.go): the live store, streaming pool and HTTP
	// handlers. A non-empty restore path restores the store from a
	// snapshot (validated against this session's spec) instead of
	// indexing the generated dataset.
	newServer(spec registry.ServerSpec, restore string) (queryServer, error)
}

// queryOpts carries the query subcommand's flags.
type queryOpts struct {
	typ     string
	eps     float64
	qlen    int
	rate    float64
	queries int
	workers int
	seed    uint64
}

// typedSession binds a resolved session to its generated dataset and
// measure.
type typedSession[E any] struct {
	sess    registry.Session
	measure dist.Measure[E]
	ds      data.Dataset[E]
	mutate  func(rng *rand.Rand, e E) E
}

func newSession(spec registry.SessionSpec) (session, error) {
	sess, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	switch sess.Dataset.Elem {
	case "byte":
		return buildSession[byte](sess)
	case "float64":
		return buildSession[float64](sess)
	case "point2":
		return buildSession[seq.Point2](sess)
	default:
		return nil, fmt.Errorf("dataset %q has unsupported element type %q", sess.Dataset.Name, sess.Dataset.Elem)
	}
}

// buildSession generates the session's dataset — one shard's sequences
// when it is sharded; serve.go re-bases wire-level sequence IDs by
// ShardLo, so shards report global numbering.
func buildSession[E any](sess registry.Session) (session, error) {
	m, ds, err := registry.Generate[E](sess)
	if err != nil {
		return nil, err
	}
	mut, err := registry.QueryMutator[E](sess.Dataset.Name)
	if err != nil {
		return nil, err
	}
	return &typedSession[E]{sess: sess, measure: m, ds: ds, mutate: mut}, nil
}

func (s *typedSession[E]) describe() string {
	d := fmt.Sprintf("dataset=%s windows=%d measure=%s backend=%s lambda=%d lambda0=%d",
		s.sess.Dataset.Name, len(s.ds.Windows), s.sess.Measure.Name, s.sess.Backend.Name,
		s.sess.Lambda, s.sess.Lambda0)
	if s.sess.Sharded() {
		d += fmt.Sprintf(" shard=[%d,%d)", s.sess.ShardLo, s.sess.ShardHi)
	}
	return d
}

func (s *typedSession[E]) numWindows() int { return len(s.ds.Windows) }

func (s *typedSession[E]) netStats() (refnet.Stats, []struct{ Level, Count, Childless int }) {
	net := refnet.New(func(a, b seq.Window[E]) float64 { return s.measure.Fn(a.Data, b.Data) })
	for _, w := range s.ds.Windows {
		net.Insert(w)
	}
	return net.Stats(), net.LevelHistogram()
}

func (s *typedSession[E]) distanceSample(samples int) []float64 {
	return stats.SampleDistances(s.ds.Windows,
		func(a, b seq.Window[E]) float64 { return s.measure.Fn(a.Data, b.Data) }, samples, 1)
}

func (s *typedSession[E]) matcher() (*core.Matcher[E], error) {
	return core.NewMatcher(s.measure, s.sess.Config(), s.ds.Sequences)
}

// store builds the live, mutable serving store over the generated
// dataset (see internal/store: same matcher underneath, plus the
// append/retire/snapshot lifecycle behind `subseqctl serve`'s admin
// endpoints).
func (s *typedSession[E]) store() (*store.Store[E], error) {
	return store.New(s.measure, s.sess.Config(), s.ds.Sequences)
}

// runQuery answers opts.queries generated queries on a QueryPool of
// opts.workers workers: one worker answers them one after another
// ("sequential"), several answer them side by side. Every query runs its
// own index traversal either way.
func (s *typedSession[E]) runQuery(opts queryOpts) (string, error) {
	mt, err := s.matcher()
	if err != nil {
		return "", err
	}
	if opts.queries < 1 {
		opts.queries = 1
	}
	qs := make([]seq.Sequence[E], opts.queries)
	for i := range qs {
		qs[i] = data.RandomQuery(s.ds, opts.qlen, opts.rate, s.mutate, opts.seed+uint64(i))
	}
	pool := core.NewQueryPool(mt, max(opts.workers, 1))
	mode := "sequential"
	if pool.Workers() > 1 {
		mode = fmt.Sprintf("pool(%d workers)", pool.Workers())
	}

	start := time.Now()
	var b strings.Builder
	switch canonicalQueryType(opts.typ) {
	case "filter":
		total := 0
		for _, h := range pool.FilterHits(qs, opts.eps) {
			total += len(h)
		}
		fmt.Fprintf(&b, "filter: %d segment-window hits at eps=%g over %d queries",
			total, opts.eps, len(qs))
	case "findall":
		total := 0
		for _, m := range pool.FindAll(qs, opts.eps) {
			total += len(m)
		}
		fmt.Fprintf(&b, "type I (findall): %d similar pairs at eps=%g over %d queries",
			total, opts.eps, len(qs))
	case "longest":
		ms, found := pool.Longest(qs, opts.eps)
		n, best := 0, core.Match{}
		for i, ok := range found {
			if ok {
				n++
				if ms[i].QLen() > best.QLen() {
					best = ms[i]
				}
			}
		}
		fmt.Fprintf(&b, "type II (longest): %d/%d queries matched within eps=%g", n, len(qs), opts.eps)
		if n > 0 {
			fmt.Fprintf(&b, "; longest %v", best)
		}
	case "nearest":
		nopts := core.DefaultNearestOptions(opts.eps)
		ms, found := pool.Nearest(qs, nopts)
		n := 0
		var nearest core.Match
		first := true
		for i, ok := range found {
			if ok {
				n++
				if first || ms[i].Dist < nearest.Dist {
					nearest, first = ms[i], false
				}
			}
		}
		fmt.Fprintf(&b, "type III (nearest): %d/%d queries matched within eps=%g", n, len(qs), opts.eps)
		if n > 0 {
			fmt.Fprintf(&b, "; nearest %v", nearest)
		}
	default:
		return "", fmt.Errorf("unknown query type %q (want findall, longest, nearest or filter; aliases I, II, III)", opts.typ)
	}
	fmt.Fprintf(&b, "\n%s in %v (filter calls %d, verify calls %d)",
		mode, time.Since(start).Round(time.Millisecond),
		mt.FilterDistanceCalls(), mt.VerifyDistanceCalls())
	return b.String(), nil
}

// canonicalQueryType maps the paper's numeral names onto the verb names.
func canonicalQueryType(typ string) string {
	switch typ {
	case "I", "i":
		return "findall"
	case "II", "ii":
		return "longest"
	case "III", "iii":
		return "nearest"
	default:
		return typ
	}
}
