package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/metric"
	"repro/internal/refnet"
	"repro/internal/seq"
)

// Index lifecycle: live mutation of a built matcher, plus index
// serialisation for restart-without-rebuild. These methods mutate shared
// matcher state (the window slice, the backend, the lazily-built kernel
// tables), so they are NOT safe to call concurrently with queries or with
// each other — the owning tier (internal/store) serialises them behind a
// write lock and drains in-flight queries first. A freshly constructed or
// restored matcher answers queries bit-identically to one rebuilt from
// scratch over the same final database; the equivalence tests in
// lifecycle_test.go prove that per backend.

// ErrRetireUnsupported is returned by RetireSequence on backends with no
// deletion operation (the cover tree baseline).
var ErrRetireUnsupported = errors.New("core: index backend does not support retiring sequences")

// ErrSaveUnsupported is returned by SaveIndex on backends with no
// serialised form; their matchers are rebuilt from raw sequences instead
// (see store snapshot format notes).
var ErrSaveUnsupported = errors.New("core: index backend does not support serialisation")

// chargeBuild attributes the distance computations spent inside fn to the
// build/maintenance budget instead of the query-side filter counter, so
// FilterDistanceCalls keeps meaning "query evaluation cost" (the paper's
// Figures 8–11 quantity) across mutations.
func (mt *Matcher[E]) chargeBuild(fn func()) {
	before := mt.counter.Calls()
	fn()
	delta := mt.counter.Calls() - before
	mt.buildCalls += delta
	mt.counter.Add(-delta)
}

// AppendSequence partitions x into windows of length λ/2, inserts them
// into the live index, and returns the new sequence's ID plus the number
// of windows added (a trailing run shorter than λ/2 is discarded, so a
// short sequence can add zero windows and still occupy an ID). The matcher
// answers subsequent queries exactly as if it had been built over the
// extended database from scratch. Not safe concurrently with queries.
func (mt *Matcher[E]) AppendSequence(x seq.Sequence[E]) (seqID, added int, err error) {
	if mt.mv != nil && len(mt.windows) == 0 {
		// Unreachable in practice: NewMatcher refuses to build an MV index
		// over an empty database.
		return 0, 0, fmt.Errorf("core: MV index has no reference set to insert into")
	}
	seqID = len(mt.db)
	wins := seq.Partition(seqID, x, mt.cfg.Params.WindowLen())
	mt.chargeBuild(func() {
		for _, w := range wins {
			switch {
			case mt.net != nil:
				mt.tracked[winKey{w.SeqID, w.Ord}] = mt.net.InsertTracked(w)
			case mt.ct != nil:
				mt.ct.Insert(w)
			case mt.mv != nil:
				mt.mv.Insert(w)
			case mt.linear != nil:
				mt.linear.Insert(w)
			}
		}
	})
	mt.db = append(mt.db, x)
	mt.windows = append(mt.windows, wins...)
	// The verifier resolves SeqIDs against its own database slice; keep it
	// pointed at the (possibly reallocated) extended one.
	mt.verifier.db = mt.db
	mt.growPrepared(wins)
	return seqID, len(wins), nil
}

// RetireSequence removes every window of sequence seqID from the index and
// tombstones the sequence (its ID stays allocated and resolves to an empty
// sequence, so later windows keep their identities). It returns the number
// of windows removed. The cover-tree backend has no deletion and returns
// ErrRetireUnsupported. Not safe concurrently with queries.
func (mt *Matcher[E]) RetireSequence(seqID int) (removed int, err error) {
	if seqID < 0 || seqID >= len(mt.db) {
		return 0, fmt.Errorf("core: retire: sequence %d does not exist (database holds %d)", seqID, len(mt.db))
	}
	if mt.db[seqID] == nil {
		return 0, fmt.Errorf("core: retire: sequence %d already retired", seqID)
	}
	if mt.ct != nil {
		return 0, fmt.Errorf("%w: cover tree", ErrRetireUnsupported)
	}
	wins := seq.Partition(seqID, mt.db[seqID], mt.cfg.Params.WindowLen())
	mt.chargeBuild(func() {
		switch {
		case mt.net != nil:
			for _, w := range wins {
				k := winKey{w.SeqID, w.Ord}
				h, ok := mt.tracked[k]
				if !ok {
					err = fmt.Errorf("core: retire: window %v has no tracked handle", w)
					return
				}
				if derr := mt.net.Delete(h); derr != nil {
					err = fmt.Errorf("core: retire: %w", derr)
					return
				}
				delete(mt.tracked, k)
			}
			removed = len(wins)
		case mt.mv != nil:
			removed = mt.mv.RemoveFunc(func(w seq.Window[E]) bool { return w.SeqID == seqID })
		case mt.linear != nil:
			removed = mt.linear.RemoveFunc(func(w seq.Window[E]) bool { return w.SeqID == seqID })
		}
	})
	if err != nil {
		return 0, err
	}
	mt.db[seqID] = nil
	kept := mt.windows[:0]
	for _, w := range mt.windows {
		if w.SeqID != seqID {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(mt.windows); i++ {
		mt.windows[i] = seq.Window[E]{}
	}
	mt.windows = kept
	mt.compactPrepared()
	return removed, nil
}

// growPrepared extends the lazily-built kernel tables for freshly appended
// windows. If the slot array was never initialised (no kernel-path query
// has run yet), there is nothing to grow — preparedInit will see the
// extended window slice when it fires.
func (mt *Matcher[E]) growPrepared(wins []seq.Window[E]) {
	if mt.prepared == nil {
		return
	}
	for _, w := range wins {
		mt.winIndex[winKey{w.SeqID, w.Ord}] = int32(len(mt.prepared))
		mt.prepared = append(mt.prepared, &preparedSlot[E]{})
	}
}

// compactPrepared rebuilds the slot array and window→slot map to match the
// compacted window slice after a retire. Slots of surviving windows keep
// their pointers, so preprocessing already built on first touch survives
// the compaction; retired windows' slots are dropped and their tables
// freed. Positional invariant: prepared[i] belongs to windows[i], which
// filterHitsIncremental relies on (the linear backend's item order is kept
// in lockstep by LinearScan.RemoveFunc).
func (mt *Matcher[E]) compactPrepared() {
	if mt.prepared == nil {
		return
	}
	old := mt.winIndex
	next := make([]*preparedSlot[E], len(mt.windows))
	index := make(map[winKey]int32, len(mt.windows))
	for i, w := range mt.windows {
		k := winKey{w.SeqID, w.Ord}
		if oi, ok := old[k]; ok {
			next[i] = mt.prepared[oi]
		} else {
			next[i] = &preparedSlot[E]{}
		}
		index[k] = int32(i)
	}
	mt.prepared = next
	mt.winIndex = index
}

// DB exposes the matcher's database slice (shared; do not mutate).
// Retired sequences appear as nil entries.
func (mt *Matcher[E]) DB() []seq.Sequence[E] { return mt.db }

// SaveIndex serialises the index structure to w, for restart without
// re-indexing. Only the reference net has a serialised form
// (refnet.Save); other backends return ErrSaveUnsupported and are rebuilt
// from raw sequences on restore.
func (mt *Matcher[E]) SaveIndex(w io.Writer) error {
	if mt.net == nil {
		return fmt.Errorf("%w: %v", ErrSaveUnsupported, mt.cfg.Index)
	}
	return mt.net.Save(w)
}

// NewMatcherFromSavedIndex reconstructs a refnet-backed matcher from db
// and an index stream written by SaveIndex, without recomputing any
// distances — decoding a 100K-window net costs zero distance evaluations
// where rebuilding costs millions. cfg must be the configuration the net
// was built under (the store's snapshot header enforces that before
// calling here); cfg.Index must be IndexRefNet.
//
// The restored matcher is fully live: queries answer bit-identically to
// the matcher that was saved, and AppendSequence/RetireSequence work (the
// window→node handle map is rebuilt from a net walk). Window payloads
// decoded from the stream are re-aliased onto views of db, so sequences
// are held in memory once, not twice.
func NewMatcherFromSavedIndex[E any](m dist.Measure[E], cfg Config, db []seq.Sequence[E], r io.Reader) (*Matcher[E], error) {
	cfg.defaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := validateMeasure(m, cfg); err != nil {
		return nil, err
	}
	if cfg.Index != IndexRefNet {
		return nil, fmt.Errorf("core: restore: backend %v has no serialised form", cfg.Index)
	}
	mt := &Matcher[E]{
		measure: m,
		cfg:     cfg,
		db:      db,
		windows: seq.PartitionAll(db, cfg.Params.WindowLen()),
	}
	mt.counter = metric.NewCounter(func(a, b seq.Window[E]) float64 {
		return m.Fn(a.Data, b.Data)
	})
	net, err := refnet.Load(r, mt.counter.Distance)
	if err != nil {
		return nil, err
	}
	if m.Bounded != nil {
		bounded := m.Bounded
		net.SetBounded(mt.counter.CountBounded(
			func(a, b seq.Window[E], eps float64) float64 {
				return bounded(a.Data, b.Data, eps)
			}))
	}
	if net.Len() != len(mt.windows) {
		return nil, fmt.Errorf("core: restore: index holds %d windows but database partitions into %d (sequences and index stream do not belong together)",
			net.Len(), len(mt.windows))
	}
	// Re-alias decoded window payloads onto the canonical database views
	// and rebuild the window→handle map for future retires. Every indexed
	// window must identify a window the database actually has.
	byKey := make(map[winKey]seq.Window[E], len(mt.windows))
	for _, w := range mt.windows {
		byKey[winKey{w.SeqID, w.Ord}] = w
	}
	mt.tracked = make(map[winKey]*refnet.Node[seq.Window[E]], len(mt.windows))
	rerr := error(nil)
	net.RewriteItems(func(w seq.Window[E]) seq.Window[E] {
		canon, ok := byKey[winKey{w.SeqID, w.Ord}]
		if !ok && rerr == nil {
			rerr = fmt.Errorf("core: restore: index window %v not present in database", w)
		}
		return canon
	})
	if rerr != nil {
		return nil, rerr
	}
	net.Walk(func(n *refnet.Node[seq.Window[E]]) {
		w := n.Item()
		mt.tracked[winKey{w.SeqID, w.Ord}] = n
	})
	if len(mt.tracked) != len(mt.windows) {
		return nil, fmt.Errorf("core: restore: index holds %d distinct windows, database has %d (duplicate or missing entries)",
			len(mt.tracked), len(mt.windows))
	}
	mt.index = net
	mt.net = net
	mt.buildCalls = mt.counter.Calls() // zero: decoding computes no distances
	mt.counter.Reset()
	mt.verifier = newVerifier(m, cfg.Params, db)
	return mt, nil
}
