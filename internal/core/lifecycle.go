package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/seq"
)

// Index lifecycle: live mutation of a built matcher, plus index
// serialisation for restart-without-rebuild. These methods mutate shared
// matcher state (the window slice, the backend, the lazily-built kernel
// tables), so they are NOT safe to call concurrently with queries or with
// each other — the owning tier (internal/store) serialises them behind a
// write lock and drains in-flight queries first. A freshly constructed or
// restored matcher answers queries bit-identically to one rebuilt from
// scratch over the same final database; the store oracle
// (internal/store oracle_test.go) holds every backend to that.

// ErrRetireUnsupported is returned by RetireSequence on backends with no
// deletion operation (the cover tree baseline).
var ErrRetireUnsupported = errors.New("core: index backend does not support retiring sequences")

// ErrSaveUnsupported is returned by SaveIndex on backends with no
// serialised form; their matchers are rebuilt from raw sequences instead
// (see store snapshot format notes).
var ErrSaveUnsupported = errors.New("core: index backend does not support serialisation")

// AppendSequence partitions x into windows of length λ/2, inserts them
// into the live index, and returns the new sequence's ID plus the number
// of windows added (a trailing run shorter than λ/2 is discarded, so a
// short sequence can add zero windows and still occupy an ID). The matcher
// answers subsequent queries exactly as if it had been built over the
// extended database from scratch. Not safe concurrently with queries.
func (mt *Matcher[E]) AppendSequence(x seq.Sequence[E]) (seqID, added int, err error) {
	seqID = len(mt.db)
	wins := seq.Partition(seqID, x, mt.cfg.Params.WindowLen())
	for _, w := range wins {
		mt.index.insert(w)
	}
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
// of windows removed. A backend with no deletion (the cover tree) returns
// ErrRetireUnsupported. Not safe concurrently with queries.
func (mt *Matcher[E]) RetireSequence(seqID int) (removed int, err error) {
	if seqID < 0 || seqID >= len(mt.db) {
		return 0, fmt.Errorf("core: retire: sequence %d does not exist (database holds %d)", seqID, len(mt.db))
	}
	if mt.db[seqID] == nil {
		return 0, fmt.Errorf("core: retire: sequence %d already retired", seqID)
	}
	if removed, err = mt.index.remove(seqID, len(mt.db[seqID])/mt.cfg.Params.WindowLen()); err != nil {
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
// kernelScan relies on (the linear backend's item order is kept in lockstep
// by LinearScan.RemoveFunc).
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
func (mt *Matcher[E]) SaveIndex(w io.Writer) error { return mt.index.save(w) }

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
	if cfg.Index != IndexRefNet {
		return nil, fmt.Errorf("core: restore: backend %v has no serialised form", cfg.Index)
	}
	return newMatcher(m, cfg, db, func(mt *Matcher[E]) (backend[E], error) {
		return loadNetBackend(mt, r)
	})
}
