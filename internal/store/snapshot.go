package store

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/seq"
)

// Snapshot wire format, version 1. The stream is framed by
// internal/frame: everything is little-endian, lengths are capped before
// allocating, and the whole stream is covered by a trailing CRC32 (IEEE),
// so any single-byte corruption is caught before a damaged index reaches
// a serving process. The layout inside the frame:
//
//	offset  size  field
//	0       8     magic "SSNAPv1\0"
//	8       4     header length H (uint32, ≤ 1 MiB)
//	12      H     header (gob-encoded Header)
//	...     8     sequence block length S (uint64, ≤ frame.MaxBlock = 4 GiB)
//	...     S     sequences (gob-encoded []seq.Sequence[E], tombstones
//	              listed in Header.Tombstones — the decoder re-nils them)
//	...     8     TTL block length T (uint64, ≤ 4 GiB)
//	...     T     TTL table (gob-encoded []ttlEntry, sorted by SeqID)
//	...     8     index block length I (uint64, ≤ 4 GiB)
//	...     I     serialised index (refnet.Save bytes; I = 0 for backends
//	              with no serialised form, which Open rebuilds from the
//	              sequences)
//	...     4     CRC32-IEEE of every preceding byte
//
// The header names the measure, element type, backend and every
// construction parameter; Open refuses a snapshot whose header does not
// match the session it is being opened under (see MismatchError), so a
// byte-identical index can never be silently reinterpreted under a
// different distance.
const (
	snapMagic = "SSNAPv1\x00"

	// FormatVersion is the snapshot format version this build writes and
	// the only one it accepts.
	FormatVersion = 1

	maxHeaderBytes = 1 << 20
)

// Header is the snapshot's self-description: enough to reconstruct the
// matcher configuration and to refuse restoration under a mismatched
// session. Parameter fields hold the values the store was configured
// with (0 meaning "the default", exactly as in core.Config).
type Header struct {
	Version    int
	Measure    string // measure name (dist.Measure.Name)
	Elem       string // element type: "byte", "float64", "point2"
	Backend    string // index backend: "refnet", "covertree", "mv", "linear"
	Lambda     int
	Lambda0    int
	WindowLen  int // derived λ/2, for display
	Base       float64
	MaxParents int
	MVRefs     int
	Seed       uint64
	Sequences  int   // sequence IDs allocated (including tombstones)
	Live       int   // non-tombstoned sequences
	Windows    int   // indexed windows at snapshot time
	Tombstones []int // retired sequence IDs
}

// ttlEntry is one row of the serialised TTL table.
type ttlEntry struct {
	SeqID  int
	Expire int64 // unix nanoseconds
}

// CorruptError reports a snapshot stream that cannot be decoded: it
// carries the byte offset at which decoding failed and the reason. It is
// frame.CorruptError, the type the embedded net stream fails with too.
type CorruptError = frame.CorruptError

// MismatchError reports a well-formed snapshot that belongs to a
// different session: a field of its header disagrees with what the
// opener requires. Restoring anyway would silently reinterpret the index
// under the wrong distance or parameters, so Open refuses with the
// field, the snapshot's value and the required value spelled out.
type MismatchError struct {
	Field string // which header field disagrees
	Got   string // the snapshot's value
	Want  string // the opener's value
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("store: snapshot was taken under %s %q but this session requires %q; rebuild or open under the matching session", e.Field, e.Got, e.Want)
}

// parseBackend maps a header backend name to its core.IndexKind.
func parseBackend(name string) (core.IndexKind, bool) {
	for _, k := range []core.IndexKind{core.IndexRefNet, core.IndexCoverTree, core.IndexMV, core.IndexLinearScan} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// header builds the store's self-description. Caller holds at least the
// read lock.
func (s *Store[E]) header() Header {
	db := s.mt.DB()
	h := Header{
		Version:    FormatVersion,
		Measure:    s.measure.Name,
		Elem:       dist.ElemName[E](),
		Backend:    s.cfg.Index.String(),
		Lambda:     s.cfg.Params.Lambda,
		Lambda0:    s.cfg.Params.Lambda0,
		WindowLen:  s.cfg.Params.WindowLen(),
		Base:       s.cfg.Base,
		MaxParents: s.cfg.MaxParents,
		MVRefs:     s.cfg.MVRefs,
		Seed:       s.cfg.Seed,
		Sequences:  len(db),
		Windows:    s.mt.NumWindows(),
	}
	for id, x := range db {
		if x == nil {
			h.Tombstones = append(h.Tombstones, id)
		} else {
			h.Live++
		}
	}
	return h
}

// writeSnapshot emits the full snapshot stream. Caller holds at least
// the read lock.
func (s *Store[E]) writeSnapshot(w io.Writer) error {
	// Gob numbers types per process in first-use order, so the header,
	// the sequences and the TTL table are encoded before SaveIndex
	// encodes the net's items: the other order writes other bytes.
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(s.header()); err != nil {
		return fmt.Errorf("store: snapshot: encoding header: %w", err)
	}
	ttls := make([]ttlEntry, 0, len(s.expiry))
	for id, deadline := range s.expiry {
		ttls = append(ttls, ttlEntry{SeqID: id, Expire: deadline.UnixNano()})
	}
	// Sorted, so identical store states in one process write identical bytes.
	slices.SortFunc(ttls, func(a, b ttlEntry) int { return cmp.Compare(a.SeqID, b.SeqID) })

	fw := frame.NewWriter(w, snapMagic)
	fw.Fixed(uint32(hdr.Len()))
	fw.Bytes(hdr.Bytes())
	fw.GobBlock(s.mt.DB())
	fw.GobBlock(ttls)
	var index bytes.Buffer
	if s.cfg.Index == core.IndexRefNet {
		if err := s.mt.SaveIndex(&index); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
	}
	fw.Block(index.Bytes())
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// ReadHeader decodes and returns just the snapshot header from r,
// without restoring anything — the inspection path (subseqctl and the
// registry use it to explain what a snapshot contains, and to refuse
// mismatched restores before any decoding work happens). The stream CRC
// is NOT verified (that requires reading the whole stream; Open does).
func ReadHeader(r io.Reader) (Header, error) {
	_, h, err := readHeader(r)
	return h, err
}

// readHeader opens the frame on r and decodes the header, leaving the
// reader at the sequence block.
func readHeader(r io.Reader) (*frame.Reader, Header, error) {
	fr, err := frame.NewReader(r, snapMagic, "store snapshot")
	if err != nil {
		return nil, Header{}, err
	}
	var hlen uint32
	if err := fr.Fixed(&hlen, "header length"); err != nil {
		return nil, Header{}, err
	}
	if hlen > maxHeaderBytes {
		return nil, Header{}, fr.Corrupt(fmt.Sprintf("header length %d exceeds cap %d", hlen, maxHeaderBytes), nil)
	}
	hbytes, err := fr.Bytes(int64(hlen), "header")
	if err != nil {
		return nil, Header{}, err
	}
	var h Header
	if err := gob.NewDecoder(bytes.NewReader(hbytes)).Decode(&h); err != nil {
		return nil, Header{}, fr.Corrupt("decoding header", err)
	}
	if h.Version != FormatVersion {
		return nil, Header{}, fr.Corrupt(fmt.Sprintf("snapshot format version %d; this build reads version %d", h.Version, FormatVersion), nil)
	}
	return fr, h, nil
}

// Open restores a Store from a snapshot stream written by Snapshot,
// under the measure m. The snapshot header is validated first: the
// element type and measure name must match m, and check (if non-nil) may
// impose further requirements — the registry passes a check that holds
// the header against the resolved session spec, so a mismatched restore
// is refused with the offending field explained rather than producing a
// silently wrong index. For the reference-net backend the index
// structure is decoded, not rebuilt: restoring computes zero distances.
// A checksummed stream whose blocks disagree with each other — an index
// block that does not restore over the sequences, or a window count the
// restored index does not have — is a *CorruptError too.
func Open[E any](r io.Reader, m dist.Measure[E], check func(Header) error, opts ...Option) (*Store[E], error) {
	fr, h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if elem := dist.ElemName[E](); h.Elem != elem {
		return nil, &MismatchError{Field: "element type", Got: h.Elem, Want: elem}
	}
	if h.Measure != m.Name {
		return nil, &MismatchError{Field: "measure", Got: h.Measure, Want: m.Name}
	}
	kind, ok := parseBackend(h.Backend)
	if !ok {
		return nil, fr.Corrupt(fmt.Sprintf("unknown backend %q", h.Backend), nil)
	}
	if check != nil {
		if err := check(h); err != nil {
			return nil, err
		}
	}

	var db []seq.Sequence[E]
	if err := fr.GobBlock(&db, "sequence block"); err != nil {
		return nil, err
	}
	if len(db) != h.Sequences {
		return nil, fr.Corrupt(fmt.Sprintf("header claims %d sequences, block holds %d", h.Sequences, len(db)), nil)
	}
	for _, id := range h.Tombstones {
		if id < 0 || id >= len(db) {
			return nil, fr.Corrupt(fmt.Sprintf("tombstone id %d out of range [0,%d)", id, len(db)), nil)
		}
		db[id] = nil
	}

	var ttls []ttlEntry
	if err := fr.GobBlock(&ttls, "TTL block"); err != nil {
		return nil, err
	}
	for _, e := range ttls {
		if e.SeqID < 0 || e.SeqID >= len(db) || db[e.SeqID] == nil {
			return nil, fr.Corrupt(fmt.Sprintf("TTL entry for absent sequence %d", e.SeqID), nil)
		}
	}

	indexOff := fr.Offset()
	ibytes, err := fr.Block("index block")
	if err != nil {
		return nil, err
	}
	// Verify the stream checksum before building anything from it.
	if err := fr.Verify(); err != nil {
		return nil, err
	}

	cfg := core.Config{
		Params:     core.Params{Lambda: h.Lambda, Lambda0: h.Lambda0},
		Index:      kind,
		Base:       h.Base,
		MaxParents: h.MaxParents,
		MVRefs:     h.MVRefs,
		Seed:       h.Seed,
	}
	var mt *core.Matcher[E]
	switch {
	case kind == core.IndexRefNet:
		if len(ibytes) == 0 {
			return nil, &CorruptError{Offset: indexOff, Reason: "refnet snapshot has no index block"}
		}
		if mt, err = core.NewMatcherFromSavedIndex(m, cfg, db, bytes.NewReader(ibytes)); err != nil {
			return nil, &CorruptError{Offset: indexOff, Reason: "index block does not restore", Err: err}
		}
	default:
		// Backends with no serialised form rebuild from the sequences.
		if mt, err = core.NewMatcher(m, cfg, db); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	if mt.NumWindows() != h.Windows {
		return nil, fr.Corrupt(fmt.Sprintf("restored index holds %d windows, header claims %d", mt.NumWindows(), h.Windows), nil)
	}
	s := adopt(m, cfg, mt, opts...)
	for _, e := range ttls {
		s.expiry[e.SeqID] = time.Unix(0, e.Expire)
	}
	return s, nil
}

// OpenFile is Open over a snapshot file.
func OpenFile[E any](path string, m dist.Measure[E], check func(Header) error, opts ...Option) (*Store[E], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	defer f.Close()
	return Open(f, m, check, opts...)
}

// Quarantine moves a snapshot that failed to restore out of the way —
// renamed to path + ".corrupt" — so the serving process can fall back to
// a fresh build without the next restart tripping over the same bad
// bytes, while keeping them on disk for forensics. An existing
// quarantined file at the target is overwritten (the newest corpse is
// the interesting one). Returns the quarantine path.
func Quarantine(path string) (string, error) {
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("store: quarantine %s: %w", path, err)
	}
	return dst, nil
}
