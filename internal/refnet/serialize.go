package refnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Persistence. A net is serialised as a flat adjacency list: nodes in a
// stable walk order with their levels and items, plus parent→child edges
// carrying the stored distances. Cover radii are not stored: Load
// re-derives them from the edge distances once the nodes are linked (the
// format is the one written before nodes carried a measured radius, so
// older snapshots restore unchanged). Loading therefore needs NO distance
// computations — important when the metric is expensive (edit distances
// over long windows), since rebuilding a 100K-window net costs millions
// of distance evaluations while decoding costs none.
//
// # Format (version 2)
//
// All integers little-endian. The stream is framed so that a decoder can
// validate every length before allocating, and the whole payload is
// covered by a trailing CRC so corruption yields a typed CorruptError
// with a byte-offset witness, never a panic or a silently wrong net.
//
//	magic   "RNETv2\x00\x00"  8 bytes
//	base    float64           level-0 radius ǫ′ (> 0, finite)
//	numMax  uint32            parent cap (0 = unlimited)
//	nodes   uint32            node count (≤ maxWireNodes)
//	edges   uint64            parent→child edge count (≤ maxWireEdges)
//	levels  nodes × uint32    storage level of node i (node 0 is the root)
//	ilen    uint64            byte length of the items block (≤ maxWireBlock)
//	items   ilen bytes        gob-encoded []T, one payload per node
//	edge i  uint32 uint32 float64   parent index, child index, stored distance
//	crc     uint32            IEEE CRC-32 of every preceding byte
//
// The item type T must be encodable by encoding/gob (exported fields,
// no functions). The distance function is not serialised; the loader
// supplies it and remains responsible for it matching the builder's
// (Validate can verify, at the cost of recomputing every edge).

var wireMagic = [8]byte{'R', 'N', 'E', 'T', 'v', '2', 0, 0}

// Sanity caps. A length prefix beyond these is rejected before any
// allocation, so a corrupt or adversarial stream cannot OOM the loader.
const (
	maxWireNodes = 1 << 28 // 268M nodes
	maxWireEdges = 1 << 32 // parent links (multi-parent: can exceed nodes)
	maxWireBlock = 1 << 32 // gob items block bytes
)

// CorruptError reports a malformed snapshot stream. Offset is the number
// of bytes consumed from the reader when the problem was detected — the
// witness for "where did it go wrong" in operational debugging.
type CorruptError struct {
	Offset int64
	Reason string
	Err    error // underlying decode/IO error, when one exists
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("refnet: corrupt stream at offset %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("refnet: corrupt stream at offset %d: %s", e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// crcWriter tees writes into a running CRC and tracks the byte offset.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	off int64
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, crc: crc32.NewIEEE()}
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc.Write(p[:n])
	cw.off += int64(n)
	return n, err
}

// crcReader mirrors crcWriter on the decode side.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
	off int64
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, crc: crc32.NewIEEE()}
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	cr.off += int64(n)
	return n, err
}

// corrupt builds the typed error at the reader's current offset.
func (cr *crcReader) corrupt(reason string, err error) *CorruptError {
	return &CorruptError{Offset: cr.off, Reason: reason, Err: err}
}

// readFull wraps io.ReadFull with the typed error; what names the field
// being read so truncation errors say which part of the frame was cut.
func (cr *crcReader) readFull(buf []byte, what string) error {
	if _, err := io.ReadFull(cr, buf); err != nil {
		return cr.corrupt("truncated "+what, err)
	}
	return nil
}

// readBlock reads exactly n bytes, growing the result as the stream
// delivers them rather than trusting the claimed length up front — a
// corrupt header announcing a multi-gigabyte block therefore fails at the
// stream's real end instead of pre-allocating the lie.
func (cr *crcReader) readBlock(n int64, what string) ([]byte, error) {
	var buf bytes.Buffer
	m, err := io.Copy(&buf, io.LimitReader(cr, n))
	if err != nil {
		return nil, cr.corrupt("truncated "+what, err)
	}
	if m != n {
		return nil, cr.corrupt(fmt.Sprintf("truncated %s: %d of %d bytes", what, m, n), io.ErrUnexpectedEOF)
	}
	return buf.Bytes(), nil
}

// Save writes the net to w in the versioned binary format above.
func (t *Net[T]) Save(w io.Writer) error {
	// Gob-encode the item payloads first so the block can be length-framed
	// (the decoder must not read past it: gob buffers ahead otherwise).
	var items bytes.Buffer
	index := make(map[*Node[T]]uint32, t.size)
	payload := make([]T, 0, t.size)
	levels := make([]uint32, 0, t.size)
	edges := 0
	t.walk(func(n *Node[T]) {
		index[n] = uint32(len(payload))
		payload = append(payload, n.item)
		levels = append(levels, uint32(n.level))
		edges += len(n.children)
	})
	if err := gob.NewEncoder(&items).Encode(payload); err != nil {
		return fmt.Errorf("refnet: encode items: %w", err)
	}

	cw := newCRCWriter(w)
	if _, err := cw.Write(wireMagic[:]); err != nil {
		return fmt.Errorf("refnet: write header: %w", err)
	}
	var head [24]byte
	binary.LittleEndian.PutUint64(head[0:], math.Float64bits(t.base))
	binary.LittleEndian.PutUint32(head[8:], uint32(t.numMax))
	binary.LittleEndian.PutUint32(head[12:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(head[16:], uint64(edges))
	if _, err := cw.Write(head[:]); err != nil {
		return fmt.Errorf("refnet: write header: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, levels); err != nil {
		return fmt.Errorf("refnet: write levels: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, uint64(items.Len())); err != nil {
		return fmt.Errorf("refnet: write items: %w", err)
	}
	if _, err := cw.Write(items.Bytes()); err != nil {
		return fmt.Errorf("refnet: write items: %w", err)
	}
	var erec [16]byte
	var werr error
	t.walk(func(n *Node[T]) {
		pi := index[n]
		for _, e := range n.children {
			binary.LittleEndian.PutUint32(erec[0:], pi)
			binary.LittleEndian.PutUint32(erec[4:], index[e.n])
			binary.LittleEndian.PutUint64(erec[8:], math.Float64bits(e.d))
			if _, err := cw.Write(erec[:]); err != nil && werr == nil {
				werr = err
			}
		}
	})
	if werr != nil {
		return fmt.Errorf("refnet: write edges: %w", werr)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], cw.crc.Sum32())
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("refnet: write checksum: %w", err)
	}
	return nil
}

// Load reads a net written by Save, attaching the given distance function
// (which must be the same metric the net was built with). Malformed input
// — wrong magic, truncation, out-of-range lengths, dangling edges, or a
// checksum mismatch — returns a *CorruptError carrying the byte offset at
// which the problem surfaced; Load never panics and never returns a
// structurally inconsistent net.
func Load[T any](r io.Reader, dist func(a, b T) float64) (*Net[T], error) {
	cr := newCRCReader(r)
	var magic [8]byte
	if err := cr.readFull(magic[:], "magic"); err != nil {
		return nil, err
	}
	if magic != wireMagic {
		return nil, cr.corrupt(fmt.Sprintf("bad magic %q (not a refnet v2 stream)", magic[:]), nil)
	}
	var head [24]byte
	if err := cr.readFull(head[:], "header"); err != nil {
		return nil, err
	}
	base := math.Float64frombits(binary.LittleEndian.Uint64(head[0:]))
	numMax := binary.LittleEndian.Uint32(head[8:])
	nodes := binary.LittleEndian.Uint32(head[12:])
	edges := binary.LittleEndian.Uint64(head[16:])
	if !(base > 0) || math.IsInf(base, 1) { // NaN fails the > comparison too
		return nil, cr.corrupt(fmt.Sprintf("base radius %v not positive finite", base), nil)
	}
	if nodes > maxWireNodes {
		return nil, cr.corrupt(fmt.Sprintf("node count %d exceeds cap %d", nodes, maxWireNodes), nil)
	}
	if edges > maxWireEdges {
		return nil, cr.corrupt(fmt.Sprintf("edge count %d exceeds cap %d", edges, maxWireEdges), nil)
	}
	if nodes > 0 && edges > uint64(nodes)*uint64(nodes) {
		return nil, cr.corrupt(fmt.Sprintf("edge count %d impossible for %d nodes", edges, nodes), nil)
	}

	lraw, err := cr.readBlock(int64(nodes)*4, "levels")
	if err != nil {
		return nil, err
	}
	levels := make([]uint32, nodes)
	for i := range levels {
		levels[i] = binary.LittleEndian.Uint32(lraw[4*i:])
	}
	var lenb [8]byte
	if err := cr.readFull(lenb[:], "items length"); err != nil {
		return nil, err
	}
	ilen := binary.LittleEndian.Uint64(lenb[:])
	if ilen > maxWireBlock {
		return nil, cr.corrupt(fmt.Sprintf("items block %d bytes exceeds cap %d", ilen, maxWireBlock), nil)
	}
	itemsRaw, err := cr.readBlock(int64(ilen), "items block")
	if err != nil {
		return nil, err
	}
	var payload []T
	if err := gob.NewDecoder(bytes.NewReader(itemsRaw)).Decode(&payload); err != nil {
		return nil, cr.corrupt("items gob decode", err)
	}
	if uint32(len(payload)) != nodes {
		return nil, cr.corrupt(fmt.Sprintf("items block holds %d payloads, header says %d nodes", len(payload), nodes), nil)
	}

	t := &Net[T]{dist: dist, base: base, numMax: int(numMax), size: int(nodes)}
	ns := make([]*Node[T], nodes)
	for i := range ns {
		ns[i] = &Node[T]{item: payload[i], level: int(levels[i]), id: int32(i)}
	}
	t.nextID = int32(nodes)

	var erec [16]byte
	for i := uint64(0); i < edges; i++ {
		if err := cr.readFull(erec[:], "edges"); err != nil {
			return nil, err
		}
		pi := binary.LittleEndian.Uint32(erec[0:])
		ci := binary.LittleEndian.Uint32(erec[4:])
		d := math.Float64frombits(binary.LittleEndian.Uint64(erec[8:]))
		if pi >= nodes || ci >= nodes {
			return nil, cr.corrupt(fmt.Sprintf("edge %d references node %d/%d of %d", i, pi, ci, nodes), nil)
		}
		if ci == 0 {
			return nil, cr.corrupt(fmt.Sprintf("edge %d makes the root a child", i), nil)
		}
		if math.IsNaN(d) || d < 0 {
			return nil, cr.corrupt(fmt.Sprintf("edge %d has invalid distance %v", i, d), nil)
		}
		p, c := ns[pi], ns[ci]
		if c.level >= p.level {
			// Levels strictly fall along every link of a real net: no
			// cycles, so every walk along links ends.
			return nil, cr.corrupt(fmt.Sprintf("edge %d links level %d under level %d", i, c.level, p.level), nil)
		}
		p.children = append(p.children, edge[T]{n: c, d: d})
		c.parents = append(c.parents, edge[T]{n: p, d: d})
	}

	// The trailing CRC covers everything decoded above. Check it before
	// wiring the net up for use: a mismatch means some field already parsed
	// may be silently wrong even though it passed the structural checks.
	wantOff := cr.off
	sum := cr.crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(cr.r, tail[:]); err != nil {
		return nil, &CorruptError{Offset: wantOff, Reason: "truncated checksum", Err: err}
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != sum {
		return nil, &CorruptError{Offset: wantOff, Reason: fmt.Sprintf("checksum mismatch: stream says %08x, payload hashes to %08x", got, sum)}
	}

	if nodes == 0 {
		return t, nil
	}
	t.root = ns[0]
	for i, n := range ns {
		if i != 0 && len(n.parents) == 0 {
			return nil, &CorruptError{Offset: wantOff, Reason: fmt.Sprintf("node %d unreachable (no parents)", i)}
		}
	}
	// Cover radii are not in the stream; they are a function of the stored
	// edge distances alone. Children sit at strictly lower levels, so one
	// pass in ascending level order finds every child's radius final, and
	// lands on the same bits the saved net held (the invariant is an
	// equality; see raise).
	slices.SortFunc(ns, func(a, b *Node[T]) int { return a.level - b.level })
	for _, n := range ns {
		n.rho = n.reach()
	}
	return t, nil
}
