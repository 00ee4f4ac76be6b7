package refnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/frame"
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
// The stream is framed by internal/frame: every length is validated
// before allocating, and a trailing CRC covers the whole payload, so
// corruption yields a typed CorruptError with a byte-offset witness,
// never a panic or a silently wrong net. All integers little-endian.
//
//	magic   "RNETv2\x00\x00"  8 bytes
//	base    float64           level-0 radius ǫ′ (> 0, finite)
//	numMax  uint32            parent cap (0 = unlimited)
//	nodes   uint32            node count (≤ maxWireNodes)
//	edges   uint64            parent→child edge count (≤ maxWireEdges)
//	levels  nodes × uint32    storage level of node i (node 0 is the root)
//	ilen    uint64            byte length of the items block (≤ frame.MaxBlock)
//	items   ilen bytes        gob-encoded []T, one payload per node
//	edge i  uint32 uint32 float64   parent index, child index, stored distance
//	crc     uint32            IEEE CRC-32 of every preceding byte
//
// The item type T must be encodable by encoding/gob (exported fields,
// no functions). The distance function is not serialised; the loader
// supplies it and remains responsible for it matching the builder's
// (Validate can verify, at the cost of recomputing every edge).

const wireMagic = "RNETv2\x00\x00"

// wireHeader is the fixed part of the stream after the magic.
type wireHeader struct {
	Base   float64
	NumMax uint32
	Nodes  uint32
	Edges  uint64
}

// Sanity caps. A count beyond these is rejected before any allocation,
// so a corrupt or adversarial stream cannot OOM the loader.
const (
	maxWireNodes = 1 << 28 // 268M nodes
	maxWireEdges = 1 << 32 // parent links (multi-parent: can exceed nodes)
)

// CorruptError reports a malformed stream. It is frame.CorruptError, the
// one corruption type of every persisted format here, so a net stream
// damaged inside a store snapshot is caught by the same errors.As.
type CorruptError = frame.CorruptError

// Save writes the net to w in the versioned binary format above.
func (t *Net[T]) Save(w io.Writer) error {
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

	fw := frame.NewWriter(w, wireMagic)
	fw.Fixed(wireHeader{Base: t.base, NumMax: uint32(t.numMax), Nodes: uint32(len(payload)), Edges: uint64(edges)})
	fw.Fixed(levels)
	// The items are a length-framed block: the decoder must not read past
	// it, and gob buffers ahead otherwise.
	fw.GobBlock(payload)
	var erec [16]byte
	t.walk(func(n *Node[T]) {
		pi := index[n]
		for _, e := range n.children {
			binary.LittleEndian.PutUint32(erec[0:], pi)
			binary.LittleEndian.PutUint32(erec[4:], index[e.n])
			binary.LittleEndian.PutUint64(erec[8:], math.Float64bits(e.d))
			fw.Bytes(erec[:])
		}
	})
	if err := fw.Finish(); err != nil {
		return fmt.Errorf("refnet: save: %w", err)
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
	fr, err := frame.NewReader(r, wireMagic, "refnet v2 stream")
	if err != nil {
		return nil, err
	}
	var h wireHeader
	if err := fr.Fixed(&h, "header"); err != nil {
		return nil, err
	}
	base, nodes, edges := h.Base, h.Nodes, h.Edges
	if !(base > 0) || math.IsInf(base, 1) { // NaN fails the > comparison too
		return nil, fr.Corrupt(fmt.Sprintf("base radius %v not positive finite", base), nil)
	}
	if nodes > maxWireNodes {
		return nil, fr.Corrupt(fmt.Sprintf("node count %d exceeds cap %d", nodes, maxWireNodes), nil)
	}
	if edges > maxWireEdges {
		return nil, fr.Corrupt(fmt.Sprintf("edge count %d exceeds cap %d", edges, maxWireEdges), nil)
	}
	if nodes > 0 && edges > uint64(nodes)*uint64(nodes) {
		return nil, fr.Corrupt(fmt.Sprintf("edge count %d impossible for %d nodes", edges, nodes), nil)
	}

	levels, err := fr.Bytes(int64(nodes)*4, "levels")
	if err != nil {
		return nil, err
	}
	var payload []T
	if err := fr.GobBlock(&payload, "items block"); err != nil {
		return nil, err
	}
	if uint32(len(payload)) != nodes {
		return nil, fr.Corrupt(fmt.Sprintf("items block holds %d payloads, header says %d nodes", len(payload), nodes), nil)
	}

	t := &Net[T]{dist: dist, base: base, numMax: int(h.NumMax), size: int(nodes)}
	ns := make([]*Node[T], nodes)
	for i := range ns {
		ns[i] = &Node[T]{item: payload[i], level: int(binary.LittleEndian.Uint32(levels[4*i:])), id: int32(i)}
	}
	t.nextID = int32(nodes)

	var erec [16]byte
	for i := uint64(0); i < edges; i++ {
		if err := fr.Fixed(erec[:], "edges"); err != nil {
			return nil, err
		}
		pi := binary.LittleEndian.Uint32(erec[0:])
		ci := binary.LittleEndian.Uint32(erec[4:])
		d := math.Float64frombits(binary.LittleEndian.Uint64(erec[8:]))
		if pi >= nodes || ci >= nodes {
			return nil, fr.Corrupt(fmt.Sprintf("edge %d references node %d/%d of %d", i, pi, ci, nodes), nil)
		}
		if ci == 0 {
			return nil, fr.Corrupt(fmt.Sprintf("edge %d makes the root a child", i), nil)
		}
		if math.IsNaN(d) || d < 0 {
			return nil, fr.Corrupt(fmt.Sprintf("edge %d has invalid distance %v", i, d), nil)
		}
		p, c := ns[pi], ns[ci]
		if c.level >= p.level {
			// Levels strictly fall along every link of a real net: no
			// cycles, so every walk along links ends.
			return nil, fr.Corrupt(fmt.Sprintf("edge %d links level %d under level %d", i, c.level, p.level), nil)
		}
		p.children = append(p.children, edge[T]{n: c, d: d})
		c.parents = append(c.parents, edge[T]{n: p, d: d})
	}

	// The trailing CRC covers everything decoded above. Check it before
	// wiring the net up for use.
	if err := fr.Verify(); err != nil {
		return nil, err
	}

	if nodes == 0 {
		return t, nil
	}
	t.root = ns[0]
	for i, n := range ns {
		if i != 0 && len(n.parents) == 0 {
			return nil, fr.Corrupt(fmt.Sprintf("node %d unreachable (no parents)", i), nil)
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
