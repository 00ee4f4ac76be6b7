package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	subseq "repro"
	"repro/internal/seq"
)

// Answer checking. Every answer is reduced to one canonical form — matches
// in the verifier's canonical order, filter hits sorted by coordinates — so
// the same comparison serves the in-process oracle (a second matcher on the
// exhaustive linear-scan filter), the HTTP workloads (bodies decoded into
// the same form) and the pinned digests.

// hit is a filter hit's coordinates.
type hit struct {
	SeqID, WindowStart, WindowEnd, SegStart, SegEnd int
}

// answer is the canonical form of one query's result.
type answer struct {
	Kind    opKind
	Found   bool           // longest, nearest
	Matches []subseq.Match // findall: all matches; longest, nearest: the best one when Found
	Hits    []hit          // filter
}

func sortHits(hs []hit) {
	sort.Slice(hs, func(i, j int) bool {
		a, b := hs[i], hs[j]
		switch {
		case a.SeqID != b.SeqID:
			return a.SeqID < b.SeqID
		case a.WindowStart != b.WindowStart:
			return a.WindowStart < b.WindowStart
		case a.SegStart != b.SegStart:
			return a.SegStart < b.SegStart
		default:
			return a.SegEnd < b.SegEnd
		}
	})
}

func canonHits[E any](hs []subseq.Hit[E]) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{h.Window.SeqID, h.Window.Start, h.Window.End(), h.Segment.Start, h.Segment.End()}
	}
	sortHits(out)
	return out
}

func bestAnswer(kind opKind, m subseq.Match, found bool) answer {
	a := answer{Kind: kind, Found: found}
	if found {
		a.Matches = []subseq.Match{m}
	}
	return a
}

// answerQuery answers one single-query op on mt in canonical form.
func answerQuery[E any](mt *subseq.Matcher[E], q seq.Sequence[E], kind opKind, eps float64) answer {
	switch kind {
	case opFindAll:
		return answer{Kind: kind, Matches: mt.FindAll(q, eps)}
	case opLongest:
		m, ok := mt.Longest(q, eps)
		return bestAnswer(kind, m, ok)
	case opNearest:
		m, ok := mt.Nearest(q, subseq.NearestOptions{EpsMax: eps, EpsInc: 1})
		return bestAnswer(kind, m, ok)
	case opFilter:
		return answer{Kind: kind, Hits: canonHits(mt.FilterHits(q, eps))}
	}
	panic(fmt.Sprintf("bench: %v is not a single-query op", kind))
}

// diff reports the first field in which two answers differ, "" if none.
func (a answer) diff(b answer) string {
	switch {
	case a.Kind != b.Kind:
		return fmt.Sprintf("kind %v vs %v", a.Kind, b.Kind)
	case a.Found != b.Found:
		return fmt.Sprintf("found %v vs %v", a.Found, b.Found)
	case len(a.Matches) != len(b.Matches):
		return fmt.Sprintf("%d matches vs %d", len(a.Matches), len(b.Matches))
	case len(a.Hits) != len(b.Hits):
		return fmt.Sprintf("%d hits vs %d", len(a.Hits), len(b.Hits))
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return fmt.Sprintf("match %d: %v vs %v", i, a.Matches[i], b.Matches[i])
		}
	}
	for i := range a.Hits {
		if a.Hits[i] != b.Hits[i] {
			return fmt.Sprintf("hit %d: %+v vs %+v", i, a.Hits[i], b.Hits[i])
		}
	}
	return ""
}

// digester folds canonical answers into one SHA-256.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) ints(vs ...int) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(int64(v)))
	}
}

func (d *digester) add(a answer) {
	d.buf = d.buf[:0]
	found := 0
	if a.Found {
		found = 1
	}
	d.ints(int(a.Kind), found, len(a.Matches), len(a.Hits))
	for _, m := range a.Matches {
		d.ints(m.SeqID, m.QStart, m.QEnd, m.XStart, m.XEnd)
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(m.Dist))
	}
	for _, h := range a.Hits {
		d.ints(h.SeqID, h.WindowStart, h.WindowEnd, h.SegStart, h.SegEnd)
	}
	d.h.Write(d.buf)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// oracleEvery is the stride of the in-process answer check: every 8th query
// of the counted prefix is re-answered on the exhaustive backend.
const oracleEvery = 8
