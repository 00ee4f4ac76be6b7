package core

import (
	"slices"

	"repro/internal/dist"
)

// costRows prices each ground cost once per kernel binding. The passes run
// over one bound window feed overlapping stretches of the query: the
// filter's free-start pass over a node and the exact passes at the offsets
// it leaves, the verifier's passes from neighbouring query starts against
// one database binding. Under an edit-row measure (dist.CostRower) every
// such feed of q[pos] prices the same row of substitution costs against the
// window — two ground distances a DP cell under ERP — so the rows are kept,
// keyed by query position, and each is priced by the first pass that feeds
// its position and read by every later one.
//
// A banded pass (dist.RowKernel.Within) reads only a span of each row
// (dist.RowKernel.Span) and asks for that span alone (cols), an unbanded one
// for the whole row (at): a row's priced columns are kept as one interval,
// the hull of the spans asked of it in the binding, so neighbouring passes
// whose bands overlap share them too.
//
// The rows hold for one binding: bind starts a new one by bumping the
// epoch, which retires every row the last binding priced without clearing
// any. A pass over a binding without rows (a Myers table, a lock-step
// kernel, the Fn adapter) feeds its kernel as before. Each cost is the call
// Feed would make on the same inputs, and the DP consumes it in the same
// order, so every distance keeps its bits and a pass still counts one
// evaluation.
type costRows[E any] struct {
	cr dist.CostRower[E] // the binding's; nil when it has no rows
	// none is set at the first binding without rows. A scratch serves one
	// matcher, whose windows share one measure, so it stops asking: a type
	// assertion per net node is ≈ 1 % of a Myers filter.
	none  bool
	q     []E
	width int
	// stamp[pos] == epoch marks row pos used in this binding: its indel cost
	// dx[pos] priced and its columns priced[pos][0] … priced[pos][1]-1 of
	// buf[pos*width:][:width].
	epoch  uint32
	stamp  []uint32
	dx     []float64
	priced [][2]int32
	buf    []float64
}

// bind starts a binding: the rows of q against p's window.
func (c *costRows[E]) bind(p dist.Prepared[E], q []E) {
	if c.none {
		return
	}
	if c.cr, _ = p.(dist.CostRower[E]); c.cr == nil {
		c.none = true
		return
	}
	c.q, c.width = q, p.WindowLen()
	if c.epoch++; c.epoch == 0 {
		clear(c.stamp[:cap(c.stamp)])
		c.epoch = 1
	}
	// Stamps past the old length carry epochs from before this binding, or
	// 0 when freshly allocated: either way, not this one.
	c.stamp = slices.Grow(c.stamp[:0], len(q))[:len(q)]
	c.dx = slices.Grow(c.dx[:0], len(q))[:len(q)]
	c.priced = slices.Grow(c.priced[:0], len(q))[:len(q)]
	c.buf = slices.Grow(c.buf[:0], len(q)*c.width)[:len(q)*c.width]
}

// reader returns k as a dist.RowKernel when the binding has rows and k
// takes them, else nil: k, bound to the binding's window, then prices its
// own costs. A pass feeds q[lo:hi] as rk.RunRows(c.span(lo, hi)) (q[pos]
// alone as rk.FeedRow(c.at(pos))) when rk is non-nil and as dist.Run or
// k.Feed otherwise, branching at the call site so that a kernel without
// rows (Myers: a few ns a feed) pays no extra call.
func (c *costRows[E]) reader(k dist.Kernel[E]) dist.RowKernel[E] {
	if c.cr == nil {
		return nil
	}
	rk, _ := k.(dist.RowKernel[E])
	return rk
}

// at returns row pos, priced whole, and its indel cost: an unbanded pass's
// read.
func (c *costRows[E]) at(pos int) ([]float64, float64) { return c.cols(pos, 0, c.width) }

// span returns rows lo … hi−1, each priced whole, back to back in the
// binding's buffer (one window length apart), and their indel costs: what
// an unbanded pass over q[lo:hi] hands dist.RowKernel.RunRows.
func (c *costRows[E]) span(lo, hi int) (rows, dx []float64) {
	for pos := lo; pos < hi; pos++ {
		c.at(pos)
	}
	return c.buf[lo*c.width : hi*c.width], c.dx[lo:hi]
}

// cols returns row pos, priced at least over columns [lo, hi), and its
// indel cost. What the binding has not priced yet of that, and the indel
// cost on the row's first use, is priced now; a span apart from the
// priced one is joined to it, the columns between priced too.
func (c *costRows[E]) cols(pos, lo, hi int) ([]float64, float64) {
	row := c.buf[pos*c.width : (pos+1)*c.width]
	have := &c.priced[pos]
	if c.stamp[pos] != c.epoch {
		c.dx[pos] = c.cr.Indel(c.q[pos])
		*have = [2]int32{}
		c.stamp[pos] = c.epoch
	}
	if lo < hi {
		if have[0] >= have[1] {
			*have = [2]int32{int32(lo), int32(lo)}
		}
		if l := int(have[0]); lo < l {
			c.cr.CostSpan(c.q[pos], row, lo, l)
			have[0] = int32(lo)
		}
		if h := int(have[1]); hi > h {
			c.cr.CostSpan(c.q[pos], row, h, hi)
			have[1] = int32(hi)
		}
	}
	return row, c.dx[pos]
}
