package dist

import "math"

// Incremental kernels.
//
// Step 3 of the framework extracts, at every query offset a, the segments
// q[a:a+L] for L = λ/2−λ0 … λ/2+λ0. Consecutive lengths at the same offset
// differ by exactly one trailing element, so computing their distances to a
// fixed database window independently repeats almost all of the work — a
// full edit DP per length costs O(L·l) cells, while extending an existing DP
// by the one new element costs a single O(l) row. A Kernel captures that
// structure: it binds the window once and is then fed the query elements
// left to right, reporting after every element the distance between the fed
// prefix and the window. One pass of λ/2+λ0 feeds prices all 2λ0+1 segment
// lengths, replacing 2λ0+1 independent evaluations.
//
// Kernels also exist for the lock-step measures (Euclidean, Hamming). There
// λ0 = 0 leaves a single segment length, so prefix sharing saves nothing —
// but the rolling accumulator form is the shape the lock-step bounded forms
// in bounded.go abandon early on, and keeping the two shapes identical lets
// the filter treat every measure uniformly. The edit-row measures' bounded
// form is this file's kernel itself, banded at the radius (editRowBounded).
//
// # The Prepared/state split
//
// A kernel has two halves with very different lifetimes. The window binding
// and its preprocessing — Myers peq bit tables (~2KB for a 64-byte window),
// the cumulative gap column of ERP, the empty-prefix base row of the edit
// DPs — are immutable once built and depend only on the window. The
// evaluation state — the current DP row, the vertical delta words, a rolling
// accumulator — is tiny and mutated on every Feed. Prepared is the first
// half: built once per database window and stored alongside the index, it is
// safe for concurrent use and mints per-worker mutable Kernels via NewState.
// That caps steady-state kernel memory at O(windows) — shared preprocessing
// plus one small state per worker — instead of the O(windows × workers)
// that per-worker kernel construction costs.
//
// # Feeding a stretch at once
//
// A state may also feed a whole stretch of the left-hand sequence in one
// call (Runner), with the per-element results written to a slice. The
// filter's passes are a few dozen feeds each and read only those results,
// so on a bit-parallel kernel, whose step is a handful of word operations,
// a call per element costs about as much as the steps do. Runner is to the
// call what CostRower and RowKernel are to the ground costs: the same
// values reached with less repeated work, bit for bit. An edit-row state
// takes a stretch of rows priced beforehand the same way
// (RowKernel.RunRows, RunFreeRows): one call a pass instead of one a row.

// Kernel is a stateful incremental distance evaluator bound to a fixed
// right-hand sequence w. The n-th call to Feed appends the n-th element of
// the left-hand sequence and returns d(x[0:n], w) — the same value the
// measure's Fn would return on those slices (+Inf where Fn is undefined,
// e.g. a lock-step measure on mismatched lengths). Reset rewinds the kernel
// to the empty prefix so it can be reused for a new left-hand sequence; the
// bound w (and any preprocessing of it) is retained across Resets.
//
// The row a Feed completes prices more than the whole window: At(j) is
// d(x[0:n], w[:j]) for any 0 ≤ j ≤ len(w), bit for bit what Fn returns on
// those slices, and Feed's result is At(len(w)). One pass of n feeds
// therefore prices every (prefix length, window-prefix length) pair — what
// the verifier reads to price every candidate end of one start pair.
// Floor is a lower bound on every cell of every later row (0 when the
// kernel has none to offer): once it exceeds a radius, no longer prefix
// can come back under it and the pass can stop.
//
// On a state banded at a radius (RowKernel.Within), At and Floor are exact
// when ≤ the radius; a value over it is only known to be over it, and no
// greater than the exact one.
//
// A Kernel is single-threaded state: use one kernel per goroutine.
type Kernel[E any] interface {
	Feed(x E) float64
	Reset()
	At(j int) float64
	Floor() float64
}

// FreeStartKernel is optionally implemented by kernel states whose
// recurrence can leave the start of the left-hand sequence free (Sellers
// 1980): FeedFree is Feed with the boundary cell d(fed prefix, w[:0]) held at
// 0 instead of charged for every fed element, so a prefix may be dropped at
// no cost. On a state rewound to the empty prefix and fed x[0:n] through
// FeedFree only, the n-th call returns
//
//	min over 0 ≤ s ≤ n of d(x[s:n], w)
//
// (s = n is the empty segment) — the float64 bits of the least of those Fn
// values: each cell is a min over paths of sums, rounding is monotone, so
// the min over starts commutes with every addition along a path. One pass
// therefore bounds from below, at every end n, the segments of every start
// and length that end there; the filter runs it over a whole query and
// spends exact passes only on the offsets it cannot rule out. At reads the
// same free-start row; Floor keeps its meaning. A pass may switch from
// FeedFree to Feed, never back: fed x[0:k] through FeedFree and x[k:n]
// through Feed, it holds the least over 0 ≤ s ≤ k of d(x[s:n], w), which
// is what the verifier bounds a group of query starts by. The lock-step
// kernels (no shift to free) and the Fn adapter do not have the mode.
type FreeStartKernel[E any] interface {
	Kernel[E]
	FeedFree(x E) float64
}

// Runner is optionally implemented by kernel states that can feed a whole
// stretch in one call: Run(x, out) is Feed(x[i]) for i = 0 … len(x)−1 and
// RunFree(x, out) is FeedFree(x[i]) likewise, out[i] taking what the i-th
// call returns, bit for bit, and the state is left as those calls leave it
// (so At and Floor read the same afterwards). out must hold len(x) values.
// A pass that feeds a stretch and reads only the per-element results — the
// filter's exact and free-start passes — pays one call per pass instead of
// one per element, and the state's recurrence runs as one loop with its
// words in registers. Run and RunFree call it when a state has it and fall
// back to the per-element loop otherwise.
type Runner[E any] interface {
	FreeStartKernel[E]
	Run(x []E, out []float64)
	RunFree(x []E, out []float64)
}

// Run feeds x to k, writing each Feed's result to out[i].
func Run[E any](k Kernel[E], x []E, out []float64) {
	if r, ok := k.(Runner[E]); ok {
		r.Run(x, out)
		return
	}
	out = out[:len(x)]
	for i, e := range x {
		out[i] = k.Feed(e)
	}
}

// RunFree is Run through FeedFree.
func RunFree[E any](k FreeStartKernel[E], x []E, out []float64) {
	if r, ok := k.(Runner[E]); ok {
		r.RunFree(x, out)
		return
	}
	out = out[:len(x)]
	for i, e := range x {
		out[i] = k.FeedFree(e)
	}
}

// CostRower is optionally implemented by a Prepared whose kernels price a
// fed element by one row of ground costs against the window: CostSpan writes
// row[j] = sub(x, w[j]), the cost of substituting x for window element j,
// for every lo ≤ j < hi, and Indel returns dx, the cost of dropping x. A
// caller that feeds one element to several passes over the same window — the
// filter's free-start and exact passes over a node, the verifier's passes
// from neighbouring query starts — prices the row once and hands it to
// every pass through RowKernel; a banded pass reads only a span of it
// (RowKernel.Span), which may be priced alone.
type CostRower[E any] interface {
	CostSpan(x E, row []float64, lo, hi int)
	Indel(x E) (dx float64)
}

// RowKernel is optionally implemented by kernel states minted from a
// CostRower: they take a fed element as its priced row. With c what
// CostSpan(x, c, 0, len(w)) wrote and dx what Indel(x) returned for the
// state's window, FeedRow(c, dx) is Feed(x) and FeedFreeRow(c, dx) is
// FeedFree(x), bit for bit: the same costs enter the same additions and
// comparisons in the same order.
//
// Their costs are never negative, so a cell is never less than the cell it
// extends, and a cell can be within a radius only if a neighbour it extends
// is (Ukkonen 1985). Within(r), called on a state rewound to the empty
// prefix, bands the pass at radius r until the next Reset or Rebind: a row
// then computes only the cells that can still be ≤ r, from the previous
// row's first cell ≤ r to its last one, then on to the right while the row
// stays ≤ r. Meanwhile every cell ≤ r keeps its exact bits, every other
// cell reads as a value over r and no greater than its exact one, and Floor
// is the row's least cell when that is ≤ r and over r when it is not. So
// for every radius r' ≤ r, which cells At reads as ≤ r' and whether Floor
// exceeds r' are decided as on an unbanded pass.
//
// Span reports the columns of c the next FeedRow or FeedFreeRow reads:
// c[lo:hi], all of the row unless the state is banded. Entries outside it
// may hold anything.
//
// RunRows(c, dx, out) is FeedRow over len(out) priced rows laid back to back
// in c, one window length apart, dx[i] the i-th row's indel cost, and
// RunFreeRows is the same through FeedFreeRow: out[i] takes what the i-th
// call returns, bit for bit, and the state is left as those calls leave
// it. A pass over rows priced beforehand (the filter's exact and free-start
// passes) feeds its stretch in one call (DESIGN.md §8).
type RowKernel[E any] interface {
	FreeStartKernel[E]
	FeedRow(c []float64, dx float64) float64
	FeedFreeRow(c []float64, dx float64) float64
	RunRows(c, dx, out []float64)
	RunFreeRows(c, dx, out []float64)
	Within(r float64)
	Span() (lo, hi int)
}

// Packer is the optional packed form of a kernel's free-start mode
// (Measure.Packer): one pass that runs the free-start recurrence of several
// windows at once, each in a field of one machine word (Hyyrö, Fredriksson &
// Navarro 2005). Its bounds are the same values, bit for bit, as separate
// FeedFree passes over each window.
type Packer[E any] interface {
	// Width reports how many windows of n elements one packed pass holds;
	// below 2, packing saves nothing.
	Width(n int) int
	// Pack lays ws out in one packed pass, window f in field f; nil when
	// they do not fit one (or a window is empty).
	Pack(ws [][]E) Packed[E]
}

// Packed is one packed pass over the windows it was built from. It is
// immutable and safe for concurrent use, like a Prepared.
type Packed[E any] interface {
	// Windows reports how many windows the pass holds.
	Windows() int
	// FreeStart feeds x through every window's free-start recurrence at
	// once, from the empty prefix: afterwards lower[f][n] is what the n-th
	// FeedFree of a rewound state over window f returns, for every window f
	// and 1 ≤ n ≤ len(x), and lower[f][0] is len(window f). Each
	// lower[f] must hold len(x)+1 values.
	FreeStart(x []E, lower [][]float64)
	// Bind is BindKernel for window f, read out of the pass's shared
	// tables: state itself, re-pointed and rewound, when it can be, a fresh
	// state otherwise.
	Bind(state Kernel[E], f int) Kernel[E]
}

// Prepared is the shared immutable half of an incremental kernel: the bound
// window plus whatever preprocessing the measure's kernel needs. A Prepared
// is safe for concurrent use; the mutable evaluation state lives in the
// Kernels it mints. Build one Prepared per database window (NewState is
// cheap; Prepare is not) and rebind a single per-worker state across windows
// with BindKernel.
type Prepared[E any] interface {
	// WindowLen reports the length of the bound window.
	WindowLen() int
	// NewState mints a fresh mutable kernel over this window, rewound to
	// the empty prefix.
	NewState() Kernel[E]
}

// Rebindable is optionally implemented by kernel states minted from a
// Prepared: Rebind re-points the state at another window's prepared tables,
// reusing the state's buffers, and rewinds to the empty prefix. It reports
// false when p belongs to a different kernel family, in which case the
// state is unchanged.
type Rebindable[E any] interface {
	Rebind(p Prepared[E]) bool
}

// Reusable is optionally implemented by a Prepared whose tables can be
// rebuilt in place for another window, so a caller binding one window after
// another (the verifier binds one per pass) allocates its preprocessing
// once. Reprepare reports false, leaving the Prepared unchanged, when w
// needs a different kernel form (the single-word Myers table cannot hold a
// window over 64 bytes). It breaks the immutability a Prepared otherwise
// promises: only the exclusive owner may call it, and kernels minted from
// the Prepared must be rebound (BindKernel) before their next Feed.
type Reusable[E any] interface {
	Reprepare(w []E) bool
}

// BindKernel returns a kernel over p's window, rewound to the empty prefix:
// state itself when it can be rebound in place (the steady-state path — no
// allocation), a fresh p.NewState() otherwise (first use, or a state from a
// different kernel family).
func BindKernel[E any](state Kernel[E], p Prepared[E]) Kernel[E] {
	if rb, ok := state.(Rebindable[E]); ok && rb.Rebind(p) {
		return state
	}
	return p.NewState()
}

// BindFreeStart is BindKernel for a state that is fed through FeedFree
// (pass nil the first time); it returns nil when p's kernels do not have
// the mode.
func BindFreeStart[E any](state FreeStartKernel[E], p Prepared[E]) FreeStartKernel[E] {
	fs, _ := BindKernel[E](state, p).(FreeStartKernel[E])
	return fs
}

// euclideanPrepared is the (preprocessing-free) shared half of the rolling
// lock-step Euclidean kernel: the window and the ground distance.
type euclideanPrepared[E any] struct {
	g Ground[E]
	w []E
}

func (p *euclideanPrepared[E]) WindowLen() int { return len(p.w) }

func (p *euclideanPrepared[E]) NewState() Kernel[E] { return &euclideanState[E]{p: p} }

func (p *euclideanPrepared[E]) Reprepare(w []E) bool {
	p.w = w
	return true
}

// euclideanState accumulates the sum of squared ground distances
// elementwise and reports sqrt at the exact window length, +Inf elsewhere.
type euclideanState[E any] struct {
	p   *euclideanPrepared[E]
	n   int
	sum float64
}

func (k *euclideanState[E]) Feed(x E) float64 {
	w := k.p.w
	if k.n >= len(w) {
		k.n++
		return math.Inf(1)
	}
	d := k.p.g(x, w[k.n])
	k.sum += d * d
	k.n++
	if k.n == len(w) {
		return math.Sqrt(k.sum)
	}
	return math.Inf(1)
}

// At is defined on the diagonal only: a lock-step distance exists between
// equal lengths, so the fed prefix prices w[:j] at j = the fed count.
func (k *euclideanState[E]) At(j int) float64 {
	if j != k.n {
		return math.Inf(1)
	}
	return math.Sqrt(k.sum)
}

// Floor is the running value: the squared sum only grows.
func (k *euclideanState[E]) Floor() float64 { return math.Sqrt(k.sum) }

func (k *euclideanState[E]) Reset() { k.n, k.sum = 0, 0 }

func (k *euclideanState[E]) Rebind(p Prepared[E]) bool {
	ep, ok := p.(*euclideanPrepared[E])
	if !ok {
		return false
	}
	k.p = ep
	k.Reset()
	return true
}

// hammingPrepared is the shared half of the rolling Hamming kernel.
type hammingPrepared[E comparable] struct {
	w []E
}

func (p *hammingPrepared[E]) WindowLen() int { return len(p.w) }

func (p *hammingPrepared[E]) NewState() Kernel[E] { return &hammingState[E]{p: p} }

func (p *hammingPrepared[E]) Reprepare(w []E) bool {
	p.w = w
	return true
}

// hammingState is a running mismatch count, defined at the exact window
// length only.
type hammingState[E comparable] struct {
	p      *hammingPrepared[E]
	n      int
	misses int
}

func (k *hammingState[E]) Feed(x E) float64 {
	w := k.p.w
	if k.n >= len(w) {
		k.n++
		return math.Inf(1)
	}
	if x != w[k.n] {
		k.misses++
	}
	k.n++
	if k.n == len(w) {
		return float64(k.misses)
	}
	return math.Inf(1)
}

// At is defined on the diagonal only, like euclideanState.At.
func (k *hammingState[E]) At(j int) float64 {
	if j != k.n {
		return math.Inf(1)
	}
	return float64(k.misses)
}

// Floor is the running mismatch count, which only grows.
func (k *hammingState[E]) Floor() float64 { return float64(k.misses) }

func (k *hammingState[E]) Reset() { k.n, k.misses = 0, 0 }

func (k *hammingState[E]) Rebind(p Prepared[E]) bool {
	hp, ok := p.(*hammingPrepared[E])
	if !ok {
		return false
	}
	k.p = hp
	k.Reset()
	return true
}

// editRowPrepared is the shared half of the edit-family kernels
// (Levenshtein, weighted edit, protein edit, ERP): the window, the cost
// model, the per-position cost of dropping a window element (for ERP a
// ground distance each — priced here once instead of in every cell of every
// Feed), and the empty-prefix base row (their running sum — for ERP, the
// gap column), precomputed so every state Reset is a copy.
//
// The cost model mirrors editDP: sub(x, y) prices substituting a fed
// element x with a window element y, indel(e) prices dropping an element of
// either side. Neither captures the window, so Reprepare rebuilds the
// tables for another window without allocating.
type editRowPrepared[E any] struct {
	w     []E
	sub   func(x, y E) float64
	indel func(E) float64
	// base[j] = Σ gap[:j] and gap[j] = indel(w[j]), both slices of buf.
	base, gap, buf []float64
}

func newEditRowPrepared[E any](w []E, sub func(x, y E) float64, indel func(E) float64) *editRowPrepared[E] {
	p := &editRowPrepared[E]{sub: sub, indel: indel}
	p.Reprepare(w)
	return p
}

func (p *editRowPrepared[E]) Reprepare(w []E) bool {
	n := len(w)
	if cap(p.buf) < 2*n+1 {
		p.buf = make([]float64, 2*n+1)
	}
	p.w, p.base, p.gap = w, p.buf[:n+1], p.buf[n+1:2*n+1]
	p.base[0] = 0
	for j, y := range w {
		p.gap[j] = p.indel(y)
		p.base[j+1] = p.base[j] + p.gap[j]
	}
	return true
}

func (p *editRowPrepared[E]) WindowLen() int { return len(p.w) }

// CostSpan prices x against window elements lo … hi-1, as an unbanded Feed
// of x prices it against all of them.
func (p *editRowPrepared[E]) CostSpan(x E, row []float64, lo, hi int) {
	w := p.w[lo:hi]
	row = row[lo:][:len(w)]
	for j, y := range w {
		row[j] = p.sub(x, y)
	}
}

func (p *editRowPrepared[E]) Indel(x E) float64 { return p.indel(x) }

func (p *editRowPrepared[E]) NewState() Kernel[E] {
	s := &editRowState[E]{}
	s.Rebind(p)
	return s
}

// editRowState maintains the DP row row[j] = d(fed prefix, w[:j]) and
// advances it by one row per fed element — the row-reuse evaluation of the
// DP that editDP computes from scratch. Feed prices the element into cost,
// a row of the state's own, over the columns the row reads (Span), and
// advances from it by FeedRow: one DP loop (feed, or feedBand once Within
// holds) serves both.
type editRowState[E any] struct {
	p         *editRowPrepared[E]
	row, cost []float64
	buf       []float64 // row and cost, one allocation
	// band holds from Within to the next Reset or Rebind. Then every cell
	// of row over r holds over, live[0] and live[1] are the first and last
	// cell ≤ r (live[0] > live[1] when there is none) and floor is Floor.
	band    bool
	r, over float64
	live    [2]int
	floor   float64
}

func (k *editRowState[E]) Feed(x E) float64 {
	lo, hi := k.Span()
	k.p.CostSpan(x, k.cost, lo, hi)
	return k.FeedRow(k.cost, k.p.indel(x))
}

// FeedFree holds row[0] at 0: dropping the fed prefix costs nothing.
func (k *editRowState[E]) FeedFree(x E) float64 {
	lo, hi := k.Span()
	k.p.CostSpan(x, k.cost, lo, hi)
	return k.FeedFreeRow(k.cost, k.p.indel(x))
}

func (k *editRowState[E]) FeedRow(c []float64, dx float64) float64 {
	if k.band {
		return k.feedBand(c, dx, dx)
	}
	return k.feed(c, dx, dx)
}

func (k *editRowState[E]) FeedFreeRow(c []float64, dx float64) float64 {
	if k.band {
		return k.feedBand(c, dx, 0)
	}
	return k.feed(c, dx, 0)
}

// feed advances the row by an element whose substitution costs are c and
// whose indel cost is dx, charging the boundary cell d0 (dx, or 0 in
// free-start mode). Each cell is the sum from the diagonal, then the sum
// from above if it is less, then the sum from the left if it is less than
// that (sweep).
func (k *editRowState[E]) feed(c []float64, dx, d0 float64) float64 {
	row := k.row
	n := len(row) - 1
	diag := row[0]
	row[0] += d0
	sweep(row, k.p.gap[:n], c[:n], dx, diag)
	return row[n]
}

// RunRows is FeedRow over len(out) rows laid back to back in c, one
// window length apart, dx[i] the i-th row's indel cost (RowKernel).
func (k *editRowState[E]) RunRows(c, dx, out []float64) {
	n := len(k.row) - 1
	for i := range out {
		out[i] = k.FeedRow(c[i*n:(i+1)*n], dx[i])
	}
}

// RunFreeRows is RunRows through FeedFreeRow.
func (k *editRowState[E]) RunFreeRows(c, dx, out []float64) {
	n := len(k.row) - 1
	for i := range out {
		out[i] = k.FeedFreeRow(c[i*n:(i+1)*n], dx[i])
	}
}

// feedBand is feed on a banded state. With the previous row's cells ≤ r at
// columns lo … hi, a cell ≤ r is reached by a move from one of them or, to
// the right of them, by left moves along the row (costs are non-negative,
// and rounding an addition never takes it below an addend). So the row is
// computed at lo (from above only: its other neighbours are over r), over
// lo+1 … hi (every move, a neighbour over r holding over, whose sums stay
// over r), at hi+1 (from the diagonal or the left) and then on while the
// left moves stay ≤ r. A cell ≤ r takes the least of the same sums as in
// feed, so its bits; every other cell is over r and is written over, which
// is no greater than its exact value. Cells left of lo and right of the run
// are over r in this row as in the last, and already hold over.
func (k *editRowState[E]) feedBand(c []float64, dx, d0 float64) float64 {
	row, gap, r := k.row, k.p.gap, k.r
	n := len(row) - 1
	lo, hi := k.live[0], k.live[1]
	first, last, floor := n+1, -1, k.over
	if lo <= hi {
		diag := row[lo]
		best := diag + dx
		if lo == 0 {
			best = diag + d0
		}
		if best <= r {
			row[lo] = best
			first, last, floor = lo, lo, best
		} else {
			row[lo] = k.over
		}
		for j := lo + 1; j <= hi; j++ {
			best := diag + c[j-1]
			if v := row[j] + dx; v < best {
				best = v
			}
			if v := row[j-1] + gap[j-1]; v < best {
				best = v
			}
			diag = row[j]
			if best <= r {
				row[j] = best
				if last < 0 {
					first = j
				}
				last = j
				floor = min(floor, best)
			} else {
				row[j] = k.over
			}
		}
		if j := hi + 1; j <= n {
			best := diag + c[j-1]
			if v := row[j-1] + gap[j-1]; v < best {
				best = v
			}
			for best <= r {
				row[j] = best
				if last < 0 {
					first = j
				}
				last = j
				floor = min(floor, best)
				if j++; j > n {
					break
				}
				best = row[j-1] + gap[j-1]
			}
		}
	}
	k.live, k.floor = [2]int{first, last}, floor
	return row[n]
}

// Within bands the state at radius r (RowKernel). The rewound row is the
// window's base row; its cells over r are written over.
func (k *editRowState[E]) Within(r float64) {
	k.band, k.r, k.over = true, r, math.Nextafter(r, math.Inf(1))
	first, last, floor := len(k.row), -1, k.over
	for j, v := range k.row {
		if v <= r {
			if last < 0 {
				first = j
			}
			last = j
			floor = min(floor, v)
		} else {
			k.row[j] = k.over
		}
	}
	k.live, k.floor = [2]int{first, last}, floor
}

// Span is the columns feedBand reads a substitution cost at, lo+1 … hi+1
// of the row (cost j-1 for cell j), on a banded state; the whole row on
// another.
func (k *editRowState[E]) Span() (lo, hi int) {
	n := len(k.row) - 1
	if !k.band {
		return 0, n
	}
	if k.live[0] > k.live[1] {
		return 0, 0
	}
	return k.live[0], min(k.live[1]+1, n)
}

func (k *editRowState[E]) At(j int) float64 { return k.row[j] }

// Floor is the row minimum: every cell of the next row is a cell of this
// one (or, by induction, of the next) plus a non-negative cost — the
// argument editRowBounded abandons on. A banded state took it as it wrote
// the row.
func (k *editRowState[E]) Floor() float64 {
	if k.band {
		return k.floor
	}
	m := k.row[0]
	for _, v := range k.row[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (k *editRowState[E]) Reset() {
	copy(k.row, k.p.base)
	k.band = false
}

func (k *editRowState[E]) Rebind(p Prepared[E]) bool {
	ep, ok := p.(*editRowPrepared[E])
	if !ok {
		return false
	}
	n := len(ep.w)
	if cap(k.buf) < 2*n+1 {
		k.buf = make([]float64, 2*n+1)
	}
	k.p, k.row, k.cost = ep, k.buf[:n+1], k.buf[n+1:2*n+1]
	k.Reset()
	return true
}

func unitIndel[E any](E) float64 { return 1 }

func unitSub[E comparable](x, y E) float64 {
	if x == y {
		return 0
	}
	return 1
}

// levenshteinPrepare builds the unit-cost incremental kernel preprocessing
// over any comparable alphabet.
func levenshteinPrepare[E comparable](w []E) Prepared[E] {
	return newEditRowPrepared(w, unitSub[E], unitIndel[E])
}

func proteinIndelCost(byte) float64 { return proteinIndel }

// proteinPrepare builds the incremental protein-edit kernel preprocessing.
func proteinPrepare(w []byte) Prepared[byte] {
	return newEditRowPrepared(w, proteinSubCost, proteinIndelCost)
}

// fnPrepared adapts a measure without an incremental kernel (DTW, discrete
// Fréchet, caller-assembled measures) to the kernel contract's read side, so
// a consumer that reads At — the verifier — has one code path for every
// measure.
type fnPrepared[E any] struct {
	fn Func[E]
	w  []E
}

func (p *fnPrepared[E]) WindowLen() int { return len(p.w) }

func (p *fnPrepared[E]) NewState() Kernel[E] { return &fnState[E]{p: p} }

func (p *fnPrepared[E]) Reprepare(w []E) bool {
	p.w = w
	return true
}

// fnState buffers the fed prefix and prices a cell only when it is read:
// At(j) is one call Fn(prefix, w[:j]), so a reader pays for exactly the
// cells it asks for and nothing is shared between them. Feed therefore
// prices nothing either and returns NaN where a row kernel returns
// At(len(w)) — pricing the whole window on every feed would cost a full Fn
// per element that no reader of At wants. That makes it unfit as a filter
// kernel, and Measure.NewKernel still returns nil for such measures.
type fnState[E any] struct {
	p      *fnPrepared[E]
	prefix []E
}

func (k *fnState[E]) Feed(x E) float64 {
	k.prefix = append(k.prefix, x)
	return math.NaN()
}

func (k *fnState[E]) At(j int) float64 { return k.p.fn(k.prefix, k.p.w[:j]) }

func (k *fnState[E]) Floor() float64 { return 0 }

func (k *fnState[E]) Reset() { k.prefix = k.prefix[:0] }

func (k *fnState[E]) Rebind(p Prepared[E]) bool {
	fp, ok := p.(*fnPrepared[E])
	if !ok {
		return false
	}
	k.p = fp
	k.Reset()
	return true
}
