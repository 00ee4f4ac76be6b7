package dist

import (
	"math"
	"math/bits"
	"sync"
)

// LevenshteinFast computes the byte-string edit distance with Myers'
// bit-parallel algorithm (Myers, JACM 1999): the DP column is packed into
// machine words as vertical delta bit-vectors, advancing a whole column per
// text character in a handful of word operations. Semantics are identical to
// LevenshteinBytes / Levenshtein[byte](). Patterns up to 64 bytes run in a
// single word; longer patterns use the block-based (multi-word) variant,
// which keeps bit-parallel speed — ⌈n/64⌉ word blocks per text character
// instead of n DP cells — for arbitrarily long inputs.
//
// Every variant in this file (plain, bounded, incremental kernel; single
// word and block) advances the DP column through the one shared word step,
// myersStep — save the single-word kernel state (myersState64), whose Feed,
// FeedFree and Run inline its branch-free form at a fixed hin
// (myersStep64), and the packed pass (myersPack), which splits its carries
// by field.
func LevenshteinFast(a, b []byte) float64 {
	// The pattern (bit-packed side) is the shorter string.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return float64(len(b))
	}
	if len(a) > 64 {
		return float64(myersBlock(a, b))
	}
	return float64(myers64(a, b))
}

// myersStep advances one 64-bit word of the Myers column by one text
// character. pv/mv are the word's positive/negative vertical deltas, eq its
// pattern-match mask for the character, and hin the horizontal delta
// entering at the word's top boundary (-1, 0 or +1; the whole column's
// boundary row contributes +1 per character, so the bottom word chain
// starts at hin = +1 — or at 0 in free-start mode, FeedFree, where the
// boundary row stays 0). It returns the new vertical deltas, the outgoing
// horizontal delta at the word's top bit (the hin of the next word up —
// Hyyrö's carry formulation, which subsumes both the match-propagating
// addition carry and the delta shift carry of Myers §4), and the horizontal
// delta at scoreBit (+1, -1 or 0), with which callers track the DP value of
// their row of interest. Pass scoreBit = 0 when the word holds no tracked
// row.
func myersStep(pv, mv, eq uint64, hin int, scoreBit uint64) (pvOut, mvOut uint64, hout, scoreDelta int) {
	xv := eq | mv
	if hin < 0 {
		eq |= 1
	}
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	if ph&scoreBit != 0 {
		scoreDelta = 1
	} else if mh&scoreBit != 0 {
		scoreDelta = -1
	}
	if ph&(1<<63) != 0 {
		hout = 1
	} else if mh&(1<<63) != 0 {
		hout = -1
	}
	ph <<= 1
	mh <<= 1
	if hin < 0 {
		mh |= 1
	} else if hin > 0 {
		ph |= 1
	}
	pvOut = mh | ^(xv | ph)
	mvOut = ph & xv
	return pvOut, mvOut, hout, scoreDelta
}

// myersStep64 is myersStep for a lone word whose tracked row is bit t,
// entered at hin = +1 or 0 (passed as the bit itself), small enough to
// inline. At
// hin ≥ 0 the step never sets eq's low bit, and its ph and mh are disjoint
// (mh's bits are pv's, which ph misses, pv and mv being disjoint), so the
// score delta is ph>>t&1 − mh>>t&1 and the delta shifted into ph's bottom
// bit is hin itself: the same words as myersStep's, with no branch.
func myersStep64(pv, mv, eq, hin uint64, t uint) (pvOut, mvOut uint64, scoreDelta int) {
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	scoreDelta = int(ph>>t&1) - int(mh>>t&1)
	ph = ph<<1 | hin
	mh <<= 1
	return mh | ^(xv | ph), ph & xv, scoreDelta
}

// myers64 runs the bit-parallel recurrence with pattern a (1 ≤ len(a) ≤ 64)
// against text b. The score tracks the bottom DP cell, starting at len(a)
// (the distance against the empty text).
func myers64(a, b []byte) int {
	var peq [256]uint64
	for i, c := range a {
		peq[c] |= 1 << uint(i)
	}
	pv := ^uint64(0)
	mv := uint64(0)
	score := len(a)
	last := uint64(1) << uint(len(a)-1)
	for _, c := range b {
		var sd int
		pv, mv, _, sd = myersStep(pv, mv, peq[c], 1, last)
		score += sd
	}
	return score
}

// blockScratch is the reusable working set of the multi-word recurrence:
// the per-character Eq masks (256×W words, kept all-zero between uses), the
// delta vectors, and the per-block bottom-row scores the banded bounded
// path tracks. Pooled because the filter evaluates the distance once per
// segment↔window pair.
type blockScratch struct {
	peq    []uint64 // 256*w words, zeroed on return to the pool
	pv, mv []uint64
	scores []int
}

var blockPool = sync.Pool{New: func() any { return &blockScratch{} }}

// grow sizes the scratch for pattern word count w. peq is lazily grown and
// relies on the pool invariant that it is all-zero.
func (s *blockScratch) grow(w int) {
	if cap(s.pv) < w {
		s.pv = make([]uint64, w)
		s.mv = make([]uint64, w)
		s.scores = make([]int, w)
	}
	s.pv, s.mv, s.scores = s.pv[:w], s.mv[:w], s.scores[:w]
	if len(s.peq) < 256*w {
		s.peq = make([]uint64, 256*w)
	}
}

// release zeroes the peq rows touched by pattern a and returns the scratch
// to the pool.
func (s *blockScratch) release(a []byte, w int) {
	for _, c := range a {
		for k := 0; k < w; k++ {
			s.peq[int(c)*w+k] = 0
		}
	}
	blockPool.Put(s)
}

// myersBlock is the block-based (multi-word) Myers recurrence for patterns
// longer than 64 bytes: the single-word step chained bottom-up through the
// words, each word's outgoing horizontal delta feeding the next word's hin.
// Garbage bits above the pattern length in the last word never influence
// lower bits (the step's carries propagate strictly upward), so the score
// bit at position len(a)−1 stays exact.
func myersBlock(a, b []byte) int {
	w := (len(a) + 63) >> 6
	s := blockPool.Get().(*blockScratch)
	s.grow(w)
	peq, pv, mv := s.peq, s.pv, s.mv
	for i, c := range a {
		peq[int(c)*w+(i>>6)] |= 1 << uint(i&63)
	}
	for k := 0; k < w; k++ {
		pv[k] = ^uint64(0)
		mv[k] = 0
	}
	score := len(a)
	lastWord := w - 1
	lastBit := uint64(1) << uint((len(a)-1)&63)
	for _, c := range b {
		row := peq[int(c)*w : int(c)*w+w]
		hin := 1
		for k := 0; k < lastWord; k++ {
			pv[k], mv[k], hin, _ = myersStep(pv[k], mv[k], row[k], hin, 0)
		}
		var sd int
		pv[lastWord], mv[lastWord], _, sd = myersStep(pv[lastWord], mv[lastWord], row[lastWord], hin, lastBit)
		score += sd
	}
	s.release(a, w)
	return score
}

// levenshteinFastBounded is LevenshteinFast with early abandoning: the
// bottom-row score can drop by at most 1 per remaining text character, so
// once score − remaining exceeds eps no completion can come back under it.
// Patterns over 64 bytes run the banded block recurrence (myersBlockBounded),
// which additionally visits only the word blocks the Ukkonen band touches.
func levenshteinFastBounded(a, b []byte, eps float64) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	diff := len(b) - len(a)
	if float64(diff) > eps {
		return float64(diff)
	}
	if len(a) == 0 {
		return float64(len(b))
	}
	if len(a) > 64 {
		return myersBlockBounded(a, b, eps)
	}
	var peq [256]uint64
	for i, c := range a {
		peq[c] |= 1 << uint(i)
	}
	pv := ^uint64(0)
	mv := uint64(0)
	score := len(a)
	last := uint64(1) << uint(len(a)-1)
	for j, c := range b {
		var sd int
		pv, mv, _, sd = myersStep(pv, mv, peq[c], 1, last)
		score += sd
		if remaining := len(b) - j - 1; float64(score-remaining) > eps {
			return math.Inf(1)
		}
	}
	return float64(score)
}

// myersBlockBounded is the banded multi-word recurrence (edlib-style): with
// unit costs, a DP cell off the Ukkonen band |i−j| ≤ k = ⌊eps⌋ has value
// > eps, so only the word blocks the band intersects need advancing —
// roughly 2k/64+2 blocks per text character instead of all ⌈m/64⌉.
//
// Band maintenance is sound by an overestimate argument. A block first
// entered by the band's upper edge at text position j is initialised to the
// all-deletion column (pv all ones, bottom score = the block below's score
// plus the block's rows); that initialisation is ≥ the true DP values of
// those rows, which were off-band at j−1. Blocks the band's lower edge has
// passed are skipped, with hin = +1 fed into the lowest active block —
// again an overestimate (a horizontal delta never exceeds +1). Overestimates
// only ever propagate upward-bounded values: any cell whose true value is
// ≤ eps has an optimal path that stays inside the band (every cell on a
// ≤ eps path satisfies |i−j| ≤ value ≤ k) and is therefore computed exactly.
// So a result ≤ eps is exact and a result > eps proves the true distance
// exceeds eps — precisely the BoundedFunc contract.
//
// Callers guarantee len(a) > 64, len(a) ≤ len(b) and len(b)−len(a) ≤ eps.
func myersBlockBounded(a, b []byte, eps float64) float64 {
	m, n := len(a), len(b)
	var band int
	if eps >= float64(n) {
		band = n
	} else if eps > 0 {
		band = int(eps)
	}
	w := (m + 63) >> 6
	s := blockPool.Get().(*blockScratch)
	s.grow(w)
	peq, pv, mv, scores := s.peq, s.pv, s.mv, s.scores
	for i, c := range a {
		peq[int(c)*w+(i>>6)] |= 1 << uint(i&63)
	}
	lastWord := w - 1
	lastBit := uint64(1) << uint((m-1)&63)
	// fb..lb are the active blocks; blocks above lb are entered as the band
	// climbs, blocks below fb are abandoned as it descends.
	fb, lb := 0, -1
	extend := func() {
		lb++
		pv[lb] = ^uint64(0)
		mv[lb] = 0
		switch {
		case lb == 0:
			scores[0] = 64 // bottom row of block 0 in the all-deletion column
		case lb == lastWord:
			scores[lb] = scores[lb-1] + m - lastWord*64
		default:
			scores[lb] = scores[lb-1] + 64
		}
	}
	for j := 1; j <= n; j++ {
		// The band at text position j covers rows j−k … j+k.
		target := j + band
		if target > m {
			target = m
		}
		for lb < (target-1)>>6 {
			extend()
		}
		for (fb+1)*64 < j-band {
			fb++
		}
		ci := int(b[j-1])
		row := peq[ci*w : ci*w+w]
		hin := 1
		for k := fb; k <= lb; k++ {
			sbit := uint64(1) << 63
			if k == lastWord {
				sbit = lastBit
			}
			var sd int
			pv[k], mv[k], hin, sd = myersStep(pv[k], mv[k], row[k], hin, sbit)
			scores[k] += sd
		}
		if lb == lastWord && float64(scores[lastWord]-(n-j)) > eps {
			s.release(a, w)
			return math.Inf(1)
		}
	}
	res := math.Inf(1)
	if lb == lastWord {
		res = float64(scores[lastWord])
	}
	s.release(a, w)
	return res
}

// myersPrepared64 is the shared half of the single-word incremental kernel:
// the pattern (the database window, ≤ 64 bytes) bit-packed once. States
// minted from it point at its table and carry the two delta words and the
// running score.
type myersPrepared64 struct {
	peq [256]uint64
	m   int
}

func (p *myersPrepared64) WindowLen() int { return p.m }

func (p *myersPrepared64) NewState() Kernel[byte] {
	s := &myersState64{}
	s.bind(&p.peq, 0, p.m)
	return s
}

func (p *myersPrepared64) Reprepare(w []byte) bool {
	if len(w) == 0 || len(w) > 64 {
		return false
	}
	p.peq = [256]uint64{}
	p.m = len(w)
	for i, c := range w {
		p.peq[c] |= 1 << uint(i)
	}
	return true
}

// myersState64 advances the column by one query element per Feed and
// returns the current bottom-row score — d(fed prefix, w). Its window is
// the field of m bits at off of a peq table, read as peq[c] >> off: a
// myersPrepared64's own table (off 0), or one window's field of a
// myersPack's. The bits above the field, the pack's later fields, are
// garbage nothing below reads, as in myersBlock's last word; At and Floor
// mask them off. (off is kept under 64, and the & 63 on each read spares
// the shift its range check.)
type myersState64 struct {
	peq    *[256]uint64
	off    uint
	last   uint64
	m      int
	pv, mv uint64
	score  int
	n      int // elements fed: the column's boundary value D[0]
}

// bind points k at the m-bit field at off of peq and rewinds it.
func (k *myersState64) bind(peq *[256]uint64, off uint, m int) {
	k.peq, k.off, k.m, k.last = peq, off, m, 1<<uint(m-1)
	k.Reset()
}

func (k *myersState64) Feed(c byte) float64 {
	var sd int
	k.pv, k.mv, sd = myersStep64(k.pv, k.mv, k.peq[c]>>(k.off&63), 1, uint(k.m-1)&63)
	k.score += sd
	k.n++
	return float64(k.score)
}

// FeedFree enters the column with hin 0 where Feed enters with +1: the
// boundary row stays at D[0] = 0 (n is not advanced), which is the
// semi-global search the recurrence was published for.
func (k *myersState64) FeedFree(c byte) float64 {
	var sd int
	k.pv, k.mv, sd = myersStep64(k.pv, k.mv, k.peq[c]>>(k.off&63), 0, uint(k.m-1)&63)
	k.score += sd
	return float64(k.score)
}

// Run is Feed over x (Runner): n advances by len(x).
func (k *myersState64) Run(x []byte, out []float64) {
	k.run(x, out, 1)
	k.n += len(x)
}

// RunFree is FeedFree over x (Runner).
func (k *myersState64) RunFree(x []byte, out []float64) { k.run(x, out, 0) }

// run feeds x through myersStep64 at hin +1 (Feed) or 0 (FeedFree), one
// loop with the step inlined and the words in registers.
func (k *myersState64) run(x []byte, out []float64, hin uint64) {
	peq, off, t := k.peq, k.off&63, uint(k.m-1)&63
	pv, mv, score := k.pv, k.mv, k.score
	out = out[:len(x)]
	for i, c := range x {
		var d int
		pv, mv, d = myersStep64(pv, mv, peq[c]>>off, hin, t)
		score += d
		out[i] = float64(score)
	}
	k.pv, k.mv, k.score = pv, mv, score
}

// At sums the column's vertical deltas up to row j: D[j] = D[0] + (+1
// deltas below j) − (−1 deltas below j), two popcounts. The deltas are
// exact at every row, not only the tracked bottom one.
func (k *myersState64) At(j int) float64 {
	mask := ^uint64(0) >> uint(64-j) // j = 0 shifts every bit out
	return float64(k.n + bits.OnesCount64(k.pv&mask) - bits.OnesCount64(k.mv&mask))
}

// Floor bounds every cell of the column from below (Ukkonen's cut-off for
// the bit-vector column): D[j] is D[0] = n plus the +1 deltas below j minus
// the −1 deltas below j, so no cell is under n less every −1 delta of the
// window's field — one popcount. The mask keeps a pack's later fields out.
// The Levenshtein row minimum never falls from one fed element to the next,
// so the bound holds for every later row too.
func (k *myersState64) Floor() float64 {
	return float64(k.n - bits.OnesCount64(k.mv&(k.last<<1-1)))
}

func (k *myersState64) Reset() {
	k.pv = ^uint64(0)
	k.mv = 0
	k.score = k.m
	k.n = 0
}

func (k *myersState64) Rebind(p Prepared[byte]) bool {
	mp, ok := p.(*myersPrepared64)
	if !ok {
		return false
	}
	k.bind(&mp.peq, 0, mp.m)
	return true
}

// myersPacker packs one-word Myers windows ⌊64/n⌋ to a word: three at
// n = 20. A window over 32 bytes packs alone, which saves nothing.
type myersPacker struct{}

func (myersPacker) Width(n int) int {
	if n < 1 || n > 64 {
		return 0
	}
	return 64 / n
}

func (myersPacker) Pack(ws [][]byte) Packed[byte] {
	if len(ws) == 0 {
		return nil
	}
	p := &myersPack{fields: make([]myersField, len(ws))}
	off := 0
	for f, w := range ws {
		if len(w) == 0 || off+len(w) > 64 {
			return nil
		}
		for i, c := range w {
			p.peq[c] |= 1 << uint(off+i)
		}
		p.fields[f] = myersField{off: uint(off), m: len(w)}
		p.low |= 1 << uint(off)
		p.top |= 1 << uint(off+len(w)-1)
		off += len(w)
	}
	return p
}

// myersPack is the packed free-start form of the one-word kernel: window f
// is the field of bits off_f … off_f+m_f−1 of one shared peq table, and one
// step of the recurrence advances every field's column. The plain step
// (myersStep at hin = 0) needs three changes for that:
//   - the addition keeps each carry inside its field: adding with every
//     field's top bit cleared, then restoring the top bits by xor, drops the
//     carry out of a field's top bit where it would enter the next field's
//     bottom bit;
//   - the shifted horizontal deltas have each field's bottom bit cleared,
//     which is hin = 0 per field;
//   - each field's score is read at its own top bit.
//
// Bits above the last field hold garbage that nothing below reads: carries
// and shifts only move upward.
type myersPack struct {
	peq      [256]uint64
	top, low uint64 // every field's top bit and bottom bit
	fields   []myersField
}

type myersField struct {
	off uint
	m   int
}

func (p *myersPack) Windows() int { return len(p.fields) }

// FreeStart runs the word's recurrence over x in chunks of up to 64
// elements, keeping each step's horizontal deltas, then reads every field's
// scores off them: two tight loops instead of one with a loop over the
// fields inside.
func (p *myersPack) FreeStart(x []byte, lower [][]float64) {
	var phs, mhs [64]uint64
	top, low := p.top, p.low
	pv, mv := ^uint64(0), uint64(0)
	for f, fd := range p.fields {
		lower[f][0] = float64(fd.m)
	}
	for done := 0; done < len(x); done += 64 {
		chunk := x[done:min(done+64, len(x))]
		for i, c := range chunk {
			eq := p.peq[c]
			xv := eq | mv
			xp := eq & pv
			xh := ((((xp &^ top) + (pv &^ top)) ^ ((xp ^ pv) & top)) ^ pv) | eq
			ph := mv | ^(xh | pv)
			mh := pv & xh
			phs[i], mhs[i] = ph, mh
			ph = ph << 1 &^ low
			mh = mh << 1 &^ low
			pv = mh | ^(xv | ph)
			mv = ph & xv
		}
		for f, fd := range p.fields {
			t := fd.off + uint(fd.m) - 1
			score := int(lower[f][done])
			row := lower[f][done+1 : done+1+len(chunk)]
			ph, mh := phs[:len(row)], mhs[:len(row)]
			for i := range row {
				score += int(ph[i]>>t&1) - int(mh[i]>>t&1)
				row[i] = float64(score)
			}
		}
	}
}

// Bind re-points a myersState64 at field f of the shared table.
func (p *myersPack) Bind(state Kernel[byte], f int) Kernel[byte] {
	k, ok := state.(*myersState64)
	if !ok {
		k = &myersState64{}
	}
	fd := p.fields[f]
	k.bind(&p.peq, fd.off, fd.m)
	return k
}

// myersBlockPrepared is the shared half of the multi-word kernel for
// windows longer than 64 bytes: the ⌈m/64⌉-word peq table (256·w words,
// the dominant kernel memory) built once per window.
type myersBlockPrepared struct {
	peq     []uint64
	w, m    int
	lastBit uint64
}

func (p *myersBlockPrepared) WindowLen() int { return p.m }

func (p *myersBlockPrepared) NewState() Kernel[byte] {
	s := &myersBlockState{p: p, pv: make([]uint64, p.w), mv: make([]uint64, p.w)}
	s.Reset()
	return s
}

// Reprepare takes any non-empty window: below 65 bytes the block form
// degenerates to one word per step.
func (p *myersBlockPrepared) Reprepare(w []byte) bool {
	if len(w) == 0 {
		return false
	}
	nw := (len(w) + 63) >> 6
	if cap(p.peq) < 256*nw {
		p.peq = make([]uint64, 256*nw)
	} else {
		p.peq = p.peq[:256*nw]
		clear(p.peq)
	}
	p.w, p.m, p.lastBit = nw, len(w), 1<<uint((len(w)-1)&63)
	for i, c := range w {
		p.peq[int(c)*nw+(i>>6)] |= 1 << uint(i&63)
	}
	return true
}

// myersBlockState carries the per-worker delta vectors (2·w words — a
// fraction of the shared peq table's 256·w).
type myersBlockState struct {
	p      *myersBlockPrepared
	pv, mv []uint64
	score  int
	n      int // elements fed, as in myersState64
}

func (k *myersBlockState) Feed(c byte) float64 {
	k.n++
	return k.feed(c, 1)
}

// FeedFree is myersState64.FeedFree over the word chain.
func (k *myersBlockState) FeedFree(c byte) float64 { return k.feed(c, 0) }

// feed advances the chain by c with hin entering the bottom word.
func (k *myersBlockState) feed(c byte, hin int) float64 {
	p := k.p
	w := p.w
	row := p.peq[int(c)*w : int(c)*w+w]
	for i := 0; i < w-1; i++ {
		k.pv[i], k.mv[i], hin, _ = myersStep(k.pv[i], k.mv[i], row[i], hin, 0)
	}
	var sd int
	k.pv[w-1], k.mv[w-1], _, sd = myersStep(k.pv[w-1], k.mv[w-1], row[w-1], hin, p.lastBit)
	k.score += sd
	return float64(k.score)
}

// At is myersState64.At over the word chain: whole words below row j, then
// the masked remainder.
func (k *myersBlockState) At(j int) float64 {
	d := k.n
	full := j >> 6
	for i := 0; i < full; i++ {
		d += bits.OnesCount64(k.pv[i]) - bits.OnesCount64(k.mv[i])
	}
	if r := uint(j & 63); r != 0 {
		mask := ^uint64(0) >> (64 - r)
		d += bits.OnesCount64(k.pv[full]&mask) - bits.OnesCount64(k.mv[full]&mask)
	}
	return float64(d)
}

// Floor is myersState64.Floor over the word chain: every −1 delta of the
// lower words, and of the last word's rows up to lastBit.
func (k *myersBlockState) Floor() float64 {
	last := len(k.mv) - 1
	d := k.n - bits.OnesCount64(k.mv[last]&(k.p.lastBit<<1-1))
	for _, mv := range k.mv[:last] {
		d -= bits.OnesCount64(mv)
	}
	return float64(d)
}

func (k *myersBlockState) Reset() {
	for i := range k.pv {
		k.pv[i] = ^uint64(0)
		k.mv[i] = 0
	}
	k.score = k.p.m
	k.n = 0
}

func (k *myersBlockState) Rebind(p Prepared[byte]) bool {
	mp, ok := p.(*myersBlockPrepared)
	if !ok {
		return false
	}
	k.p = mp
	if cap(k.pv) < mp.w {
		k.pv = make([]uint64, mp.w)
		k.mv = make([]uint64, mp.w)
	} else {
		k.pv = k.pv[:mp.w]
		k.mv = k.mv[:mp.w]
	}
	k.Reset()
	return true
}

// myersPrepare builds the incremental Levenshtein kernel preprocessing for
// window w, choosing the single-word or block form by pattern length.
func myersPrepare(w []byte) Prepared[byte] {
	switch {
	case len(w) == 0:
		return levenshteinPrepare(w)
	case len(w) <= 64:
		p := &myersPrepared64{}
		p.Reprepare(w)
		return p
	default:
		p := &myersBlockPrepared{}
		p.Reprepare(w)
		return p
	}
}

// LevenshteinFastMeasure is LevenshteinFast bundled with the Levenshtein
// properties (same function, faster evaluation): a consistent metric, with
// the bit-parallel incremental kernel and banded early abandoning.
func LevenshteinFastMeasure() Measure[byte] {
	return Measure[byte]{
		Name:    "levenshtein-fast",
		Fn:      LevenshteinFast,
		Props:   Properties{Consistent: true, Metric: true, LockStep: false},
		Prepare: myersPrepare,
		Bounded: levenshteinFastBounded,
		Packer:  myersPacker{},
	}
}

func init() {
	RegisterBuiltin(LevenshteinFastMeasure(),
		"unit-cost edit distance via Myers' bit-parallel recurrence")
}
