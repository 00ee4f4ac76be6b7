package main

import (
	"encoding/json"
	"math/rand/v2"

	"repro/internal/data"
	"repro/internal/seq"
)

// Workload inputs. The seed reaches this file and nothing else: the program
// under test only ever sees the queries, appended sequences and op order
// generated here. Datasets are fixed per workload (PROTEINS seed 1, TRAJ
// seed 3) so that index structure, set-up time and memory do not move with
// the seed; what the seed moves is which database regions the queries copy,
// how they are mutated and which key each op draws.

// opKind names what one op asks of the system.
type opKind uint8

const (
	opFindAll  opKind = iota // query Type I
	opLongest                // query Type II
	opNearest                // query Type III
	opFilter                 // filtering steps only
	opBatch                  // POST /query/batch of N findall queries
	opAppend                 // POST /admin/append
	opRetire                 // POST /admin/retire of the earliest live append
	opBarrier                // burst answered by pool.FindAll
	opSeqBatch               // burst answered by Matcher.FindAllBatch
	opSubmit                 // burst answered by N×pool.Submit, then Await all
)

var opKindNames = [...]string{"findall", "longest", "nearest", "filter", "batch",
	"append", "retire", "barrier", "seqbatch", "submit"}

func (k opKind) String() string { return opKindNames[k] }

// isWrite reports whether the op mutates the store.
func (k opKind) isWrite() bool { return k == opAppend || k == opRetire }

// op is one entry of a workload's fixed op list.
type op struct {
	Kind opKind
	// Q indexes the workload's query table (first query of a batch or
	// burst); for opAppend it indexes the append table instead.
	Q int
	// N is how many queries the op carries (1 except batches and bursts, 0
	// for writes).
	N int
	// Eps is the radius (EpsMax for opNearest, whose EpsInc is always 1).
	Eps float64
	// Eps2, when non-zero, is the radius of every second query of an
	// opSubmit burst.
	Eps2 float64
}

// inputs is everything a workload feeds the program under test.
type inputs[E any] struct {
	Queries []seq.Sequence[E]
	Appends []seq.Sequence[E]
	Ops     []op
}

// bytes is the canonical encoding the determinism test compares.
func (in inputs[E]) bytes() []byte {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // only plain data is marshalled
	}
	return b
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// queryLen is the length of every workload's queries: λ = 40 plus a little,
// so that a query yields 78 segments (three lengths at 25 to 27 offsets).
const queryLen = 45

// randomQueries draws n mutated database subsequences with data.RandomQuery
// (the paper's query recipe: copy a random subsequence, point-mutate it at
// the given rate), each from its own derived seed.
func randomQueries[E any](rng *rand.Rand, ds data.Dataset[E], n int, rate float64,
	mutate func(*rand.Rand, E) E) []seq.Sequence[E] {
	out := make([]seq.Sequence[E], n)
	for i := range out {
		out[i] = data.RandomQuery(ds, queryLen, rate, mutate, rng.Uint64())
	}
	return out
}

// seqPattern is one step of an in-process workload's repeating op cycle.
type seqPattern struct {
	kind opKind
	eps  float64
}

// genCycle builds an op list of n single-query ops cycling through pattern,
// each op with its own query.
func genCycle[E any](rng *rand.Rand, ds data.Dataset[E], n int, rate float64,
	mutate func(*rand.Rand, E) E, pattern []seqPattern) inputs[E] {
	in := inputs[E]{Queries: randomQueries(rng, ds, n, rate, mutate)}
	for i := 0; i < n; i++ {
		p := pattern[i%len(pattern)]
		in.Ops = append(in.Ops, op{Kind: p.kind, Q: i, N: 1, Eps: p.eps})
	}
	return in
}

// Mutation rates. Proteins use the paper's 0.1. Trajectories use 0.02: a
// trajectory query either finds its source region (hits, then ~35 ms of ERP
// verification) or finds nothing (filter only, ~6 ms), and at 0.1 the two
// outcomes are evenly split — the median latency then falls in the empty
// gap between the two modes and swings by half its value from seed to seed.
// At 0.02 about 70 % of queries verify, which is the case this workload
// exists to time, and the median sits inside that mode.
const (
	proteinMutation = 0.1
	trajMutation    = 0.02
)

var proteinSeqPattern = []seqPattern{
	{opFindAll, 1}, {opFindAll, 2}, {opFindAll, 4}, {opLongest, 4}, {opNearest, 8},
}

var trajSeqPattern = []seqPattern{
	{opFindAll, 1}, {opFindAll, 2}, {opFindAll, 3}, {opLongest, 3},
}

func genProteinSeq(seed uint64, ds data.Dataset[byte], n int) inputs[byte] {
	return genCycle(newRNG(seed, 0x5e01), ds, n, proteinMutation, data.MutateAA, proteinSeqPattern)
}

func genTrajSeq(seed uint64, ds data.Dataset[seq.Point2], n int) inputs[seq.Point2] {
	return genCycle(newRNG(seed, 0x5e02), ds, n, trajMutation, data.MutatePoint, trajSeqPattern)
}

// burstSize is how many queries one protein-pool burst carries.
const burstSize = 16

// genProteinPool builds n bursts rotating through the three call styles.
func genProteinPool(seed uint64, ds data.Dataset[byte], n int) inputs[byte] {
	rng := newRNG(seed, 0x5e03)
	in := inputs[byte]{Queries: randomQueries(rng, ds, n*burstSize, proteinMutation, data.MutateAA)}
	for i := 0; i < n; i++ {
		o := op{Q: i * burstSize, N: burstSize, Eps: 2}
		switch i % 3 {
		case 0:
			o.Kind = opBarrier
		case 1:
			o.Kind = opSeqBatch
		case 2:
			o.Kind, o.Eps2 = opSubmit, 4
		}
		in.Ops = append(in.Ops, o)
	}
	return in
}

// linkerSequence draws a sequence from the uniform amino-acid alphabet.
// Appended sequences are pure noise on purpose: no 45-character query
// copied from the structured database comes within ε ≤ 3 of a 20-character
// window of noise, so appends never change a read's answer (set-up proves
// this with a real matcher before any op runs).
func linkerSequence(rng *rand.Rand, n int) seq.Sequence[byte] {
	s := make(seq.Sequence[byte], n)
	for i := range s {
		s[i] = data.MutateAA(rng, 0)
	}
	return s
}

// preAppends is how many noise sequences set-up appends before any op runs,
// so that a retire op always has an earlier append to retire and the index
// size stays constant. They are the first entries of the append table.
const preAppends = 4

func setupAppends(rng *rand.Rand) []seq.Sequence[byte] {
	out := make([]seq.Sequence[byte], preAppends)
	for i := range out {
		out[i] = linkerSequence(rng, 40)
	}
	return out
}

// serveBatchSize is how many findall queries one /query/batch op carries.
const serveBatchSize = 8

// serveDistinct is the number of distinct single-query ops serve-mixed draws
// from; every one has an expected answer computed in process.
const serveDistinct = 256

// genServeMixed builds the serve-mixed op list: 80 % single queries over the
// four query endpoints, 10 % batches of 8, 5 % appends and 5 % retires.
// Queries [0, serveDistinct) serve the single-query ops, the rest the
// batches. Client c of two runs the ops at positions ≡ c (mod 2), so the
// writes (odd positions) are all issued by one client, in order, while the
// other reads without pause; batches fall to both.
func genServeMixed(seed uint64, ds data.Dataset[byte], n int) inputs[byte] {
	rng := newRNG(seed, 0x5e04)
	const batches = 32
	in := inputs[byte]{Queries: randomQueries(rng, ds, serveDistinct+batches*serveBatchSize, proteinMutation, data.MutateAA)}
	in.Appends = setupAppends(rng)
	singles := []opKind{opFindAll, opLongest, opFilter, opNearest}
	for i := 0; i < n; i++ {
		switch r := i % 20; {
		case r == 9:
			in.Ops = append(in.Ops, op{Kind: opAppend, Q: len(in.Appends)})
			in.Appends = append(in.Appends, linkerSequence(rng, 40))
		case r == 19:
			in.Ops = append(in.Ops, op{Kind: opRetire})
		case r == 4 || r == 15:
			b := rng.IntN(batches)
			in.Ops = append(in.Ops, op{Kind: opBatch, Q: serveDistinct + b*serveBatchSize, N: serveBatchSize, Eps: 2})
		default:
			// The op's kind and radius are functions of the query index,
			// so a distinct query is always asked the same question and has
			// one expected answer.
			q := rng.IntN(serveDistinct)
			in.Ops = append(in.Ops, op{Kind: singles[q%4], Q: q, N: 1, Eps: float64(1 + q/4%3)})
		}
	}
	return in
}

// fleetDistinct is the number of distinct hot keys fleet-hotkeys draws from.
const fleetDistinct = 256

// genFleetHotkeys builds the fleet-hotkeys op list: findall/longest queries
// over 256 distinct keys drawn zipf(s=1.1), with one op in 200 a write
// (alternating append and retire) that bumps the gateway's epoch and empties
// its cache.
func genFleetHotkeys(seed uint64, ds data.Dataset[byte], n int) inputs[byte] {
	rng := newRNG(seed, 0x5e05)
	in := inputs[byte]{Queries: randomQueries(rng, ds, fleetDistinct, proteinMutation, data.MutateAA)}
	in.Appends = setupAppends(rng)
	zipf := rand.NewZipf(rng, 1.1, 1, fleetDistinct-1)
	writes := 0
	for i := 0; i < n; i++ {
		if i%200 == 199 {
			if writes%2 == 0 {
				in.Ops = append(in.Ops, op{Kind: opAppend, Q: len(in.Appends)})
				in.Appends = append(in.Appends, linkerSequence(rng, 40))
			} else {
				in.Ops = append(in.Ops, op{Kind: opRetire})
			}
			writes++
			continue
		}
		q := int(zipf.Uint64())
		kind := opFindAll
		if q%2 == 1 {
			kind = opLongest
		}
		in.Ops = append(in.Ops, op{Kind: kind, Q: q, N: 1, Eps: float64(1 + q/2%3)})
	}
	return in
}
