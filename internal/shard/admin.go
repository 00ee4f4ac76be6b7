package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// Replica write fan-out: the admin surface behind the gateway. Reads
// scatter to *one* replica per range (whichever answers first); writes
// are the dual — /admin/append and /admin/retire go to EVERY replica of
// the owning range, /admin/snapshot to every replica of every range —
// because replicas are independent indexes that only stay
// interchangeable if each applies each mutation itself.
//
// Ownership: an append always lands on the tail range (shards number
// appended sequences after their existing slice, so the new sequence
// takes the next global IDs); a retire lands on the range whose [lo,hi)
// contains seq_id, exactly the ownership check the shards enforce
// themselves. An acknowledged append also grows the plan's tail range,
// so the new sequence is immediately retirable through the gateway.
//
// Accounting is per replica and quorum-scored: acks counts 2xx verdicts,
// quorum holds when a strict majority acked. The gateway is availability
// -biased like the read path — one ack makes the write observable, so
// one ack makes the overall response 200 with every miss itemised (an
// operator must heal a partially-acked range, e.g. by restarting the
// missed replica from a snapshot); zero acks is a failure: the first
// 4xx verdict (bad request, unsupported retire, unowned id) is passed
// through verbatim, anything else is a 502 naming each replica's error.
//
// The gateway's write state is one immutable generation (gen) behind one
// atomic pointer: the plan, the plan epoch, and each range's epoch and log
// of its last writes. Every acknowledged mutation builds the next gen and
// swaps it in at once (commit) — its range's epoch and the plan epoch move
// by one and the write is logged — then flushes the cached merged answers,
// before the client sees the response. A read loads one gen and uses it
// for every key it computes: merged keys embed the plan epoch (CacheKey),
// and every partial records the range epoch it is current at. A partial
// answers at its own epoch; a findall, longest or filter partial is also
// carried through the logged writes — served as it is across a retire of
// a sequence it does not name, extended by one scoped ask ("seqs") over
// the sequences appended since — and any other is asked again. So a
// request that starts after the write's response is never served an
// answer of the written range computed before it; the other ranges'
// partials stay valid and are served on.

// adminFanoutTimeout bounds one write fan-out. The fan-out runs on a
// context detached from the client's: once the gateway starts telling
// replicas to mutate, a client disconnect must not leave the range half
// written.
const adminFanoutTimeout = 30 * time.Second

func (g *Gateway) handleAdminAppend(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan := g.Plan()
	ri := len(plan.Ranges) - 1
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), adminFanoutTimeout)
	defer cancel()
	results := g.fanoutRange(ctx, ri, "/admin/append", func(int) []byte { return body })
	acks := countAcks(results)
	if acks == 0 {
		writeAdminFailure(w, "append", results)
		return
	}
	// Every ack must report the same allocated global ID; replicas of one
	// range hold identical slices, so disagreement means split brain.
	seqID, diverged := -1, false
	for _, res := range results {
		if !res.OK {
			continue
		}
		var ar struct {
			SeqID *int `json:"seq_id"`
		}
		if json.Unmarshal(res.Response, &ar) != nil || ar.SeqID == nil {
			continue
		}
		switch {
		case seqID == -1:
			seqID = *ar.SeqID
		case *ar.SeqID != seqID:
			diverged = true
		}
	}
	resp := AdminFanoutResponse{Op: "append", Shard: &ri, Acks: acks,
		Replicas: len(results), Quorum: 2*acks > len(results), Diverged: diverged,
		Results: results}
	op := opUnknown
	if seqID >= 0 {
		resp.SeqID = &seqID
		if !diverged {
			op = opAppend
		}
	}
	next := g.commit(ri, op, seqID)
	resp.Range = &next.plan.Ranges[ri]
	resp.Epoch, resp.Invalidated = next.epoch, g.flush()
	writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleAdminRetire(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Peek at seq_id to route; the body is still forwarded verbatim so
	// the shards run their own full validation.
	var req struct {
		SeqID *int `json:"seq_id"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid retire request: %w", err))
		return
	}
	if req.SeqID == nil {
		writeError(w, http.StatusBadRequest, errors.New(`"seq_id" is required`))
		return
	}
	plan := g.Plan()
	ri := -1
	for i, rg := range plan.Ranges {
		if *req.SeqID >= rg.Lo && *req.SeqID < rg.Hi {
			ri = i
			break
		}
	}
	if ri < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("seq_id %d is outside every shard range (plan has %d sequences)", *req.SeqID, plan.Seqs))
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), adminFanoutTimeout)
	defer cancel()
	results := g.fanoutRange(ctx, ri, "/admin/retire", func(int) []byte { return body })
	acks := countAcks(results)
	if acks == 0 {
		writeAdminFailure(w, "retire", results)
		return
	}
	rng := plan.Ranges[ri]
	resp := AdminFanoutResponse{Op: "retire", Shard: &ri, Range: &rng, SeqID: req.SeqID,
		Acks: acks, Replicas: len(results), Quorum: 2*acks > len(results), Results: results}
	resp.Epoch, resp.Invalidated = g.commit(ri, opRetire, *req.SeqID).epoch, g.flush()
	writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Path string `json:"path"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid snapshot request: %w", err))
		return
	}
	if strings.TrimSpace(req.Path) == "" {
		writeError(w, http.StatusBadRequest, errors.New(`"path" is required`))
		return
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), adminFanoutTimeout)
	defer cancel()
	// Every replica of every range snapshots its own slice; the path is
	// suffixed per replica so the files never collide (each is restorable
	// with -restore on a process taking over that replica's slot).
	var all []AdminReplicaResult
	for ri := range g.health {
		suffix := func(j int) string { return fmt.Sprintf("%s.s%dr%d", req.Path, ri, j) }
		results := g.fanoutRange(ctx, ri, "/admin/snapshot", func(j int) []byte {
			b, _ := json.Marshal(struct {
				Path string `json:"path"`
			}{suffix(j)})
			return b
		})
		for j := range results {
			results[j].Path = suffix(j)
		}
		all = append(all, results...)
	}
	acks := countAcks(all)
	if acks == 0 {
		writeAdminFailure(w, "snapshot", all)
		return
	}
	// Snapshots mutate nothing: the epoch is reported, not bumped.
	writeJSON(w, http.StatusOK, AdminFanoutResponse{Op: "snapshot", Acks: acks,
		Replicas: len(all), Quorum: 2*acks > len(all), Epoch: g.Epoch(), Results: all})
}

// fanoutRange posts a body to every replica of range ri concurrently —
// no failover, no hedging, no breaker-preferred ordering: a write is for
// each replica individually, not for whichever answers first. Breakers
// are still fed through tryReplica, so a dead replica discovered by a
// write is deflected from subsequent reads.
func (g *Gateway) fanoutRange(ctx context.Context, ri int, path string, body func(replica int) []byte) []AdminReplicaResult {
	set := g.health[ri]
	out := make([]AdminReplicaResult, len(set.addrs))
	var wg sync.WaitGroup
	for j := range set.addrs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rep := g.tryReplica(ctx, ri, j, path, body(j))
			ar := AdminReplicaResult{Shard: ri, Replica: j, Addr: set.addrs[j]}
			if rep.err != nil {
				ar.Error = rep.err.Error()
			} else {
				ar.Status = rep.status
				ar.OK = rep.status >= 200 && rep.status < 300
				ar.Response = json.RawMessage(rep.body)
				if !ar.OK {
					ar.Error = shardErrorText(rep.body)
				}
			}
			out[j] = ar
		}(j)
	}
	wg.Wait()
	return out
}

// countAcks counts the 2xx verdicts in a fan-out.
func countAcks(results []AdminReplicaResult) int {
	n := 0
	for _, r := range results {
		if r.OK {
			n++
		}
	}
	return n
}

// writeAdminFailure renders a zero-ack fan-out: the first client-error
// verdict passes through verbatim (every replica shares the session
// spec, so one 4xx speaks for the range — a malformed body, an
// unsupported retire, an unowned seq_id); otherwise the write found no
// living replica and fails 502 with each attempt itemised.
func writeAdminFailure(w http.ResponseWriter, op string, results []AdminReplicaResult) {
	for _, res := range results {
		if res.Status >= 400 && res.Status < 500 && len(res.Response) > 0 {
			writeRaw(w, res.Status, res.Response)
			return
		}
	}
	msgs := make([]string, len(results))
	for i, res := range results {
		if res.Status != 0 {
			msgs[i] = fmt.Sprintf("replica %d (%s): HTTP %d: %s", res.Replica, res.Addr, res.Status, res.Error)
		} else {
			msgs[i] = fmt.Sprintf("replica %d (%s): %s", res.Replica, res.Addr, res.Error)
		}
	}
	writeError(w, http.StatusBadGateway,
		fmt.Errorf("%s: no replica acknowledged the write: %s", op, strings.Join(msgs, "; ")))
}

// --- the write generation ---

// writeLogLen is how many writes each range's log holds. A carried partial
// that more writes to its range have passed is a plain miss.
const writeLogLen = 64

// writeOp is what a logged write did to its range.
type writeOp uint8

const (
	// opUnknown is a write whose effect the gateway cannot name — an append
	// whose acks carried no seq_id, or whose replicas disagreed on it. No
	// partial is carried across it.
	opUnknown writeOp = iota
	opAppend
	opRetire
)

// loggedWrite is one acknowledged write to a range: the epoch it moved the
// range to, and what it did to which sequence.
type loggedWrite struct {
	epoch uint64
	op    writeOp
	seqID int
}

// gen is one generation of the gateway's write state, never modified once
// published: the plan, the plan epoch (the count of acknowledged writes
// through this gateway, the sum of the range epochs), and each range's
// epoch and write log.
type gen struct {
	plan   Plan
	epoch  uint64
	ranges []rangeGen
}

// rangeGen is one range's share of a gen: its epoch, which its partials
// are current at, and the last writeLogLen writes that moved it, oldest
// first, the last of them to epoch.
type rangeGen struct {
	epoch uint64
	log   []loggedWrite
}

// commit publishes the generation an acknowledged write to range ri makes
// and returns it: the range's epoch and the plan epoch move by one, the
// write is logged as op on seqID, and the plan's tail range grows to cover
// a seqID past it. Writes are serialised by adminMu; a read sees the old
// gen or the new one, whole.
func (g *Gateway) commit(ri int, op writeOp, seqID int) *gen {
	g.adminMu.Lock()
	defer g.adminMu.Unlock()
	cur := g.gen.Load()
	next := &gen{plan: cur.plan, epoch: cur.epoch + 1, ranges: slices.Clone(cur.ranges)}
	r := &next.ranges[ri]
	r.epoch++
	r.log = append(slices.Clone(r.log[max(0, len(r.log)-writeLogLen+1):]), loggedWrite{epoch: r.epoch, op: op, seqID: seqID})
	if last := len(cur.plan.Ranges) - 1; seqID >= cur.plan.Ranges[last].Hi {
		next.plan.Ranges = slices.Clone(cur.plan.Ranges)
		next.plan.Ranges[last].Hi = seqID + 1
		next.plan.Seqs = seqID + 1
	}
	g.gen.Store(next)
	g.writes.Add(1)
	return next
}

// flush drops the cached merged answers after a write, returning how many.
func (g *Gateway) flush() int {
	if g.cache == nil {
		return 0
	}
	return g.cache.Flush()
}

// carry decides whether a carried partial of the range, current at epoch at
// and holding body, answers a read at the range's epoch, and with which
// delta: the sequences appended since at and not retired since, which the
// range is asked for alone (none: the partial answers as it is). It does
// when the log holds every write since at, each an append or a retire, and
// no retire is of a sequence the partial names — a match or a hit of a
// retired sequence would have to go, and the range is asked again instead.
// A partial current at a later epoch than the range's is not used.
func (r rangeGen) carry(at uint64, body []byte) (delta []int, ok bool) {
	if at > r.epoch || r.epoch-at > uint64(len(r.log)) {
		return nil, false
	}
	var named map[int]bool
	for _, w := range r.log[len(r.log)-int(r.epoch-at):] {
		switch w.op {
		case opAppend:
			delta = append(delta, w.seqID)
		case opRetire:
			if named == nil {
				if named, ok = namedSeqs(body); !ok {
					return nil, false
				}
			}
			if named[w.seqID] {
				return nil, false
			}
			delta = slices.DeleteFunc(delta, func(id int) bool { return id == w.seqID })
		default:
			return nil, false
		}
	}
	return delta, true
}

// namedSeqs returns the sequence IDs a findall, longest or filter reply
// names: those of its matches, its match, or its hits.
func namedSeqs(body []byte) (map[int]bool, bool) {
	type named struct {
		SeqID int `json:"seq_id"`
	}
	var r struct {
		Matches []named `json:"matches"`
		Match   *named  `json:"match"`
		Hits    []named `json:"hits"`
	}
	if json.Unmarshal(body, &r) != nil {
		return nil, false
	}
	ids := make(map[int]bool, len(r.Matches)+len(r.Hits)+1)
	for _, n := range append(r.Matches, r.Hits...) {
		ids[n.SeqID] = true
	}
	if r.Match != nil {
		ids[r.Match.SeqID] = true
	}
	return ids, true
}
