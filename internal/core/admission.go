package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Admission control for the streaming engine (stream.go). The original
// backpressure story was a single hard rule — block at queueDepth — which
// protects memory but gives an overloaded deployment no way to say "no"
// usefully: every client waits, tail latency explodes uniformly, and one
// flooding tenant starves everyone. This file adds the policy layer in
// front of the queue:
//
//   - typed saturation errors (ErrQueueFull, ErrDeadlineExceeded) a server
//     can map onto HTTP 429/503/504 instead of opaque failures;
//   - per-submission deadlines and tenant labels (SubmitOption);
//   - a pluggable shed policy (WithShedPolicy): keep blocking, reject the
//     newest arrival, or evict the hoggiest tenant's newest queued work so
//     light tenants keep flowing through a flood.
//
// Expired submissions are additionally dropped *before* a worker prices
// them (stream.go), under every policy: work nobody is waiting for any
// more never reaches the index.

// ErrQueueFull is returned by futures whose submission was shed because
// the engine's in-flight budget (WithQueueDepth) was exhausted under a
// rejecting shed policy. It maps to HTTP 429 in subseqctl serve; clients
// should retry with backoff (see docs/SERVING.md).
var ErrQueueFull = errors.New("core: query queue full")

// ErrDeadlineExceeded is returned by futures whose submission's deadline
// (WithSubmitTimeout) passed before a worker ran the
// query — at submission, while queued, or while blocked for a slot. It
// maps to HTTP 504 in subseqctl serve.
var ErrDeadlineExceeded = errors.New("core: query deadline exceeded")

// ErrWorkerCrashed is wrapped by the future of a query that panicked
// mid-answer (for example a distance evaluator fault). The worker
// recovers, fails that one future with this error and keeps serving — one
// poisoned query cannot take the pool down. It maps to HTTP 500.
var ErrWorkerCrashed = errors.New("core: worker crashed answering this query")

// ShedPolicy selects what Submit does when the engine is at queueDepth.
type ShedPolicy int

const (
	// ShedBlock (the default) blocks the submitting goroutine until a
	// slot frees, honouring the submission's context and deadline — the
	// classic backpressure shape, right when callers are few and patient.
	ShedBlock ShedPolicy = iota
	// ShedRejectNewest fails the arriving submission immediately with
	// ErrQueueFull — the serving shape: the caller gets a fast, typed
	// "try again later" instead of an unbounded wait.
	ShedRejectNewest
	// ShedFairShare is ShedRejectNewest with per-tenant fairness: when
	// the queue is full, an arrival from a lightly loaded tenant evicts
	// the newest *queued* submission of the most loaded tenant (which
	// fails with ErrQueueFull) instead of being rejected itself. A tenant
	// flooding the queue sheds its own tail; tenants within their fair
	// share keep flowing. Submissions carry tenants via WithTenant;
	// untagged submissions share the "" tenant.
	ShedFairShare
)

// String names the policy ("block", "reject", "fair").
func (p ShedPolicy) String() string {
	switch p {
	case ShedBlock:
		return "block"
	case ShedRejectNewest:
		return "reject"
	case ShedFairShare:
		return "fair"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ParseShedPolicy resolves a policy name; it accepts the String names
// plus common synonyms ("reject-newest", "fair-share"). The empty string
// selects ShedBlock.
func ParseShedPolicy(name string) (ShedPolicy, error) {
	switch strings.ToLower(name) {
	case "", "block":
		return ShedBlock, nil
	case "reject", "reject-newest":
		return ShedRejectNewest, nil
	case "fair", "fair-share", "fairshare":
		return ShedFairShare, nil
	default:
		return 0, fmt.Errorf("core: unknown shed policy %q (want block, reject or fair)", name)
	}
}

// WithShedPolicy selects the streaming engine's behaviour at queue
// saturation (default ShedBlock).
func WithShedPolicy(p ShedPolicy) PoolOption {
	return func(c *poolConfig) { c.shedPolicy = p }
}

// SubmitOption attaches per-submission serving metadata — deadline,
// tenant — to one Submit* call.
type SubmitOption func(*submitConfig)

type submitConfig struct {
	deadline time.Time
	tenant   string
}

// WithSubmitTimeout gives the submission a deadline d from now: if no
// worker has started it by then, its future fails with
// ErrDeadlineExceeded and the query is never priced — expired work is
// dropped at the queue, not computed and discarded. (A started query runs
// to completion; index traversals are not preemptible.) A d ≤ 0 has
// already passed.
func WithSubmitTimeout(d time.Duration) SubmitOption {
	return func(c *submitConfig) { c.deadline = time.Now().Add(d) }
}

// WithTenant labels the submission for per-tenant accounting and the
// ShedFairShare policy.
func WithTenant(id string) SubmitOption {
	return func(c *submitConfig) { c.tenant = id }
}

// admit acquires an in-flight slot for j according to the pool's shed
// policy, maintaining per-tenant load accounting. On success the job
// holds one slot token (and one tenant count if labelled), released by
// finish. On failure it returns the typed admission error with the stats
// counter that outcome belongs to.
func (p *QueryPool[E]) admit(j *streamJob[E]) (outcome *atomic.Int64, err error) {
	s := &p.streaming
	if p.shedPolicy != ShedBlock {
		select {
		case s.slots <- struct{}{}:
			s.addTenant(j)
			return nil, nil
		default:
		}
		if p.shedPolicy == ShedFairShare {
			return &s.shed, s.evictForFairShare(j)
		}
		return &s.shed, ErrQueueFull
	}
	var deadlineCh <-chan time.Time
	if !j.deadline.IsZero() {
		t := time.NewTimer(time.Until(j.deadline))
		defer t.Stop()
		deadlineCh = t.C
	}
	select {
	case s.slots <- struct{}{}:
		s.addTenant(j)
		return nil, nil
	case <-j.ctx.Done():
		return &s.cancelled, j.ctx.Err()
	case <-deadlineCh:
		return &s.expired, ErrDeadlineExceeded
	}
}

// addTenant counts one in-flight submission against j's tenant.
func (s *streamState[E]) addTenant(j *streamJob[E]) {
	if j.tenant == "" {
		return
	}
	s.mu.Lock()
	if s.tenantLoad == nil {
		s.tenantLoad = make(map[string]int)
	}
	s.tenantLoad[j.tenant]++
	s.mu.Unlock()
}

// dropTenantLocked releases one in-flight count of a labelled tenant;
// callers hold s.mu.
func (s *streamState[E]) dropTenantLocked(tenant string) {
	if n := s.tenantLoad[tenant] - 1; n > 0 {
		s.tenantLoad[tenant] = n
	} else {
		delete(s.tenantLoad, tenant)
	}
}

// evictForFairShare implements ShedFairShare at saturation: scan the
// *queued* (not yet popped) submissions for the one whose tenant carries
// the highest in-flight load; if that tenant is strictly more loaded than
// j's, evict it (its future fails with ErrQueueFull) and hand its slot to
// j. Otherwise j's tenant is itself the heaviest — j is shed, which is
// exactly reject-newest within a tenant. Running queries are never
// preempted; only queued work is evictable.
func (s *streamState[E]) evictForFairShare(j *streamJob[E]) error {
	s.mu.Lock()
	victimIdx := -1
	victimLoad := s.tenantLoad[j.tenant] // beat this to justify eviction
	for i, q := range s.queue {
		if q.tenant == j.tenant {
			continue
		}
		// >= so later (newer) submissions win ties within the same
		// tenant: the newest job of the heaviest tenant is the victim.
		if l := s.tenantLoad[q.tenant]; l > victimLoad || (victimIdx >= 0 && l >= victimLoad) {
			victimIdx, victimLoad = i, l
		}
	}
	if victimIdx < 0 {
		s.mu.Unlock()
		return ErrQueueFull
	}
	victim := s.takeLocked(victimIdx)
	// Transfer the victim's slot to j: the token stays in the channel,
	// only the accounting moves (the victim's tenant is labelled: it
	// out-weighs j's) — and, resolve's rule, all of it moves before the
	// victim's future settles.
	s.dropTenantLocked(victim.tenant)
	if j.tenant != "" {
		s.tenantLoad[j.tenant]++
	}
	s.mu.Unlock()
	s.shed.Add(1)
	victim.task.settle(ErrQueueFull)
	return nil
}

// finish releases j's admission state: the in-flight slot and the tenant
// count. Called exactly once per admitted job, by resolve, before the
// job's future settles.
func (s *streamState[E]) finish(j *streamJob[E]) {
	<-s.slots
	if j.tenant != "" {
		s.mu.Lock()
		s.dropTenantLocked(j.tenant)
		s.mu.Unlock()
	}
}
