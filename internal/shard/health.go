package shard

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Per-replica health model. Every replica of every range has a
// consecutive-failure circuit breaker; breakers are fed from two sides —
// real query traffic (a transport error or 5xx is a failure, any decoded
// answer is a success) and the background /healthz prober — so a replica
// that dies under load is marked sick within a handful of requests even
// between probe ticks, and a replica that comes back is re-admitted by
// the next successful probe without waiting for a query to gamble on it.
//
// The breaker is deliberately availability-biased: its state orders the
// replicas a query tries (closed first, probe-ready next, open last) but
// never forbids the attempt outright. A range whose every breaker is
// open is still tried in full — the worst the breaker can do is cost a
// failed first attempt, never manufacture an outage the fleet doesn't
// actually have.

// BreakerState is a circuit breaker's routing verdict for one replica.
type BreakerState int

const (
	// BreakerClosed: the replica is believed healthy; route freely.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the replica failed repeatedly and its cool-down has
	// not elapsed; route only as a last resort.
	BreakerOpen
	// BreakerHalfOpen: the cool-down has elapsed; the replica should be
	// offered trial traffic — one success closes the breaker, one
	// failure re-arms the cool-down.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

const (
	// defaultBreakerThreshold is how many consecutive failures open a
	// breaker: one lost request is routine (a kill mid-flight, a dropped
	// connection), three in a row with zero successes in between is a
	// dead process.
	defaultBreakerThreshold = 3
	// defaultBreakerCooldown is how long an open breaker deflects
	// traffic before offering the replica a half-open trial.
	defaultBreakerCooldown = 5 * time.Second
	// defaultProbeInterval paces the background /healthz prober.
	defaultProbeInterval = 2 * time.Second
	// maxProbeTimeout caps a single health probe no matter how lazy the
	// probe interval is.
	maxProbeTimeout = 2 * time.Second
)

// breaker is one replica's consecutive-failure circuit breaker. The
// half-open state is derived rather than stored: an open breaker whose
// cool-down has elapsed reports BreakerHalfOpen, and the next outcome
// decides — success closes it, failure re-arms the cool-down from now.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	open        bool
	openedAt    time.Time
	consecFails int
	lastErr     string
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// state reports the breaker's routing verdict at time now.
func (b *breaker) state(now time.Time) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked(now)
}

func (b *breaker) stateLocked(now time.Time) BreakerState {
	if !b.open {
		return BreakerClosed
	}
	if now.Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return BreakerOpen
}

// success records a healthy interaction: the breaker closes and the
// failure streak resets, whatever state it was in.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open = false
	b.consecFails = 0
	b.lastErr = ""
}

// failure records a failed interaction. A closed breaker opens at the
// consecutive-failure threshold; an open (or half-open) breaker re-arms
// its cool-down, so a failed trial pushes the next one a full cool-down
// out instead of hammering a still-dead replica.
func (b *breaker) failure(errText string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	b.lastErr = errText
	if b.open {
		b.openedAt = time.Now()
		return
	}
	if b.consecFails >= b.threshold {
		b.open = true
		b.openedAt = time.Now()
	}
}

// status snapshots the breaker for /healthz and /stats reporting.
func (b *breaker) status(now time.Time) BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{
		State:               b.stateLocked(now).String(),
		ConsecutiveFailures: b.consecFails,
		LastError:           b.lastErr,
	}
}

// replicaSet is one range's replicas: the endpoints, their breakers and
// a round-robin cursor that spreads first-attempt load across the
// healthy members.
type replicaSet struct {
	addrs    []string
	breakers []*breaker
	rr       atomic.Uint64
}

func newReplicaSet(addrs []string, threshold int, cooldown time.Duration) *replicaSet {
	s := &replicaSet{addrs: addrs, breakers: make([]*breaker, len(addrs))}
	for i := range s.breakers {
		s.breakers[i] = newBreaker(threshold, cooldown)
	}
	return s
}

// order returns the replica indices in attempt order: breaker-closed
// replicas first (rotated round-robin so repeated queries spread load),
// then half-open ones due a trial, then open ones as the last resort.
// Every replica always appears — the breaker biases routing, it never
// blacks a range out on its own.
func (s *replicaSet) order(now time.Time) []int {
	n := len(s.addrs)
	if n == 1 {
		return []int{0}
	}
	start := int(s.rr.Add(1)-1) % n
	closed := make([]int, 0, n)
	var trial, open []int
	for k := 0; k < n; k++ {
		i := (start + k) % n
		switch s.breakers[i].state(now) {
		case BreakerClosed:
			closed = append(closed, i)
		case BreakerHalfOpen:
			trial = append(trial, i)
		default:
			open = append(open, i)
		}
	}
	return append(append(closed, trial...), open...)
}

// health snapshots the set for reporting; probeOK, when non-nil, holds
// live per-replica probe results to fold in.
func (s *replicaSet) health(shard int, r Range, now time.Time, probeOK []bool) RangeHealth {
	rh := RangeHealth{Shard: shard, Range: r, Replicas: make([]ReplicaHealth, len(s.addrs))}
	for i, addr := range s.addrs {
		ok := s.breakers[i].state(now) == BreakerClosed
		if probeOK != nil {
			ok = probeOK[i]
		}
		if ok {
			rh.Up++
		}
		rh.Replicas[i] = ReplicaHealth{Replica: i, Addr: addr, OK: ok, Breaker: s.breakers[i].status(now)}
	}
	return rh
}

// StartProbing launches the background health prober: every probe
// interval, every replica's /healthz is fetched and the result fed to
// its breaker, so dead replicas are deflected before a query pays for
// the discovery and recovered ones are re-admitted promptly. Returns a
// stop function (idempotent to call once; blocks until the prober
// exits). A non-positive probe interval disables probing.
func (g *Gateway) StartProbing() (stop func()) {
	if g.probeInterval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(g.probeInterval)
		defer ticker.Stop()
		for {
			g.probeAll(context.Background())
			select {
			case <-done:
				return
			case <-ticker.C:
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// probeAll probes every replica of every range concurrently, feeding
// breakers, and returns the per-range live results (indexed like
// g.health). It is shared by the background prober and GET /healthz.
func (g *Gateway) probeAll(ctx context.Context) [][]bool {
	timeout := g.probeInterval
	if timeout <= 0 || timeout > maxProbeTimeout {
		timeout = maxProbeTimeout
	}
	results := make([][]bool, len(g.health))
	var wg sync.WaitGroup
	for ri, set := range g.health {
		results[ri] = make([]bool, len(set.addrs))
		for i := range set.addrs {
			wg.Add(1)
			go func(ri, i int, set *replicaSet) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, timeout)
				defer cancel()
				results[ri][i] = g.probeReplica(pctx, set, i)
			}(ri, i, set)
		}
	}
	wg.Wait()
	return results
}

// probeReplica GETs one replica's /healthz and feeds its breaker.
func (g *Gateway) probeReplica(ctx context.Context, set *replicaSet, i int) bool {
	resp, err := g.get(ctx, set.addrs[i]+"/healthz")
	if err != nil {
		set.breakers[i].failure(err.Error())
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		set.breakers[i].failure("healthz HTTP " + resp.Status)
		return false
	}
	set.breakers[i].success()
	return true
}
