package shard

import (
	"sync"
	"time"
)

// Single-flight collapse of identical in-flight queries. Two clients
// asking the gateway the exact same question (same endpoint, same raw
// body — which pins kind, ε and the query bytes) at the same moment
// would trigger two identical fan-outs over the fleet; instead the
// second joins the first's flight and both get the one merged answer.
// Queries are pure reads over an immutable-per-request index view, so
// sharing the response bytes is semantically free; the only care needed
// is that the shared fan-out must not die with whichever caller happens
// to lead it (the gateway detaches the flight from the leader's request
// context before scattering).

// flightResult is the materialised HTTP answer a flight produces: every
// waiter writes the same status and body.
type flightResult struct {
	status int
	body   []byte
	// degraded marks an answer merged without every range. Such a result
	// is still served to the flight's waiters but must never enter the
	// result cache — the next attempt may get the complete answer.
	degraded bool
	// expires, when set, is the earliest expiry of the cached partials the
	// answer was merged from: its cache entry expires no later.
	expires time.Time
}

// flightCall is one in-flight fan-out; done closes when res is set.
type flightCall struct {
	done chan struct{}
	res  flightResult
}

// flightGroup deduplicates concurrent calls by key.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// do executes fn once per key among concurrent callers: the first caller
// (the leader) runs fn, everyone else blocks until the leader finishes
// and shares its result. shared reports whether this caller joined an
// existing flight instead of leading one. Once a flight completes its
// key is forgotten, so a later identical query fans out afresh.
func (fg *flightGroup) do(key string, fn func() flightResult) (res flightResult, shared bool) {
	fg.mu.Lock()
	if fg.m == nil {
		fg.m = make(map[string]*flightCall)
	}
	if c, ok := fg.m[key]; ok {
		fg.mu.Unlock()
		<-c.done
		return c.res, true
	}
	c := &flightCall{done: make(chan struct{})}
	fg.m[key] = c
	fg.mu.Unlock()

	// Waiters must never hang: even if fn panics (the HTTP server
	// recovers per-connection panics, so the process would survive with
	// the flight stuck forever), the key is released and done closed.
	defer func() {
		fg.mu.Lock()
		delete(fg.m, key)
		fg.mu.Unlock()
		close(c.done)
	}()
	c.res = fn()
	return c.res, false
}

// pending reports the number of in-flight keys — the leak probe tests
// use: once traffic quiesces it must return to zero.
func (fg *flightGroup) pending() int {
	fg.mu.Lock()
	defer fg.mu.Unlock()
	return len(fg.m)
}
