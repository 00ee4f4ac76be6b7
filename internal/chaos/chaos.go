// Package chaos is the fault-injection harness for the serving stack: it
// wraps a distance measure so that evaluation — the innermost, hottest
// operation every query funnels through — can be made to stall, fail or
// kill its worker on demand, while the injector stays disarmed during
// index construction. The chaos tests drive the streaming engine through
// worker kills mid-query, evaluator stalls against deadlines, queue slams
// past depth and cancellation storms, asserting the three properties the
// robustness layer promises: the pool never deadlocks, every future
// resolves (no leaks), and every query that completes returns results
// bit-identical to the sequential path.
package chaos

import (
	"sync/atomic"
	"time"

	"repro/internal/dist"
)

// Faults is a shared fault-injection control block. All knobs are atomic
// so tests flip them while workers are mid-evaluation; the zero value
// injects nothing. Faults start disarmed — Arm after the index is built,
// so construction is never corrupted and faults land only on query-time
// evaluation.
type Faults struct {
	armed atomic.Bool

	// stallEvery makes every Nth armed evaluation sleep for stall
	// nanoseconds (0 disables): the slow-disk / cold-cache / adversarial-
	// input shape that turns queue wait into deadline pressure.
	stallEvery atomic.Int64
	stall      atomic.Int64

	// panicEvery makes every Nth armed evaluation panic (0 disables): the
	// closest Go gets to killing a worker mid-query. The engine's per-job
	// recovery must convert it into an ErrWorkerCrashed future, never a
	// dead worker or a deadlock.
	panicEvery atomic.Int64

	calls  atomic.Int64
	stalls atomic.Int64
	panics atomic.Int64
}

// Arm enables injection; Disarm disables it (evaluations already sleeping
// finish their stall).
func (f *Faults) Arm()    { f.armed.Store(true) }
func (f *Faults) Disarm() { f.armed.Store(false) }

// SetStall makes every Nth armed evaluation sleep for d (every ≤ 0
// disables).
func (f *Faults) SetStall(every int, d time.Duration) {
	if every <= 0 {
		f.stallEvery.Store(0)
		return
	}
	f.stall.Store(int64(d))
	f.stallEvery.Store(int64(every))
}

// SetPanic makes every Nth armed evaluation panic (every ≤ 0 disables).
func (f *Faults) SetPanic(every int) { f.panicEvery.Store(int64(every)) }

// Calls, Stalls and Panics report how many evaluations ran, stalled and
// panicked since construction.
func (f *Faults) Calls() int64  { return f.calls.Load() }
func (f *Faults) Stalls() int64 { return f.stalls.Load() }
func (f *Faults) Panics() int64 { return f.panics.Load() }

// inject runs the fault schedule for one evaluation.
func (f *Faults) inject() {
	n := f.calls.Add(1)
	if !f.armed.Load() {
		return
	}
	if every := f.stallEvery.Load(); every > 0 && n%every == 0 {
		f.stalls.Add(1)
		time.Sleep(time.Duration(f.stall.Load()))
	}
	if every := f.panicEvery.Load(); every > 0 && n%every == 0 {
		f.panics.Add(1)
		panic("chaos: injected evaluator fault")
	}
}

// WrapMeasure returns m with f's fault schedule injected into every
// distance evaluation: Fn and Bounded are wrapped, and Prepare is
// stripped (kernel evaluation runs inside opaque per-window states the
// injector cannot see) so every query-time distance call flows through a
// wrapped entry point. Results stay bit-identical to the unwrapped
// measure because the underlying evaluations are unchanged.
func WrapMeasure[E any](m dist.Measure[E], f *Faults) dist.Measure[E] {
	inner := m.Fn
	m.Fn = func(a, b []E) float64 {
		f.inject()
		return inner(a, b)
	}
	if bounded := m.Bounded; bounded != nil {
		m.Bounded = func(a, b []E, bound float64) float64 {
			f.inject()
			return bounded(a, b, bound)
		}
	}
	m.Prepare = nil
	return m
}
