package core

import (
	"sync/atomic"
	"time"
)

// Latency accounting for the streaming engine. The serving tier needs two
// distributions, not averages: how long submissions wait for a worker
// (queue wait — the overload signal) and how long a caller waits end to
// end (submit → future completed — what a client experiences). Both are
// recorded into HDR-style histograms: a fixed, exponentially spaced bucket
// ladder shared by every pool, so snapshots from different processes are
// directly comparable and recording is one atomic increment — no locks,
// no allocation, safe from every worker at once.

// latencyBuckets is the fixed bucket ladder, as upper bounds. A 1-2-5
// decade ladder from 100µs to 30s keeps relative error under ~2.5× across
// the whole serving range (sub-millisecond cache hits to multi-second
// saturated queues) in 18 buckets; the implicit final bucket is +Inf.
var latencyBuckets = [...]time.Duration{
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second,
	10 * time.Second, 20 * time.Second, 30 * time.Second,
}

// latencyHist is a lock-free fixed-bucket histogram. The zero value is
// ready to use.
type latencyHist struct {
	counts [len(latencyBuckets) + 1]atomic.Int64 // +1: the +Inf bucket
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// observe records one duration.
func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(latencyBuckets) && d > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// LatencyBucket is one rung of a latency histogram: Count observations at
// or below LEMillis milliseconds (and above the previous rung). The final
// rung has LEMillis = 0 and means "over the ladder's top" (+Inf).
type LatencyBucket struct {
	LEMillis float64 `json:"le_ms"`
	Count    int64   `json:"count"`
}

// LatencyStats is a point-in-time snapshot of one latency distribution,
// surfaced inside StreamStats (and by /stats in subseqctl serve). Buckets
// with zero observations are elided from the JSON-facing slice, so an
// idle daemon's stats stay small.
type LatencyStats struct {
	Count int64 `json:"count"`
	// MeanMillis/MaxMillis summarise the distribution; P50/P95/P99 are
	// interpolated within the histogram buckets, so their resolution is
	// the bucket width at that rank (HDR-style bounded relative error),
	// and capped at MaxMillis.
	MeanMillis float64         `json:"mean_ms"`
	MaxMillis  float64         `json:"max_ms"`
	P50Millis  float64         `json:"p50_ms"`
	P95Millis  float64         `json:"p95_ms"`
	P99Millis  float64         `json:"p99_ms"`
	Buckets    []LatencyBucket `json:"buckets,omitempty"`
}

const millisPerNano = 1e-6

// snapshot captures the histogram. Concurrent observes may land between
// counter reads — snapshots are monitoring data, not a barrier.
func (h *latencyHist) snapshot() LatencyStats {
	var counts [len(latencyBuckets) + 1]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	st := LatencyStats{Count: total, MaxMillis: float64(h.max.Load()) * millisPerNano}
	if total == 0 {
		return st
	}
	st.MeanMillis = float64(h.sum.Load()) * millisPerNano / float64(total)
	// Interpolation places a rank by its bucket's edges; when the top
	// occupied bucket holds only values near its lower edge that lands above
	// anything observed, so no quantile is reported past the maximum.
	st.P50Millis = min(quantile(&counts, total, 0.50), st.MaxMillis)
	st.P95Millis = min(quantile(&counts, total, 0.95), st.MaxMillis)
	st.P99Millis = min(quantile(&counts, total, 0.99), st.MaxMillis)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		b := LatencyBucket{Count: c}
		if i < len(latencyBuckets) {
			b.LEMillis = float64(latencyBuckets[i]) * millisPerNano
		}
		st.Buckets = append(st.Buckets, b)
	}
	return st
}

// quantile interpolates the q-th quantile (0..1) linearly within the
// bucket holding that rank; the +Inf bucket reports the ladder's top.
func quantile(counts *[len(latencyBuckets) + 1]int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= rank {
			hi := latencyBuckets[len(latencyBuckets)-1]
			if i < len(latencyBuckets) {
				hi = latencyBuckets[i]
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = latencyBuckets[i-1]
			}
			frac := (rank - float64(seen)) / float64(c)
			return (float64(lo) + frac*float64(hi-lo)) * millisPerNano
		}
		seen += c
	}
	return float64(latencyBuckets[len(latencyBuckets)-1]) * millisPerNano
}
