package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 where that has no
	// meaning, e.g. a counter).
	N int `json:"n,omitempty"`
	// Note flags a value that should not be leaned on, e.g. a percentile
	// with too few samples in a smoke run.
	Note string `json:"note,omitempty"`
}

// metrics maps metric name to measured value.
type metrics map[string]value

// set records a metric. A value with nothing behind it (NaN: a median of no
// samples) is stored as 0 and flagged, since JSON has no NaN.
func (m metrics) set(name string, v float64, n int) {
	val := value{Value: v, Unit: unitOf(name), N: n}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		val.Value, val.Note = 0, "no samples"
	}
	m[name] = val
}

func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

var unitsByName = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

func unitOf(name string) string {
	u, ok := unitsByName[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in defs.go")
	}
	return u
}

// result is one workload's untraced run.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	WindowS  float64 `json:"window_s"`
	// Attempted and Failed count ops (a batch or burst is one op); an op
	// fails on an error, a non-2xx status or a wrong answer.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Queries is the number of timed queries answered.
	Queries int     `json:"queries"`
	Metrics metrics `json:"metrics"`
	// AnswersDigest is the SHA-256 over the canonical answers of the
	// counted prefix.
	AnswersDigest string   `json:"answers_digest"`
	Failures      []string `json:"failures,omitempty"`
}

// fail records one failed op, keeping the first few reasons for the report.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runConfig is what a workload run is told: its (possibly smoke-scaled)
// definition and the harness's settings.
type runConfig struct {
	def workloadDef
	*harness
}

// latencyMetrics fills throughput and the latency percentiles from per-query
// latencies in milliseconds. A p95 with fewer than 200 samples is an error
// in a real run and a flagged value in a smoke run.
func latencyMetrics(m metrics, latMS []float64, queries int, window time.Duration, smoke bool) error {
	s := sortedCopy(latMS)
	m.set("throughput_qps", float64(queries)/window.Seconds(), queries)
	p50, n, err := percentile(s, 0.50)
	if err != nil && !smoke {
		return err
	}
	m.set("lat_p50_ms", p50, n)
	p95, n, err := percentile(s, 0.95)
	m.set("lat_p95_ms", p95, n)
	if err != nil {
		if !smoke {
			return err
		}
		v := m["lat_p95_ms"]
		v.Note = "indicative: " + err.Error()
		m["lat_p95_ms"] = v
	}
	return nil
}

// peakRSSMiB reads VmHWM, the peak resident set, of one process.
func peakRSSMiB(pid int) (float64, error) {
	const field = "VmHWM:"
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %s %w", path, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s line", path, field)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
