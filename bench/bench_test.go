package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// genAll returns every workload's canonical input encoding for one seed.
func genAll(seed uint64) map[string][]byte {
	defs := map[string]workloadDef{}
	for _, w := range workloads {
		defs[w.Name] = w.scaled(smokeDivisor)
	}
	return map[string][]byte{
		"protein-seq":   genProteinSeq(seed, proteinBench.dataset(), defs["protein-seq"].Ops).bytes(),
		"traj-erp-seq":  genTrajSeq(seed, trajBench.dataset(), defs["traj-erp-seq"].Ops).bytes(),
		"protein-pool":  genProteinPool(seed, poolBench.dataset(), defs["protein-pool"].Ops).bytes(),
		"serve-mixed":   genServeMixed(seed, serveDataset(), defs["serve-mixed"].Ops).bytes(),
		"fleet-hotkeys": genFleetHotkeys(seed, fleetDataset(), defs["fleet-hotkeys"].Ops).bytes(),
	}
}

func TestOpListsRepeatForOneSeedAndDifferBetweenSeeds(t *testing.T) {
	a, again, b := genAll(1), genAll(1), genAll(2)
	for _, w := range workloads {
		if len(a[w.Name]) == 0 {
			t.Fatalf("%s: no inputs generated", w.Name)
		}
		if !bytes.Equal(a[w.Name], again[w.Name]) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.Name)
		}
		if bytes.Equal(a[w.Name], b[w.Name]) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.Name)
		}
	}
}

func TestWriteOpsKeepIndexSizeConstant(t *testing.T) {
	for name, in := range map[string]inputs[byte]{
		"serve-mixed":   genServeMixed(1, serveDataset(), 400),
		"fleet-hotkeys": genFleetHotkeys(1, fleetDataset(), 2000),
	} {
		live := preAppends
		for i, o := range in.Ops {
			switch o.Kind {
			case opAppend:
				if o.Q < preAppends || o.Q >= len(in.Appends) {
					t.Fatalf("%s: op %d appends entry %d of %d", name, i, o.Q, len(in.Appends))
				}
				live++
			case opRetire:
				live--
			}
			if o.Kind.isWrite() && i%httpClients != 1 {
				t.Errorf("%s: write op %d is not on client 1's positions", name, i)
			}
			if live < 1 || live > preAppends+1 {
				t.Fatalf("%s: %d appended sequences live after op %d", name, live, i)
			}
		}
	}
}

// pinned is the part of expected.json that freezes the op lists.
type pinned struct {
	Ops map[string]struct{ Ops, Prefix, TraceOps int } `json:"ops"`
}

func TestFrozenOpCounts(t *testing.T) {
	var p pinned
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != len(workloads) {
		t.Fatalf("expected.json freezes %d workloads, defs.go has %d", len(p.Ops), len(workloads))
	}
	for _, w := range workloads {
		got := p.Ops[w.Name]
		if got.Ops != w.Ops || got.Prefix != w.Prefix || got.TraceOps != w.TraceOps {
			t.Errorf("%s: defs.go has ops=%d prefix=%d trace=%d, expected.json froze %+v — the pinned digests belong to the frozen counts",
				w.Name, w.Ops, w.Prefix, w.TraceOps, got)
		}
		if w.Prefix > w.Ops || w.TraceOps > w.Ops {
			t.Errorf("%s: prefix %d or trace %d exceeds the %d-op list", w.Name, w.Prefix, w.TraceOps, w.Ops)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T, path string) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	bj := readBenchmarkJSON(t, "../BENCHMARK.json")
	if strings.Join(bj.Command, " ") != "go run ./bench" || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("command %v paths %v, want `go run ./bench` over bench", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in defs.go", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for i, w := range workloads {
		checkName(w.Name, "")
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, defs.go has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var contract []metricDef
	for _, d := range endToEnd {
		if d.Contract {
			contract = append(contract, d)
		}
	}
	if len(bj.EndToEnd) != len(contract) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d contract metrics in defs.go", len(bj.EndToEnd), len(contract))
	}
	for i, d := range contract {
		checkName(d.Name, d.Unit)
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, defs.go has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in defs.go", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name, d.Unit)
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, defs.go has %+v", i, got, d)
		}
	}
}

func TestPercentileReportsCountAndRefusesThinTails(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	v, n, err := percentile(vals, 0.95)
	if err != nil || n != 200 || v != 190 {
		t.Errorf("p95 of 1..200 = %g (n=%d, err=%v), want 190 of 200 samples", v, n, err)
	}
	if _, n, err := percentile(vals[:199], 0.95); err == nil || n != 199 {
		t.Errorf("p95 of 199 samples: n=%d err=%v, want a refusal that still reports the count", n, err)
	}
	if _, _, err := percentile(vals, 0.50); err != nil {
		t.Errorf("p50 of 200 samples refused: %v", err)
	}
	if _, _, err := percentile(vals, 0.99); err == nil {
		t.Error("p99 of 200 samples was not refused")
	}
	if _, n, err := percentile(nil, 0.5); err == nil || n != 0 {
		t.Errorf("percentile of nothing: n=%d err=%v", n, err)
	}
}

func reportWith(workload string, vals map[string]float64) report {
	m := metrics{}
	for k, v := range vals {
		m.set(k, v, 1)
	}
	return report{Seed: 1, Seconds: 15, Results: []*result{{Workload: workload, Metrics: m}}}
}

func TestCompareVerdicts(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return metricDef{}
	}
	for _, c := range []struct {
		metric, workload string
		old, new         []float64
		want             string
	}{
		{"throughput_qps", "serve-mixed", []float64{100}, []float64{101}, verdictSame},
		{"throughput_qps", "serve-mixed", []float64{100}, []float64{70}, verdictRegressed},
		{"throughput_qps", "serve-mixed", []float64{100}, []float64{140}, verdictImproved},
		{"lat_p50_ms", "serve-mixed", []float64{10}, []float64{13}, verdictRegressed},
		{"dist_per_query", "protein-seq", []float64{1000}, []float64{1001}, verdictRegressed}, // exact on -seq
		{"dist_per_query", "protein-seq", []float64{1000}, []float64{1000}, verdictSame},
		{"dist_per_query", "serve-mixed", []float64{1000}, []float64{1001}, verdictSame},
		{"failed_share", "serve-mixed", []float64{0}, []float64{0.01}, verdictRegressed},
		{"setup_s", "protein-seq", []float64{0.5}, []float64{0.7}, verdictSame}, // +40 % but under 0.25 s
		{"setup_s", "fleet-hotkeys", []float64{2}, []float64{3}, verdictRegressed},
		{"lat_p95_ms", "serve-mixed", []float64{10, 14, 18, 22}, []float64{15, 16, 17, 18}, verdictUnresolved},
		{"lat_p95_ms", "serve-mixed", []float64{10, 14, 18, 22}, []float64{5, 6, 7, 8}, verdictImproved},
		{"write_p50_ms", "protein-seq", nil, []float64{1}, verdictUnresolved},
	} {
		if got, _ := judge(def(c.metric), c.workload, c.old, c.new); got != c.want {
			t.Errorf("%s on %s, %v -> %v: %s, want %s", c.metric, c.workload, c.old, c.new, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	a := reportWith("serve-mixed", map[string]float64{"throughput_qps": 100})
	b := reportWith("serve-mixed", map[string]float64{"throughput_qps": 50})
	var out bytes.Buffer
	if code := compareReports(&out, []report{a}, []report{b}); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("halved throughput: exit %d\n%s", code, out.String())
	}
	b.Env.Commit = "another commit" // the commit may differ, nothing else
	out.Reset()
	if code := compareReports(&out, []report{a}, []report{b}); !strings.Contains(out.String(), "serve-mixed") {
		t.Errorf("a differing commit was refused (exit %d):\n%s", code, out.String())
	}
	b.Env.GOMAXPROCS = 1
	out.Reset()
	if code := compareReports(&out, []report{a}, []report{b}); code != 1 || !strings.Contains(out.String(), "refusing") {
		t.Errorf("differing GOMAXPROCS: exit %d\n%s", code, out.String())
	}
}

// TestSmokeReportsEveryMetric runs every workload at a twentieth of its size
// and then the traced pass, as `go run ./bench -smoke -trace 1` does, and
// checks that every metric BENCHMARK.json names comes out, with its unit and
// no failed op. The workloads that start subseqctl children are skipped
// under -short.
func TestSmokeReportsEveryMetric(t *testing.T) {
	t.Chdir("..") // the harness builds ./cmd/subseqctl from the repository root
	t.Cleanup(stopAll)
	h := &harness{seed: 1, window: 200 * time.Millisecond, smoke: true, builder: &building{}}
	bj := readBenchmarkJSON(t, "BENCHMARK.json")
	for _, def := range workloads {
		usesChildren := def.Name == "serve-mixed" || def.Name == "fleet-hotkeys"
		if usesChildren && testing.Short() {
			continue
		}
		res, err := h.runWorkload(def)
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", def.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range bj.EndToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (reported: %v), want a positive value in %s", def.Name, d.Name, v, ok, d.Unit)
			}
		}
		if _, ok := res.Metrics["write_p50_ms"]; ok != usesChildren {
			t.Errorf("%s: write_p50_ms reported: %v", def.Name, ok)
		}
	}
	if testing.Short() {
		return
	}
	layers, attempted, failed, err := h.tracedPass(workloads, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || attempted == 0 {
		t.Errorf("traced pass: %d of %d ops failed", failed, attempted)
	}
	for _, d := range bj.PerLayer {
		if v, ok := layers[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v (reported: %v), want unit %s", d.Name, v, ok, d.Unit)
		}
	}
	for _, zero := range []string{"gateway.hedges", "stream.shed", "stream.crashed", "store.restore_dist", "serve.http_5xx", "gateway.degraded"} {
		if v := layers[zero].Value; v != 0 {
			t.Errorf("%s = %g, want 0", zero, v)
		}
	}
}
