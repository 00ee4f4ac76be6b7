// Command bench is the repository's one benchmark: five named workloads over
// the whole stack (distance kernels → reference net → matcher → QueryPool →
// subseqctl serve → gateway), end-to-end metrics with regression bounds,
// per-layer metrics from a traced run, and a check of every answer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                         every workload, end to end
//	go run ./bench -trace 1                the same, then the traced pass
//	go run ./bench -workload protein-seq   one workload
//	go run ./bench -out a.json             save the results for -compare
//	go run ./bench -compare a.json b.json  judge b against a by the bounds
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchProcs is the harness's own GOMAXPROCS (the sandbox has two cores);
// children get theirs through their environment.
const benchProcs = 2

// smokeDivisor shrinks every op count for -smoke.
const smokeDivisor = 20

//go:embed expected.json
var expectedJSON []byte

// expectedDigests pins answers_digest per workload for one seed
// (expected.json also freezes the op counts the digests belong to; the
// tests read that part).
type expectedDigests struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// environment is the fixed-environment block recorded with every result
// file; -compare refuses files whose blocks differ (the commit aside).
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// report is the result file -out writes and -compare reads.
type report struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds int         `json:"seconds"`
	Smoke   bool        `json:"smoke"`
	Results []*result   `json:"results"`
	// Layers holds the per-layer metrics of the traced pass, if one ran.
	Layers metrics `json:"layers,omitempty"`
}

// contractLine is the last line of standard output: exactly these keys.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Uint64("seed", 1, "seeds the input generator only; the program under test sees generated inputs, never the seed")
	seconds := flag.Int("seconds", 15, "length of each workload's measured window")
	trace := flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of, or with no -workload after, the end-to-end run")
	spans := flag.String("spans", "", "write the traced pass's spans to this JSON file")
	smoke := flag.Bool("smoke", false, "op counts ÷ 20 and a 1-second window: exercises every path, measures nothing")
	out := flag.String("out", "", "write the results to this JSON file, for -compare")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)

	// Children die with the harness: on return, on panic in this goroutine
	// and on SIGINT/SIGTERM.
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	h := &harness{
		seed: *seed, window: time.Duration(*seconds) * time.Second, smoke: *smoke,
		builder: &building{},
	}
	if *smoke {
		h.window = time.Second
	}
	if err := json.Unmarshal(expectedJSON, &h.expected); err != nil {
		fmt.Fprintln(os.Stderr, "bench: expected.json:", err)
		return 1
	}
	defs := workloads
	if *workload != "" {
		def, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}

	rep := report{Env: currentEnvironment(), Seed: *seed, Seconds: *seconds, Smoke: *smoke}
	fmt.Printf("env: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d\n", rep.Env.GoVersion,
		rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.CPUModel, rep.Env.Commit, *seed)
	line := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	single := *workload != ""

	// A single-workload traced run (the driver's `--trace 1`) skips the
	// end-to-end run; everything else runs it.
	if !(single && *trace == 1) {
		for _, def := range defs {
			res, err := h.runWorkload(def)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.Name, err)
				return 1
			}
			printResult(res)
			rep.Results = append(rep.Results, res)
			line.Attempted += res.Attempted
			line.Failed += res.Failed
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; ok && d.Contract {
					name := d.Name
					if !single {
						name = def.Name + "/" + d.Name
					}
					line.Metrics[name] = contractValue{v.Value, v.Unit}
				}
			}
		}
	}
	if *trace == 1 {
		tr := newTracer()
		layers, attempted, failed, err := h.tracedPass(defs, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: traced pass:", err)
			return 1
		}
		printLayers(layers)
		printSelfTimes(tr)
		rep.Layers = layers
		line.Attempted += attempted
		line.Failed += failed
		if single {
			for _, d := range perLayer {
				line.Metrics[d.Name] = contractValue{layers[d.Name].Value, layers[d.Name].Unit}
			}
		}
		if *spans != "" {
			if err := tr.write(*spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	line.Correct = line.Failed == 0
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	stopAll()
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// harness carries what every workload run shares.
type harness struct {
	seed     uint64
	window   time.Duration
	smoke    bool
	builder  *building // lazily built subseqctl, shared by the HTTP workloads
	expected expectedDigests
}

func (h *harness) config(def workloadDef) runConfig {
	if h.smoke {
		def = def.scaled(smokeDivisor)
	}
	return runConfig{def: def, harness: h}
}

// runWorkload is one workload's end-to-end run, answers checked.
func (h *harness) runWorkload(def workloadDef) (*result, error) {
	rc := h.config(def)
	var res *result
	var err error
	switch def.Name {
	case "protein-seq":
		res, err = runSeq(proteinBench, rc)
	case "traj-erp-seq":
		res, err = runSeq(trajBench, rc)
	case "protein-pool":
		res, err = runPool(rc)
	case "serve-mixed":
		res, err = runHTTP(serveWorkload, rc)
	case "fleet-hotkeys":
		res, err = runHTTP(fleetWorkload, rc)
	default:
		err = fmt.Errorf("no runner for workload %q", def.Name)
	}
	if err != nil {
		return nil, err
	}
	// The digest covers the counted prefix only, so it does not depend on
	// the window; it is pinned for full-size runs at the pinned seed.
	if want := h.expected.Digests[def.Name]; want != "" && !h.smoke && h.seed == h.expected.Seed && res.AnswersDigest != want {
		res.Failures = append(res.Failures, fmt.Sprintf("answers_digest %s, expected.json pins %s: every op counts as failed", res.AnswersDigest, want))
		res.Failed = res.Attempted
	}
	res.Metrics.set("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	return res, nil
}

// tracedPass measures every layer: the kernel, index and store probes, and a
// traced replay of each workload's first ops. The workloads in own are the
// run's own — their replays are also timed untraced, which gives client.*
// and bench.trace_overhead_share; the -seq workload among them (protein-seq
// if there is none) supplies core.*.
func (h *harness) tracedPass(own []workloadDef, tr *tracer) (metrics, int, int, error) {
	isOwn := map[string]bool{}
	for _, d := range own {
		isOwn[d.Name] = true
	}
	layers := metrics{}
	var sum replay
	add := func(name string, m metrics, rp replay, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		layers.merge(m)
		sum.attempted += rp.attempted
		sum.fails += rp.fails
		if isOwn[name] {
			sum.latMS = append(sum.latMS, rp.latMS...)
			sum.tracedS += rp.tracedS
			sum.untracedS += rp.untracedS
		}
		return nil
	}
	cfg := func(name string) runConfig {
		def, _ := workloadByName(name)
		return h.config(def)
	}
	_, buildS, err := h.builder.binary()
	if err != nil {
		return nil, 0, 0, err
	}
	layers.set("bench.build_s", buildS, 1)
	layers.merge(probeDist(cfg("protein-seq"), tr))
	layers.merge(probeIndexes(tr))
	m, err := probeStore(cfg("protein-seq"), tr)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store probe: %w", err)
	}
	layers.merge(m)

	if isOwn["traj-erp-seq"] && !isOwn["protein-seq"] {
		m, rp, err := traceSeq(trajBench, cfg("traj-erp-seq"), tr, true)
		if err := add("traj-erp-seq", m, rp, err); err != nil {
			return nil, 0, 0, err
		}
	} else {
		m, rp, err := traceSeq(proteinBench, cfg("protein-seq"), tr, isOwn["protein-seq"])
		if err := add("protein-seq", m, rp, err); err != nil {
			return nil, 0, 0, err
		}
	}
	m, rp, err := tracePool(cfg("protein-pool"), tr, isOwn["protein-pool"])
	if err := add("protein-pool", m, rp, err); err != nil {
		return nil, 0, 0, err
	}
	m, rp, err = traceServe(cfg("serve-mixed"), tr, isOwn["serve-mixed"])
	if err := add("serve-mixed", m, rp, err); err != nil {
		return nil, 0, 0, err
	}
	m, rp, err = traceFleet(cfg("fleet-hotkeys"), tr, isOwn["fleet-hotkeys"])
	if err := add("fleet-hotkeys", m, rp, err); err != nil {
		return nil, 0, 0, err
	}
	sum.clientMetrics(layers)
	for _, d := range perLayer {
		if _, ok := layers[d.Name]; !ok {
			return nil, 0, 0, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return layers, sum.attempted, sum.fails, nil
}

func printValue(name string, v value) {
	note := ""
	if v.Note != "" {
		note = "  (" + v.Note + ")"
	}
	fmt.Printf("  %-36s %16.6g %-12s n=%d%s\n", name, v.Value, v.Unit, v.N, note)
}

func printResult(r *result) {
	fmt.Printf("\nworkload %s: %d ops attempted, %d failed, %d queries in %.2f s\n",
		r.Workload, r.Attempted, r.Failed, r.Queries, r.WindowS)
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; ok {
			printValue(d.Name, v)
		}
	}
	if r.AnswersDigest != "" {
		fmt.Printf("  answers_digest %s\n", r.AnswersDigest)
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// printSelfTimes lists, per span name, the time spent in spans of that name
// and not in their children.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\nspan self times (span minus its children)\n")
	for _, name := range names {
		fmt.Printf("  %-36s %12.3f ms\n", name, ms(self[name]))
	}
}

func printLayers(m metrics) {
	fmt.Printf("\nper-layer metrics (traced pass)\n")
	for _, d := range perLayer {
		printValue(d.Name, m[d.Name])
	}
}
