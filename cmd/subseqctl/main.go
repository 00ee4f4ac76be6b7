// Command subseqctl is a workbench for the subsequence-retrieval
// framework: it generates the synthetic datasets, builds window indexes
// over any registered measure × backend combination, reports index
// structure, and runs the query types — without recompiling.
//
// Usage:
//
//	subseqctl list
//	    print the registry: every measure with its capabilities, every
//	    backend, every dataset, and the measure × backend matrix with the
//	    reason each unsound pairing is rejected.
//
//	subseqctl stats -dataset proteins -measure levenshtein -windows 5000
//	    build a reference net over the dataset's windows under the chosen
//	    measure and print its structural statistics and level histogram.
//
//	subseqctl query -dataset songs -measure erp -backend covertree \
//	    -type longest -eps 3 -querylen 60 -queries 16 -workers 4
//	    generate mutated queries from the dataset and answer them:
//	    -type findall (I), longest (II), nearest (III) or filter (the
//	    filtering steps only). Every query runs its own index traversal;
//	    -workers > 1 answers -queries side by side on a QueryPool.
//
//	subseqctl serve -dataset proteins -backend refnet -addr 127.0.0.1:8077
//	    run the long-lived HTTP/JSON daemon: build the session once, then
//	    answer findall/longest/nearest/filter queries over POST /query/*,
//	    streaming every request through the QueryPool's Submit API, whose
//	    workers answer one request at a time each.
//	    GET /stats reports the resolved configuration, the distance-call
//	    tallies and the streaming engine's counters. SIGINT/SIGTERM shut
//	    down gracefully. The daemon serves from a live store: POST
//	    /admin/append and /admin/retire mutate the running index with no
//	    downtime, POST /admin/snapshot persists it, and -restore starts
//	    from a snapshot without re-indexing (-snapshot-on-sigterm writes
//	    a final snapshot after the graceful drain).
//
//	subseqctl serve -config fleet.json   (or repeated -session k=v,… flags)
//	    host several named sessions in one process, each mounted under
//	    /s/{name}/ with its own store and admission config; the first
//	    session also answers the legacy root routes, and GET /sessions
//	    lists what the process hosts. A session with shard_lo/shard_hi
//	    serves one slice of the logical database (see docs/SHARDING.md).
//
//	subseqctl gateway -shard http://host:8077 -shard http://host:8078
//	    run the scatter-gather front end over a shard fleet: every query
//	    fans out to all shards and the answers merge deterministically —
//	    bit-identical to a single node over the same windows. A shard
//	    that cannot answer degrades the response (named in a
//	    "degradation" block) instead of failing it.
//
//	subseqctl distances -dataset traj -measure dfd -samples 10000
//	    print the pairwise window distance distribution.
//
// See docs/CLI.md for the full CLI reference, docs/SERVING.md for the
// serving architecture and HTTP API, and docs/PERSISTENCE.md for the
// store lifecycle and snapshot format.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/stats"
	"repro/registry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		cmdList(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "gateway":
		cmdGateway(os.Args[2:])
	case "distances":
		cmdDistances(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: subseqctl <list|stats|query|serve|gateway|distances> [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "subseqctl:", err)
	os.Exit(1)
}

// commonFlags declares the flags shared by every dataset-touching
// subcommand and returns the spec they fill.
func commonFlags(fs *flag.FlagSet) *registry.SessionSpec {
	spec := &registry.SessionSpec{}
	fs.StringVar(&spec.Dataset, "dataset", "proteins", "dataset family (see `subseqctl list`)")
	fs.StringVar(&spec.Measure, "measure", "", "distance measure; empty selects the dataset's default")
	fs.StringVar(&spec.Backend, "backend", "", "filter backend: refnet, covertree, mv or linear; empty selects by the measure's pass cost")
	fs.IntVar(&spec.Windows, "windows", 2000, "number of database windows to generate")
	fs.IntVar(&spec.WindowLen, "windowlen", 20, "window length l (matches must span ≥ λ = 2l elements)")
	fs.IntVar(&spec.Lambda0, "lambda0", 0, "temporal-shift bound λ0; 0 selects the measure default, -1 forces no shift")
	fs.Uint64Var(&spec.Seed, "seed", 1, "generator seed")
	return spec
}

func cmdList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	fs.Parse(args)
	renderList(os.Stdout)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	spec := commonFlags(fs)
	fs.Parse(args)
	s, err := newSession(*spec)
	if err != nil {
		fail(err)
	}
	st, hist := s.netStats()
	fmt.Printf("%s\n", s.describe())
	fmt.Printf("reference net: %v\n", st)
	fmt.Println("level histogram:")
	for _, h := range hist {
		fmt.Printf("  level %2d: %d nodes, %d childless\n", h.Level, h.Count, h.Childless)
	}
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	spec := commonFlags(fs)
	opts := queryOpts{}
	fs.StringVar(&opts.typ, "type", "longest", "query type: findall (I), longest (II), nearest (III) or filter")
	fs.Float64Var(&opts.eps, "eps", 3, "query radius (for nearest: the maximum radius)")
	fs.IntVar(&opts.qlen, "querylen", 60, "query length")
	fs.Float64Var(&opts.rate, "mutation", 0.1, "query mutation rate")
	fs.IntVar(&opts.queries, "queries", 1, "number of queries to generate and answer")
	fs.IntVar(&opts.workers, "workers", 1, "worker goroutines answering the queries, one query each at a time")
	fs.Parse(args)
	s, err := newSession(*spec)
	if err != nil {
		fail(err)
	}
	opts.seed = spec.Seed + 100
	out, err := s.runQuery(opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n%s\n", s.describe(), out)
}

func cmdDistances(args []string) {
	fs := flag.NewFlagSet("distances", flag.ExitOnError)
	spec := commonFlags(fs)
	samples := fs.Int("samples", 10000, "number of sampled pairs")
	fs.Parse(args)
	s, err := newSession(*spec)
	if err != nil {
		fail(err)
	}
	sample := s.distanceSample(*samples)
	sum := stats.Summarize(sample)
	fmt.Printf("%s %v\n", s.describe(), sum)
	h := stats.NewHistogram(sum.Min, sum.Max+1e-9, 24)
	for _, v := range sample {
		h.Add(v)
	}
	fmt.Printf("distribution [%0.2f..%0.2f]: %s\n", sum.Min, sum.Max, h.Sparkline())
}
