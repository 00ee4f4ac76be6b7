package registry_test

import (
	"context"
	"fmt"

	subseq "repro"
	"repro/registry"
)

// Resolving a measure by name: the string a CLI flag or a config file
// holds becomes a typed Measure, with aliases accepted.
func ExampleMeasure() {
	m, err := registry.Measure[byte]("levenshtein")
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Name, m.Props.Metric, m.Fn([]byte("kitten"), []byte("sitting")))

	// "frechet" is an alias for the canonical scalar DFD instantiation.
	dfd, err := registry.Measure[float64]("frechet")
	if err != nil {
		panic(err)
	}
	fmt.Println(dfd.Name, dfd.Fn([]float64{1, 2, 3}, []float64{1, 2, 5}))
	// Output:
	// levenshtein true 3
	// dfd 2
}

// Validating a measure × backend pairing up front: Compatible explains why
// an unsound combination is rejected instead of just rejecting it.
func ExampleCompatible() {
	dtw, _ := registry.LookupMeasure("dtw", "float64")
	refnet, _ := registry.Backend("refnet")
	linear, _ := registry.Backend("linear")
	fmt.Println(registry.Compatible(dtw, refnet))
	fmt.Println(registry.Compatible(dtw, linear))
	// Output:
	// measure "dtw" is not a metric: backend "refnet" prunes by the triangle inequality and would drop true matches — use the linear backend
	// <nil>
}

// Resolving a serving-daemon configuration from names: a ServerSpec is a
// SessionSpec plus the serving knobs, and Resolve yields the canonical
// configuration a daemon runs (and echoes on /stats). The server then
// builds on the resolved session: Resolve → Generate → a matcher (here
// registry.NewMatcher) plus a streaming QueryPool — the path `subseqctl
// serve` takes, with a live Store in place of the bare matcher.
func ExampleServerSpec() {
	spec := registry.ServerSpec{
		SessionSpec: registry.SessionSpec{
			Dataset: "proteins",
			Backend: "refnet",
			Windows: 30,
			Seed:    1,
		},
		Addr:       "127.0.0.1:8077",
		Workers:    4,
		QueueDepth: 256,
	}
	cfg, err := spec.Resolve()
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg.Measure.Name, cfg.Backend.Name, cfg.Lambda, cfg.Addr, cfg.Workers)

	// The resolved session builds the matcher the daemon serves from; the
	// streaming pool answers its requests.
	matcher, ds, err := registry.NewMatcher[byte](spec.SessionSpec)
	if err != nil {
		panic(err)
	}
	pool := subseq.NewQueryPool(matcher, cfg.Workers, subseq.WithQueueDepth(cfg.QueueDepth))
	defer pool.Close()
	query := make(subseq.Sequence[byte], 60)
	copy(query, ds.Sequences[0][:60])
	res, err := pool.SubmitLongest(context.Background(), query, 2).Await(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Found)
	// Output:
	// levenshtein-fast refnet 40 127.0.0.1:8077 4
	// true
}

// Building a full session from names: dataset, measure and backend resolve
// through the registry, defaults fill in, and the pairing is validated
// before anything is generated.
func ExampleNewMatcher() {
	matcher, ds, err := registry.NewMatcher[byte](registry.SessionSpec{
		Dataset: "proteins",
		Measure: "protein-edit",
		Backend: "covertree",
		Windows: 30,
		Seed:    1,
	})
	if err != nil {
		panic(err)
	}
	query := make(subseq.Sequence[byte], 60)
	copy(query, ds.Sequences[0][:60])
	_, found := matcher.Longest(query, 2)
	fmt.Println(ds.Name, len(ds.Windows), found)
	// Output: proteins 30 true
}
