package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/covertree"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/metric"
	"repro/internal/refindex"
	"repro/internal/refnet"
	"repro/internal/seq"
)

// ranger is the query interface shared by all index variants.
type ranger[E any] interface {
	Range(q seq.Window[E], eps float64) []seq.Window[E]
}

// perfVariant is one index configuration measured in Figures 8–11.
type perfVariant[E any] struct {
	name  string
	build func(wins []seq.Window[E], d metric.DistFunc[seq.Window[E]]) ranger[E]
}

func rnVariant[E any](name string, numMax int) perfVariant[E] {
	return perfVariant[E]{name: name, build: func(wins []seq.Window[E], d metric.DistFunc[seq.Window[E]]) ranger[E] {
		n := refnet.New(d, refnet.WithMaxParents(numMax))
		for _, w := range wins {
			n.Insert(w)
		}
		return n
	}}
}

func ctVariant[E any]() perfVariant[E] {
	return perfVariant[E]{name: "CT", build: func(wins []seq.Window[E], d metric.DistFunc[seq.Window[E]]) ranger[E] {
		t := covertree.New(d, 1)
		for _, w := range wins {
			t.Insert(w)
		}
		return t
	}}
}

func mvVariant[E any](k int) perfVariant[E] {
	return perfVariant[E]{name: fmt.Sprintf("MV-%d", k), build: func(wins []seq.Window[E], d metric.DistFunc[seq.Window[E]]) ranger[E] {
		idx, err := refindex.Build(wins, k, d, refindex.Options{Seed: 99})
		if err != nil {
			panic(err) // experiment configuration error, not a data condition
		}
		return idx
	}}
}

// queryPerf measures, for each index variant and radius, the percentage of
// distance computations relative to the naive linear scan — the metric of
// Figures 8–11. It also reports the selectivity (average fraction of
// windows returned), which the paper overlays in Figure 10: index cost
// tracks the distance distribution.
func queryPerf[E any](id, title string, fn dist.Func[E], wins []seq.Window[E],
	queries [][]E, epsList []float64, variants []perfVariant[E], notes ...string) Table {
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"eps", "selectivity"},
		Notes:   notes,
	}
	for _, v := range variants {
		t.Columns = append(t.Columns, v.name+"_dist%")
	}

	naive := int64(len(queries) * len(wins))
	type built struct {
		idx     ranger[E]
		counter *metric.Counter[seq.Window[E]]
	}
	builds := make([]built, len(variants))
	for i, v := range variants {
		counter := windowCounter(fn)
		builds[i] = built{v.build(wins, counter.Distance), counter}
	}

	for _, eps := range epsList {
		row := []string{f(eps)}
		var selectivity float64
		for i := range variants {
			b := builds[i]
			b.counter.Reset()
			var returned int64
			for _, q := range queries {
				returned += int64(len(b.idx.Range(probe(q), eps)))
			}
			if i == 0 {
				selectivity = float64(returned) / float64(naive)
				row = append(row, pct(selectivity))
			}
			row = append(row, pct(float64(b.counter.Calls())/float64(naive)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// windowQueries samples query segments: window-length subsequences of the
// dataset's sequences with light mutation, mirroring the paper's query
// workloads.
func windowQueries[E any](ds data.Dataset[E], n int,
	mutate func(rng *rand.Rand, e E) E, seed uint64) [][]E {
	out := make([][]E, n)
	for i := range out {
		out[i] = data.RandomQuery(ds, ds.WindowLen, 0.15, mutate, seed+uint64(i))
	}
	return out
}

// quantiles returns the q-quantile values of a sample for each q.
func quantiles(sample []float64, qs []float64) []float64 {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s[int(q*float64(len(s)-1))]
	}
	return out
}

// Fig08 reproduces Figure 8: query performance on PROTEINS under
// Levenshtein for RN, CT, MV-5 and MV-50 across range sizes 1..20 (5–100 %
// of the maximum distance). Expected shape: all curves grow with ε along
// the distance CDF; RN below CT everywhere; MV-5 (equal space) far worse;
// MV-50 (10× space) competitive only at very small ε.
func Fig08(size Size) []Table {
	numWindows, numQueries := 4000, 15
	if size == Paper {
		numWindows, numQueries = 100000, 50
	}
	const wl = 20
	ds := data.Proteins(numWindows, wl, 1)
	queries := windowQueries(ds, numQueries, data.MutateAA, 1000)
	eps := []float64{1, 2, 4, 6, 8, 10, 12, 14, 16, 20}
	t := queryPerf("fig08", "Query performance, PROTEINS / Levenshtein (% distance computations vs naive)",
		dist.LevenshteinFast, ds.Windows, queries, eps,
		[]perfVariant[byte]{rnVariant[byte]("RN", 0), ctVariant[byte](), mvVariant[byte](5), mvVariant[byte](50)},
		"expect: RN ≈ CT (within a few points); MV-5 worst from eps 2 up; MV-50 good only at small eps; all → 100% as eps → dmax=20")
	return []Table{t}
}

// Fig09 reproduces Figure 9: query performance on SONGS under DFD for RN,
// RN-5 (nummax=5), CT and MV-5. Expected shape: RN-5 ≈ RN, both below CT
// and MV-5.
func Fig09(size Size) []Table {
	numWindows, numQueries := 2000, 15
	if size == Paper {
		numWindows, numQueries = 20000, 50
	}
	const wl = 20
	ds := data.Songs(numWindows, wl, 2)
	queries := windowQueries(ds, numQueries, data.MutatePitch, 2000)
	eps := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	t := queryPerf("fig09", "Query performance, SONGS / DFD (% distance computations vs naive)",
		dist.DiscreteFrechet(dist.AbsDiff), ds.Windows, queries, eps,
		[]perfVariant[float64]{rnVariant[float64]("RN", 0), rnVariant[float64]("RN-5", 5), ctVariant[float64](), mvVariant[float64](5)},
		"expect: RN-5 ≈ RN; both below CT and MV-5")
	return []Table{t}
}

// trajFig builds Figures 10 and 11 (TRAJ under ERP / DFD): RN, CT and
// MV-20, with radii at fixed quantiles of the pairwise distance
// distribution so the selectivity column doubles as the distribution
// overlay of Figure 10.
func trajFig(id, title string, fn dist.Func[seq.Point2], size Size, seed uint64) []Table {
	numWindows, numQueries := 3000, 10
	if size == Paper {
		numWindows, numQueries = 100000, 30
	}
	const wl = 20
	ds := data.Trajectories(numWindows, wl, 3)
	queries := windowQueries(ds, numQueries, data.MutatePoint, seed)

	// Radii at distribution quantiles.
	counterless := func(a, b seq.Window[seq.Point2]) float64 { return fn(a.Data, b.Data) }
	sample := make([]float64, 0, 4000)
	rng := rand.New(rand.NewPCG(seed, 17))
	for len(sample) < 4000 {
		i, j := rng.IntN(len(ds.Windows)), rng.IntN(len(ds.Windows))
		if i == j {
			continue
		}
		sample = append(sample, counterless(ds.Windows[i], ds.Windows[j]))
	}
	eps := quantiles(sample, []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75})

	t := queryPerf(id, title, fn, ds.Windows, queries, eps,
		[]perfVariant[seq.Point2]{rnVariant[seq.Point2]("RN", 0), ctVariant[seq.Point2](), mvVariant[seq.Point2](20)},
		"radii are the {0.1,0.5,1,5,10,25,50,75}-percentiles of the pairwise distance distribution",
		"expect: RN ≈ CT, both well below MV-20 despite its 10x space; curves track the distance CDF")
	return []Table{t}
}

// Fig10 reproduces Figure 10: TRAJ under ERP.
func Fig10(size Size) []Table {
	return trajFig("fig10", "Query performance, TRAJ / ERP (% distance computations vs naive)",
		dist.ERP(dist.Point2Dist, seq.Point2{}), size, 3000)
}

// Fig11 reproduces Figure 11: TRAJ under DFD.
func Fig11(size Size) []Table {
	return trajFig("fig11", "Query performance, TRAJ / DFD (% distance computations vs naive)",
		dist.DiscreteFrechet(dist.Point2Dist), size, 4000)
}
