package registry_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	subseq "repro"
	"repro/registry"
)

// TestUnknownNames pins the error text of name resolution: unknown names
// must list what is available, and a measure asked for over the wrong
// element type must name the types it is defined over.
func TestUnknownNames(t *testing.T) {
	_, err := registry.Measure[byte]("frobnicate")
	if err == nil {
		t.Fatal("unknown measure accepted")
	}
	for _, want := range []string{`unknown measure "frobnicate"`, "levenshtein", "dtw", "weighted-edit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-measure error %q does not mention %q", err, want)
		}
	}

	_, err = registry.Measure[byte]("erp")
	if err == nil {
		t.Fatal("erp over byte accepted; it is not registered for byte")
	}
	for _, want := range []string{`measure "erp" is not defined over byte`, "float64", "point2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("wrong-elem error %q does not mention %q", err, want)
		}
	}

	// An aliased name that resolves but misses the element type must keep
	// the user's spelling in the message alongside the canonical name.
	_, err = registry.Measure[byte]("frechet")
	if err == nil {
		t.Fatal("frechet over byte accepted; it is not registered for byte")
	}
	for _, want := range []string{`"frechet"`, `"dfd"`, "not defined over byte"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aliased wrong-elem error %q does not mention %q", err, want)
		}
	}

	_, err = registry.Backend("btree")
	if err == nil || !strings.Contains(err.Error(), `unknown backend "btree"`) ||
		!strings.Contains(err.Error(), "refnet, covertree, mv, linear") {
		t.Errorf("unknown-backend error = %v", err)
	}

	_, err = registry.DatasetByName("genomes")
	if err == nil || !strings.Contains(err.Error(), `unknown dataset "genomes"`) ||
		!strings.Contains(err.Error(), "proteins, songs, traj") {
		t.Errorf("unknown-dataset error = %v", err)
	}
}

// TestAliases verifies the accepted alternate measure names resolve to the
// same instantiation as their canonical spelling.
func TestAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"frechet": "dfd", "protein": "protein-edit", "myers": "levenshtein-fast",
	} {
		var name string
		switch canonical {
		case "dfd":
			m, err := registry.Measure[float64](alias)
			if err != nil {
				t.Fatalf("alias %q: %v", alias, err)
			}
			name = m.Name
		default:
			m, err := registry.Measure[byte](alias)
			if err != nil {
				t.Fatalf("alias %q: %v", alias, err)
			}
			name = m.Name
		}
		if name != canonical {
			t.Errorf("alias %q resolved to %q, want %q", alias, name, canonical)
		}
	}
}

// TestPairingRejections mirrors the public-API rejection tests on the
// name level: the registry must reject unsound measure × backend pairings
// up front, with the reason, and accept the sound ones.
func TestPairingRejections(t *testing.T) {
	for _, backend := range []string{"refnet", "covertree", "mv"} {
		spec := registry.SessionSpec{Dataset: "songs", Measure: "dtw", Backend: backend,
			Windows: 10, WindowLen: 4}
		if _, err := spec.Resolve(); err == nil {
			t.Errorf("dtw × %s accepted; want rejection", backend)
		} else if !strings.Contains(err.Error(), "not a metric") {
			t.Errorf("dtw × %s rejection does not state the reason: %v", backend, err)
		}
	}
	spec := registry.SessionSpec{Dataset: "songs", Measure: "dtw", Backend: "linear",
		Windows: 10, WindowLen: 4}
	if _, err := spec.Resolve(); err != nil {
		t.Errorf("dtw × linear rejected: %v", err)
	}

	// Lock-step measures admit no temporal shift.
	spec = registry.SessionSpec{Dataset: "songs", Measure: "euclidean", Backend: "refnet",
		Windows: 10, WindowLen: 4, Lambda0: 2}
	if _, err := spec.Resolve(); err == nil {
		t.Error("euclidean with lambda0=2 accepted; want rejection")
	}
	spec.Lambda0 = 0
	if sess, err := spec.Resolve(); err != nil || sess.Lambda0 != 0 {
		t.Errorf("euclidean default lambda0 = %d, %v; want 0, nil", sess.Lambda0, err)
	}

	// Non-lock-step λ0 defaulting: the zero value selects 1, -1 forces 0.
	spec.Measure = "erp"
	if sess, err := spec.Resolve(); err != nil || sess.Lambda0 != 1 {
		t.Errorf("erp default lambda0 = %d, %v; want 1, nil", sess.Lambda0, err)
	}
	spec.Lambda0 = -1
	if sess, err := spec.Resolve(); err != nil || sess.Lambda0 != 0 {
		t.Errorf("erp forced lambda0 = %d, %v; want 0, nil", sess.Lambda0, err)
	}
}

// sweepCase fixes the query radius per measure; radii are chosen so FindAll
// returns a non-trivial (but bounded) result on the tiny sweep datasets.
var sweepEps = map[string]float64{
	"levenshtein": 3, "levenshtein-fast": 3, "protein-edit": 3, "weighted-edit": 3,
	"hamming": 2, "euclidean": 3, "erp": 6, "dfd": 2, "dtw": 6,
}

// sweepElem runs the full measure × backend matrix for one dataset family:
// every compatible pairing must be constructible through the registry and
// must return exactly the matches of a directly-constructed session; every
// incompatible pairing must be rejected by both paths.
func sweepElem[E any](t *testing.T, dataset string, direct map[string]subseq.Measure[E]) {
	t.Helper()
	di, err := registry.DatasetByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	measures := registry.MeasuresFor(di.Elem)
	if len(measures) != len(direct) {
		names := make([]string, len(measures))
		for i, m := range measures {
			names[i] = m.Name
		}
		t.Fatalf("registry has %d measures over %s (%v); the direct table has %d — keep them in sync",
			len(measures), di.Elem, names, len(direct))
	}
	for _, mi := range measures {
		dm, ok := direct[mi.Name]
		if !ok {
			t.Fatalf("no direct construction for measure %q", mi.Name)
		}
		eps, ok := sweepEps[mi.Name]
		if !ok {
			t.Fatalf("no sweep radius for measure %q", mi.Name)
		}
		for _, bi := range registry.Backends() {
			t.Run(dataset+"/"+mi.Name+"/"+bi.Name, func(t *testing.T) {
				spec := registry.SessionSpec{
					Dataset: dataset, Measure: mi.Name, Backend: bi.Name,
					Windows: 40, WindowLen: 6, Seed: 7,
				}
				mt, ds, err := registry.NewMatcher[E](spec)
				if incompat := registry.Compatible(mi, bi); incompat != nil {
					if err == nil {
						t.Fatalf("incompatible pairing constructed: %v", incompat)
					}
					// The direct path must agree that the pairing is unsound.
					if _, derr := subseq.NewMatcher(dm, subseq.Config{
						Params: subseq.Params{Lambda: 12, Lambda0: 0},
						Index:  bi.Kind,
					}, nil); derr == nil {
						t.Fatalf("core accepted a pairing the registry rejects: %v", incompat)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				lambda0 := 1
				if mi.LockStep {
					lambda0 = 0
				}
				dmt, err := subseq.NewMatcher(dm, subseq.Config{
					Params: subseq.Params{Lambda: 12, Lambda0: lambda0},
					Index:  bi.Kind,
				}, ds.Sequences)
				if err != nil {
					t.Fatal(err)
				}
				mut, err := registry.QueryMutator[E](dataset)
				if err != nil {
					t.Fatal(err)
				}
				q := registry.RandomQuery(ds, 18, 0.2, mut, 99)
				got := mt.FindAll(q, eps)
				want := dmt.FindAll(q, eps)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("registry session: %d matches, direct session: %d matches\ngot  %v\nwant %v",
						len(got), len(want), got, want)
				}
			})
		}
	}
}

// TestMatrixSweep is the acceptance sweep: every registered measure ×
// compatible backend, for every dataset family, agrees with direct
// construction.
func TestMatrixSweep(t *testing.T) {
	sweepElem(t, "proteins", map[string]subseq.Measure[byte]{
		"levenshtein":      subseq.LevenshteinMeasure[byte](),
		"levenshtein-fast": subseq.LevenshteinFastMeasure(),
		"protein-edit":     subseq.ProteinEditMeasure(),
		"weighted-edit":    subseq.WeightedEditMeasure(),
		"hamming":          subseq.HammingMeasure[byte](),
	})
	sweepElem(t, "songs", map[string]subseq.Measure[float64]{
		"levenshtein": subseq.LevenshteinMeasure[float64](),
		"hamming":     subseq.HammingMeasure[float64](),
		"euclidean":   subseq.EuclideanMeasure(subseq.AbsDiff),
		"dtw":         subseq.DTWMeasure(subseq.AbsDiff),
		"erp":         subseq.ERPMeasure(subseq.AbsDiff, 0),
		"dfd":         subseq.DiscreteFrechetMeasure(subseq.AbsDiff),
	})
	sweepElem(t, "traj", map[string]subseq.Measure[subseq.Point2]{
		"euclidean": subseq.EuclideanMeasure(subseq.Point2Dist),
		"dtw":       subseq.DTWMeasure(subseq.Point2Dist),
		"erp":       subseq.ERPMeasure(subseq.Point2Dist, subseq.Point2{}),
		"dfd":       subseq.DiscreteFrechetMeasure(subseq.Point2Dist),
	})
}

// TestSessionDefaults verifies the spec's zero-value defaulting: dataset
// default measure, the backend its pass cost selects (the scan, for
// one-word Myers at λ0 = 1), window length 20.
func TestSessionDefaults(t *testing.T) {
	sess, err := (registry.SessionSpec{Dataset: "proteins", Windows: 10}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Dataset.Name != "proteins" || sess.Measure.Name != "levenshtein-fast" || sess.Backend.Name != "linear" {
		t.Errorf("defaults resolved to %s/%s/%s", sess.Dataset.Name, sess.Measure.Name, sess.Backend.Name)
	}
	if p := sess.Config().Params; p.Lambda != 40 || p.Lambda0 != 1 {
		t.Errorf("default params %+v", p)
	}
	_, ds, err := registry.NewMatcher[byte](registry.SessionSpec{
		Dataset: "proteins", Windows: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.WindowLen != 20 {
		t.Errorf("default window length %d, want 20", ds.WindowLen)
	}
}

// TestDefaultBackendByPassCost holds every catalog measure × element type
// × λ0 ∈ {0, 1} to the default-backend rule: a measure that is not a metric
// gets the scan, a bit-parallel kernel at λ0 > 0 gets the scan, every other
// measure the reference net — and the pick always passes Compatible. A
// backend the spec names is still held to Compatible as before.
func TestDefaultBackendByPassCost(t *testing.T) {
	family := map[string]string{}
	for _, d := range registry.Datasets() {
		family[d.Elem] = d.Name
	}
	pinned := map[string]string{ // measure/elem/λ0 → backend
		"dtw/float64/0": "linear", "dtw/float64/1": "linear",
		"dtw/point2/0": "linear", "dtw/point2/1": "linear",
		"erp/float64/1": "refnet", "erp/point2/1": "refnet",
		"dfd/float64/1": "refnet", "dfd/point2/1": "refnet",
		"protein-edit/byte/0": "refnet", "protein-edit/byte/1": "refnet",
		"levenshtein-fast/byte/0": "refnet", "levenshtein-fast/byte/1": "linear",
	}
	for _, m := range registry.Measures() {
		if m.BitParallel != (m.Name == "levenshtein-fast") {
			t.Errorf("%s/%s: BitParallel = %v; only levenshtein-fast is bit-parallel", m.Name, m.Elem, m.BitParallel)
		}
		for _, lambda0 := range []int{0, 1} {
			key := fmt.Sprintf("%s/%s/%d", m.Name, m.Elem, lambda0)
			spec := registry.SessionSpec{Dataset: family[m.Elem], Measure: m.Name, Windows: 10, Lambda0: lambda0}
			if lambda0 == 0 {
				spec.Lambda0 = -1 // the spec's spelling of λ0 = 0
			}
			sess, err := spec.Resolve()
			if m.LockStep && lambda0 > 0 {
				if err == nil {
					t.Errorf("%s: lock-step measure resolved at λ0 = 1", key)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", key, err)
				continue
			}
			if sess.Lambda0 != lambda0 {
				t.Fatalf("%s: resolved λ0 = %d", key, sess.Lambda0)
			}
			want := "refnet"
			if !m.Metric || (m.BitParallel && lambda0 > 0) {
				want = "linear"
			}
			if p, ok := pinned[key]; ok && p != want {
				t.Fatalf("%s: the rule says %s, the pin %s", key, want, p)
			}
			if sess.Backend.Name != want {
				t.Errorf("%s: default backend %s, want %s", key, sess.Backend.Name, want)
			}
			if err := registry.Compatible(sess.Measure, sess.Backend); err != nil {
				t.Errorf("%s: default backend %s is not compatible: %v", key, sess.Backend.Name, err)
			}
			delete(pinned, key)
		}
	}
	for key := range pinned {
		t.Errorf("%s: pinned but not in the catalog", key)
	}

	_, err := (registry.SessionSpec{Dataset: "songs", Measure: "dtw", Backend: "refnet", Windows: 10}).Resolve()
	const refused = `registry: measure "dtw" is not a metric: backend "refnet" prunes by the triangle inequality and would drop true matches — use the linear backend`
	if err == nil || err.Error() != refused {
		t.Errorf("-backend refnet -measure dtw: got %v, want %q", err, refused)
	}
}

// TestShardedSpecThroughRegistry: NewMatcher and NewStore on a sharded
// spec hold exactly the shard's sequences of the generated whole, and a
// range past the end of the dataset is refused.
func TestShardedSpecThroughRegistry(t *testing.T) {
	whole, err := registry.GenerateDataset[byte]("proteins", 100, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Sequences) != 5 {
		t.Fatalf("100 proteins windows generate %d sequences, want 5", len(whole.Sequences))
	}
	spec := registry.SessionSpec{Dataset: "proteins", Windows: 100, ShardLo: 1, ShardHi: 2}
	mt, ds, err := registry.NewMatcher[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	st, sds, err := registry.NewStore[byte](spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		path    string
		db      []subseq.Sequence[byte]
		windows int
		ds      registry.Dataset[byte]
	}{
		{"NewMatcher", mt.DB(), mt.NumWindows(), ds},
		{"NewStore", st.Matcher().DB(), st.Matcher().NumWindows(), sds},
	} {
		if len(got.db) != 1 || len(got.ds.Sequences) != 1 || got.windows != 20 || len(got.ds.Windows) != 20 {
			t.Errorf("%s: %d sequences (dataset %d), %d windows (dataset %d); want 1 sequence, 20 windows",
				got.path, len(got.db), len(got.ds.Sequences), got.windows, len(got.ds.Windows))
			continue
		}
		if !bytes.Equal(got.db[0], whole.Sequences[1]) || !bytes.Equal(got.ds.Sequences[0], whole.Sequences[1]) {
			t.Errorf("%s: the shard's sequence is not sequence 1 of the generated whole", got.path)
		}
	}

	spec.ShardHi = 99
	want := "shard range [1,99) exceeds the dataset's 5 sequences (windows=100 at windowlen=20 generates 5 sequences)"
	if _, _, err := registry.NewMatcher[byte](spec); err == nil || err.Error() != want {
		t.Errorf("NewMatcher on [1,99): %v, want %s", err, want)
	}
	if _, _, err := registry.NewStore[byte](spec); err == nil || err.Error() != want {
		t.Errorf("NewStore on [1,99): %v, want %s", err, want)
	}
}
