package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/registry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestListGolden pins the `subseqctl list` output: the full measure ×
// backend capability matrix is a documented surface (docs/CLI.md embeds
// it), so changes to it must be deliberate. Run with -update to accept a
// new registry state.
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	renderList(&buf)
	golden := filepath.Join("testdata", "list.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/subseqctl -run TestListGolden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("`subseqctl list` output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}

	// docs/CLI.md embeds the same matrix in a fenced block; keep the copy
	// honest so a registry change cannot silently stale the documentation.
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "CLI.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, bytes.TrimRight(buf.Bytes(), "\n")) {
		t.Error("docs/CLI.md no longer embeds the current `subseqctl list` output; update its fenced matrix block")
	}
}

// TestNewSessionErrors verifies the CLI surfaces registry resolution
// errors rather than building a broken session.
func TestNewSessionErrors(t *testing.T) {
	for _, spec := range []struct{ dataset, measure, backend string }{
		{"genomes", "", "refnet"},
		{"proteins", "frobnicate", "refnet"},
		{"songs", "dtw", "refnet"},
		{"proteins", "erp", "refnet"},
	} {
		s := newSpec(spec.dataset, spec.measure, spec.backend)
		if _, err := newSession(s); err == nil {
			t.Errorf("newSession(%+v) succeeded; want error", spec)
		}
	}
	if _, err := newSession(newSpec("proteins", "", "refnet")); err != nil {
		t.Errorf("default proteins session failed: %v", err)
	}
}

// TestOneRefusalPerBadSpec holds every bad-spec refusal to one text,
// whichever path builds the session: registry.NewMatcher, registry.NewStore
// and the CLI's newSession. Resolve refuses every row but the range past
// the end, which only Generate can see.
func TestOneRefusalPerBadSpec(t *testing.T) {
	proteins := registry.SessionSpec{Dataset: "proteins", Windows: 100}
	cases := []struct {
		name      string
		mut       func(*registry.SessionSpec)
		byResolve bool
		want      string
	}{
		{"window length 1", func(s *registry.SessionSpec) { s.WindowLen = 1 }, true,
			"registry: window length must be at least 2, got 1"},
		{"range below 0", func(s *registry.SessionSpec) { s.ShardLo, s.ShardHi = -1, 2 }, true,
			"registry: shard range [-1,2) starts before sequence 0"},
		{"empty range", func(s *registry.SessionSpec) { s.ShardLo, s.ShardHi = 2, 2 }, true,
			"registry: shard range [2,2) is empty (shard_hi must exceed shard_lo)"},
		{"range past the end", func(s *registry.SessionSpec) { s.ShardLo, s.ShardHi = 1, 99 }, false,
			"shard range [1,99) exceeds the dataset's 5 sequences (windows=100 at windowlen=20 generates 5 sequences)"},
		{"lambda0 on a lock-step measure", func(s *registry.SessionSpec) {
			s.Dataset, s.Measure, s.Lambda0 = "songs", "euclidean", 2
		}, true, `registry: lock-step measure "euclidean" admits no temporal shift; lambda0 must be 0, got 2`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := proteins
			c.mut(&spec)
			if _, err := spec.Resolve(); (err != nil) != c.byResolve {
				t.Errorf("Resolve refused: %v, want %v (err %v)", err != nil, c.byResolve, err)
			}
			var errs [3]error
			if spec.Dataset == "songs" {
				_, _, errs[0] = registry.NewMatcher[float64](spec)
				_, _, errs[1] = registry.NewStore[float64](spec)
			} else {
				_, _, errs[0] = registry.NewMatcher[byte](spec)
				_, _, errs[1] = registry.NewStore[byte](spec)
			}
			_, errs[2] = newSession(spec)
			for i, path := range []string{"registry.NewMatcher", "registry.NewStore", "newSession"} {
				if errs[i] == nil || errs[i].Error() != c.want {
					t.Errorf("%s: %v\nwant %s", path, errs[i], c.want)
				}
			}
		})
	}
}

// TestQueryTypes runs each query type (and numeral alias) through a tiny
// session, on one worker and on two, and checks the report names the mode
// that actually ran.
func TestQueryTypes(t *testing.T) {
	s, err := newSession(newSpec("proteins", "levenshtein-fast", "refnet"))
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"findall", "longest", "nearest", "filter", "I", "II", "III"} {
		for _, mode := range []struct {
			queries, workers int
			label            string
		}{{1, 1, "\nsequential in "}, {3, 1, "\nsequential in "}, {3, 2, "\npool(2 workers) in "}} {
			out, err := s.runQuery(queryOpts{
				typ: typ, eps: 3, qlen: 18, rate: 0.1,
				queries: mode.queries, workers: mode.workers, seed: 5,
			})
			if err != nil {
				t.Fatalf("type %q (queries=%d workers=%d): %v", typ, mode.queries, mode.workers, err)
			}
			if !strings.Contains(out, mode.label) {
				t.Fatalf("type %q (queries=%d workers=%d): report %q lacks %q", typ, mode.queries, mode.workers, out, mode.label)
			}
		}
	}
	if _, err := s.runQuery(queryOpts{typ: "IV", eps: 1, qlen: 18, queries: 1}); err == nil {
		t.Error("unknown query type accepted")
	}
}

func newSpec(dataset, measure, backend string) (s registry.SessionSpec) {
	s.Dataset = dataset
	s.Measure = measure
	s.Backend = backend
	s.Windows = 30
	s.WindowLen = 6
	s.Seed = 3
	return s
}
