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
