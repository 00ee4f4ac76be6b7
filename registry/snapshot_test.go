package registry

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	subseq "repro"
)

func snapSpec() SessionSpec {
	return SessionSpec{Dataset: "proteins", Measure: "levenshtein-fast", Backend: "refnet",
		Windows: 40, WindowLen: 8, Seed: 3}
}

// A snapshot taken under a spec restores under the same spec and keeps
// answering identically; the restored refnet recomputes no distances.
func TestOpenStoreRoundTrip(t *testing.T) {
	st, ds, err := NewStore[byte](snapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(append(subseq.Sequence[byte](nil), ds.Sequences[0]...)); err != nil {
		t.Fatal(err)
	}
	q := ds.Sequences[0][:18]
	want := st.Matcher().FindAll(q, 2)
	if len(want) == 0 {
		t.Fatal("no matches for a verbatim database subsequence")
	}

	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenStore[byte](bytes.NewReader(buf.Bytes()), snapSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Matcher().FindAll(q, 2)
	if len(got) != len(want) {
		t.Fatalf("restored store finds %d matches, original %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: restored %+v, original %+v", i, got[i], want[i])
		}
	}
	if calls := restored.Matcher().BuildDistanceCalls(); calls != 0 {
		t.Fatalf("restore computed %d build distances, want 0", calls)
	}
}

// OpenStore under a mismatched spec is refused with the disagreeing
// field explained — measure, backend and parameters all gate.
func TestOpenStoreMismatchedSpecs(t *testing.T) {
	st, _, err := NewStore[byte](snapSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		mut   func(*SessionSpec)
		field string
	}{
		{"measure", func(s *SessionSpec) { s.Measure = "weighted-edit" }, "measure"},
		{"backend", func(s *SessionSpec) { s.Backend = "covertree" }, "backend"},
		{"window length", func(s *SessionSpec) { s.WindowLen = 10 }, "lambda"},
		{"lambda0", func(s *SessionSpec) { s.Lambda0 = 2 }, "lambda0"},
	}
	for _, c := range cases {
		spec := snapSpec()
		c.mut(&spec)
		_, err := OpenStore[byte](bytes.NewReader(buf.Bytes()), spec)
		var mm *subseq.SnapshotMismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("%s mismatch: error %v, want SnapshotMismatchError", c.name, err)
		}
		if mm.Field != c.field {
			t.Fatalf("%s mismatch rejected as field %q, want %q", c.name, mm.Field, c.field)
		}
		if mm.Error() == "" || mm.Got == mm.Want {
			t.Fatalf("%s mismatch not explained: %+v", c.name, mm)
		}
	}
	// Element-type mismatch: a byte snapshot opened under a float64 spec.
	spec := snapSpec()
	spec.Dataset = "songs"
	spec.Measure = ""
	_, err = OpenStore[float64](bytes.NewReader(buf.Bytes()), spec)
	var mm *subseq.SnapshotMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("element mismatch: error %v, want SnapshotMismatchError", err)
	}

	// The matching spec still restores (the snapshot itself is fine).
	if _, err := OpenStore[byte](bytes.NewReader(buf.Bytes()), snapSpec()); err != nil {
		t.Fatalf("matching spec refused: %v", err)
	}
}

// A snapshot written under a spec that names no backend — a refnet one,
// from before the default moved by pass cost — restores under Backend ""
// as the net it was: decoded, not rebuilt, and answering identically. A
// header whose backend the measure does not suit is still refused.
func TestOpenStoreUnnamedBackendTakesTheSnapshots(t *testing.T) {
	st, ds, err := NewStore[byte](snapSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	unnamed := snapSpec()
	unnamed.Backend = ""
	if sess, err := unnamed.Resolve(); err != nil || sess.Backend.Name != "linear" {
		t.Fatalf("the unnamed spec resolves to %q (%v); the test needs a default other than the snapshot's", sess.Backend.Name, err)
	}
	restored, err := OpenStore[byte](bytes.NewReader(buf.Bytes()), unnamed)
	if err != nil {
		t.Fatalf("refnet snapshot under Backend \"\": %v", err)
	}
	if kind := restored.Matcher().Index(); kind != subseq.IndexRefNet {
		t.Fatalf("restored under %v, want the snapshot's refnet", kind)
	}
	if calls := restored.Matcher().BuildDistanceCalls(); calls != 0 {
		t.Fatalf("restore computed %d build distances, want 0", calls)
	}
	q := ds.Sequences[1][:20]
	want, got := st.Matcher().FindAll(q, 2), restored.Matcher().FindAll(q, 2)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("restored store finds %d matches, original %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: restored %+v, original %+v", i, got[i], want[i])
		}
	}

	// DTW suits only the scan: a header naming refnet is refused under an
	// unnamed backend as under a named one, and its own backend passes.
	dtw := SessionSpec{Dataset: "songs", Measure: "dtw", Windows: 40, WindowLen: 8}
	sess, err := dtw.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	h := subseq.SnapshotHeader{Elem: "float64", Measure: "dtw", Backend: "refnet", Lambda: sess.Lambda, Lambda0: sess.Lambda0}
	if err := restoreCheck(dtw, sess)(h); err == nil || !strings.Contains(err.Error(), `measure "dtw" is not a metric`) {
		t.Fatalf("refnet header under an unnamed dtw backend: %v, want the pairing refused", err)
	}
	h.Backend = "linear"
	if err := restoreCheck(dtw, sess)(h); err != nil {
		t.Fatalf("linear header under an unnamed dtw backend: %v", err)
	}
	// A mismatched measure is named as such, not as an unsuitable backend.
	h.Measure, h.Backend = "dfd", "refnet"
	var mm *subseq.SnapshotMismatchError
	if err := restoreCheck(dtw, sess)(h); !errors.As(err, &mm) || mm.Field != "measure" {
		t.Fatalf("dfd header under a dtw session: %v, want a measure mismatch", err)
	}
}
