package registry

import (
	"fmt"
	"io"
	"os"
	"strconv"

	subseq "repro"
)

// Snapshot glue: a Store snapshot carries a self-describing header
// (measure, element type, backend, λ/λ0, construction parameters), and
// the registry is where header names meet session names. Session.Check is
// the validation OpenStore runs before any restoration work happens, so a
// snapshot taken under one session can never be silently reinterpreted
// under another — every refusal names the disagreeing field, the
// snapshot's value and the session's value, in the same spirit as
// Compatible's explained rejections.

// Check holds a snapshot header against the session: element type,
// canonical measure name, backend and the λ/λ0 parameters must all agree.
// Measure aliases are accepted on the snapshot's side ("frechet" matches
// a session resolved to "dfd").
func (s Session) Check(h subseq.SnapshotHeader) error {
	if h.Elem != s.Dataset.Elem {
		return &subseq.SnapshotMismatchError{Field: "element type", Got: h.Elem, Want: s.Dataset.Elem}
	}
	if CanonicalMeasure(h.Measure) != s.Measure.Name {
		return &subseq.SnapshotMismatchError{Field: "measure", Got: h.Measure, Want: s.Measure.Name}
	}
	if h.Backend != s.Backend.Name {
		return &subseq.SnapshotMismatchError{Field: "backend", Got: h.Backend, Want: s.Backend.Name}
	}
	if h.Lambda != s.Lambda {
		return &subseq.SnapshotMismatchError{Field: "lambda", Got: strconv.Itoa(h.Lambda), Want: strconv.Itoa(s.Lambda)}
	}
	if h.Lambda0 != s.Lambda0 {
		return &subseq.SnapshotMismatchError{Field: "lambda0", Got: strconv.Itoa(h.Lambda0), Want: strconv.Itoa(s.Lambda0)}
	}
	return nil
}

// NewStore resolves spec, generates its dataset (Generate) and builds a
// live Store over it — NewMatcher's lifecycle-owning sibling, which
// `subseqctl serve` runs on. E must be the element type of the spec's
// dataset family.
func NewStore[E any](spec SessionSpec) (*subseq.Store[E], Dataset[E], error) {
	sess, err := spec.Resolve()
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	m, ds, err := Generate[E](sess)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	st, err := subseq.NewStore(m, sess.Config(), ds.Sequences)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	return st, ds, nil
}

// OpenStore restores a Store from a snapshot stream under spec: the spec
// is resolved, the snapshot header is held against the session
// (Session.Check), and only a fully matching snapshot restores — a
// mismatched measure, backend, element type or parameter set is refused
// with the disagreement explained. A spec that names no backend restores
// under the snapshot's, which must still suit the measure (restoreCheck).
// Nothing is generated: the snapshot carries the sequences. E must be the
// element type of the spec's dataset family.
func OpenStore[E any](r io.Reader, spec SessionSpec) (*subseq.Store[E], error) {
	sess, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	m, err := Measure[E](sess.Measure.Name)
	if err != nil {
		return nil, err
	}
	return subseq.OpenStore(r, m, restoreCheck(spec, sess))
}

// restoreCheck is the check OpenStore holds a snapshot header to. A spec
// that names a backend holds the header to it (Check). One that names none
// takes the header's backend, as long as the measure suits it
// (Compatible): the default backend is chosen by cost and may have moved
// since the snapshot was written under the same flags.
func restoreCheck(spec SessionSpec, sess Session) func(subseq.SnapshotHeader) error {
	if spec.Backend != "" {
		return sess.Check
	}
	return func(h subseq.SnapshotHeader) error {
		b, err := Backend(h.Backend)
		if err != nil {
			return err
		}
		sess.Backend = b
		if err := sess.Check(h); err != nil {
			return err
		}
		if err := Compatible(sess.Measure, b); err != nil {
			return fmt.Errorf("registry: snapshot backend: %w", err)
		}
		return nil
	}
}

// OpenStoreFile is OpenStore over a snapshot file.
func OpenStoreFile[E any](path string, spec SessionSpec) (*subseq.Store[E], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: open snapshot: %w", err)
	}
	defer f.Close()
	return OpenStore[E](f, spec)
}
