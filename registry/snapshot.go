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
// the registry is where header names meet session names. SnapshotCheck
// turns a SessionSpec into the validation OpenStore runs before any
// restoration work happens, so a snapshot taken under one session can
// never be silently reinterpreted under another — every refusal names
// the disagreeing field, the snapshot's value and the session's value,
// in the same spirit as Compatible's explained rejections.

// SnapshotCheck resolves spec and returns the header validation it
// imposes on a snapshot: element type, canonical measure name, backend
// and the λ/λ0 parameters must all agree. Measure aliases are accepted
// on either side ("frechet" matches a snapshot written under "dfd").
func (s SessionSpec) SnapshotCheck() (func(subseq.SnapshotHeader) error, error) {
	di, mi, bi, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	wl, err := resolveWindowLen(s.WindowLen)
	if err != nil {
		return nil, err
	}
	lambda0, err := s.Lambda0For(mi)
	if err != nil {
		return nil, err
	}
	return func(h subseq.SnapshotHeader) error {
		if h.Elem != di.Elem {
			return &subseq.SnapshotMismatchError{Field: "element type", Got: h.Elem, Want: di.Elem}
		}
		if CanonicalMeasure(h.Measure) != mi.Name {
			return &subseq.SnapshotMismatchError{Field: "measure", Got: h.Measure, Want: mi.Name}
		}
		if h.Backend != bi.Name {
			return &subseq.SnapshotMismatchError{Field: "backend", Got: h.Backend, Want: bi.Name}
		}
		if h.Lambda != 2*wl {
			return &subseq.SnapshotMismatchError{Field: "lambda", Got: strconv.Itoa(h.Lambda), Want: strconv.Itoa(2 * wl)}
		}
		if h.Lambda0 != lambda0 {
			return &subseq.SnapshotMismatchError{Field: "lambda0", Got: strconv.Itoa(h.Lambda0), Want: strconv.Itoa(lambda0)}
		}
		return nil
	}, nil
}

// NewStore resolves spec, generates its dataset and builds a live Store
// over it — NewMatcher's lifecycle-owning sibling, which `subseqctl
// serve` runs on. E must be the element type of the spec's dataset
// family.
func NewStore[E any](spec SessionSpec) (*subseq.Store[E], Dataset[E], error) {
	di, mi, bi, err := spec.Resolve()
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	m, err := Measure[E](mi.Name)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	wl, err := resolveWindowLen(spec.WindowLen)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	lambda0, err := spec.Lambda0For(mi)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	ds, err := GenerateDataset[E](di.Name, spec.Windows, wl, spec.Seed)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	st, err := subseq.NewStore(m, subseq.Config{
		Params: subseq.Params{Lambda: 2 * wl, Lambda0: lambda0},
		Index:  bi.Kind,
	}, ds.Sequences)
	if err != nil {
		return nil, Dataset[E]{}, err
	}
	return st, ds, nil
}

// OpenStore restores a Store from a snapshot stream under spec: the
// spec is resolved, the snapshot header is held against it
// (SnapshotCheck), and only a fully matching snapshot restores — a
// mismatched measure, backend, element type or parameter set is refused
// with the disagreement explained. E must be the element type of the
// spec's dataset family.
func OpenStore[E any](r io.Reader, spec SessionSpec) (*subseq.Store[E], error) {
	check, err := spec.SnapshotCheck()
	if err != nil {
		return nil, err
	}
	_, mi, _, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	m, err := Measure[E](mi.Name)
	if err != nil {
		return nil, err
	}
	return subseq.OpenStore(r, m, check)
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
