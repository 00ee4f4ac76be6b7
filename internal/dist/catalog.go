package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/seq"
)

// Catalog of built-in measures.
//
// A Measure is a generic value — levenshtein exists over every comparable
// alphabet, ERP over every element type with a ground metric — but a CLI
// flag or a config file names a measure with a plain string. The catalog
// bridges the two: each measure file self-registers (in an init function)
// the canonical instantiation of its measure for the element types the
// framework's datasets use, keyed by (name, element type). Lookup is typed
// (Builtin[E] returns a Measure[E]) so downstream code never reflects; the
// untyped CatalogEntry view carries just the capability bits for listings
// and compatibility checks.
//
// Canonical instantiations fix the ground distance per element type: scalar
// series use AbsDiff (gap element 0 for ERP), planar points use Point2Dist
// (gap element the origin). Callers needing a different ground distance
// construct the measure directly; the catalog exists so that the common
// instantiations are nameable.

// CatalogEntry describes one registered (measure, element type) pair: the
// measure's vetted properties plus which optional fast-path capabilities its
// canonical instantiation carries.
type CatalogEntry struct {
	// Name is the measure name as reported by Measure.Name.
	Name string
	// Elem names the element type: "byte", "float64" or "point2".
	Elem string
	// Description is a one-line human-readable summary.
	Description string
	// Props are the measure's vetted properties.
	Props Properties
	// Incremental and Bounded report the optional capabilities.
	Incremental bool
	Bounded     bool
	// BitParallel is the measure's cost class: its kernel pass is
	// bit-parallel, which a Packer implies (Measure.Packer).
	BitParallel bool
}

type catalogKey struct{ name, elem string }

var (
	catalogMu sync.RWMutex
	catalog   = map[catalogKey]any{} // holds Measure[E]
	entries   = map[catalogKey]CatalogEntry{}
)

// ElemName names the element type E as the catalog keys it: "byte",
// "float64", "point2", or the Go type name for anything else.
func ElemName[E any]() string {
	var z E
	switch any(z).(type) {
	case byte:
		return "byte"
	case float64:
		return "float64"
	case seq.Point2:
		return "point2"
	default:
		return fmt.Sprintf("%T", z)
	}
}

// RegisterBuiltin records m as the canonical instantiation of its name for
// element type E. It panics on a duplicate (name, element type) pair —
// registration happens in init functions, where a duplicate is a programming
// error, not a runtime condition.
func RegisterBuiltin[E any](m Measure[E], description string) {
	key := catalogKey{m.Name, ElemName[E]()}
	catalogMu.Lock()
	defer catalogMu.Unlock()
	if _, dup := catalog[key]; dup {
		panic(fmt.Sprintf("dist: duplicate builtin registration %q/%s", key.name, key.elem))
	}
	catalog[key] = m
	entries[key] = CatalogEntry{
		Name:        m.Name,
		Elem:        key.elem,
		Description: description,
		Props:       m.Props,
		Incremental: m.Prepare != nil,
		Bounded:     m.Bounded != nil,
		BitParallel: m.Packer != nil,
	}
}

// Builtin returns the canonical Measure[E] registered under name, if any.
func Builtin[E any](name string) (Measure[E], bool) {
	catalogMu.RLock()
	v, ok := catalog[catalogKey{name, ElemName[E]()}]
	catalogMu.RUnlock()
	if !ok {
		return Measure[E]{}, false
	}
	return v.(Measure[E]), true
}

// Catalog returns every registered entry, sorted by name then element type.
func Catalog() []CatalogEntry {
	catalogMu.RLock()
	out := make([]CatalogEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, e)
	}
	catalogMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Elem < out[j].Elem
	})
	return out
}

// CatalogFor returns the registered entries for one element type, sorted by
// name.
func CatalogFor(elem string) []CatalogEntry {
	all := Catalog()
	out := all[:0:0]
	for _, e := range all {
		if e.Elem == elem {
			out = append(out, e)
		}
	}
	return out
}
