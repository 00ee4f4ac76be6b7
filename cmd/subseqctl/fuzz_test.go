package main

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/seq"
	"repro/internal/shard"
)

// FuzzParseQueryRequest hammers the element-typed HTTP query decoder with
// arbitrary request bodies, at every element type the registry serves.
// The decoder fronts every /query/* endpoint, so the invariants are
// absolute: it must never panic, and it must never hand back a nil
// sequence without an error (a server would then index into it). The seed
// corpus under testdata/fuzz/FuzzParseQueryRequest pins the interesting
// shapes: valid bodies for all three element encodings, the eps variants
// (among them an eps_inc under one ulp of eps_max, which the nearest check
// must refuse), and the malformed bodies the validation tests reject. The
// seeds in code add the "seqs" scope: null, empty, negative, repeated, out
// of any range, and 10⁵ entries long.
func FuzzParseQueryRequest(f *testing.F) {
	seeds := []string{
		`{"query":"ACDEFGHIKLMNPQRS","eps":2}`,
		`{"query":[1,2,3,4.5,-6,7e2],"eps":0.5,"eps_max":3,"eps_inc":0.25}`,
		`{"query":[[0,1],[2.5,-3],[4,5]],"eps_max":10}`,
		`{"query":""}`,
		`{"eps":1}`,
		`{"query":"AC","unknown_field":true}`,
		`{"query":[[1],[2,3,4]]}`,
		`{"query":{"not":"a sequence"}}`,
		`{"query":"AC","eps":null}`,
		`[1,2,3]`,
		`not json at all`,
		``,
		`{"query":"` + "\xff\xfe" + `"}`,
		`{"query":"ACDEFGHIKLMNPQRS","eps":2,"seqs":null}`,
		`{"query":"ACDEFGHIKLMNPQRS","eps":2,"seqs":[]}`,
		`{"query":"ACDEFGHIKLMNPQRS","eps":2,"seqs":[-1]}`,
		`{"query":"ACDEFGHIKLMNPQRS","eps":2,"seqs":[3,3,1]}`,
		`{"query":"ACDEFGHIKLMNPQRS","eps":2,"seqs":[9223372036854775807]}`,
		`{"query":[[0,1],[2.5,-3],[4,5]],"eps_max":10,"seqs":[0]}`,
		`{"query":[1,2,3],"eps":1,"seqs":[` + strings.Repeat("7,", 99999) + `7]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParse[byte](t, body)
		checkParse[float64](t, body)
		checkParse[seq.Point2](t, body)
	})
}

func checkParse[E any](t *testing.T, body []byte) {
	t.Helper()
	req, q, err := parseQueryRequest[E](body)
	if err != nil {
		return
	}
	// A decoded query is usable: non-nil (servers slice it into windows)
	// and every element reachable.
	if q == nil {
		t.Fatalf("parseQueryRequest(%q) returned a nil sequence without an error", body)
	}
	for i := 0; i < len(q); i++ {
		_ = q[i]
	}
	// Go's JSON decoder replaces invalid UTF-8 with U+FFFD, so an accepted
	// string query is always valid UTF-8; anything else means the
	// decoder's contract changed underneath the servers.
	if s, ok := any(q).(seq.Sequence[byte]); ok && !utf8.ValidString(string(s)) {
		t.Fatalf("accepted byte query %q is not valid UTF-8", s)
	}
	// A nearest schedule the kind table accepts is one Nearest will run to
	// an end: whatever eps_inc the body carries, the checked options
	// validate.
	if args, err := shard.Nearest.Check(req.Params); err == nil {
		if verr := args.Nearest.Validate(); verr != nil {
			t.Fatalf("parseQueryRequest(%q): nearest accepts options that do not validate: %v", body, verr)
		}
	}
	// A scope the radius kinds accept names at least one sequence, and
	// nearest takes none.
	if args, err := shard.FindAll.Check(req.Params); err == nil && req.Seqs != nil && len(args.Seqs) == 0 {
		t.Fatalf("parseQueryRequest(%q): findall accepts an empty scope", body)
	}
	if _, err := shard.Nearest.Check(req.Params); err == nil && req.Seqs != nil {
		t.Fatalf("parseQueryRequest(%q): nearest accepts a scope", body)
	}
	// Accepted eps fields are dereferenceable.
	for _, p := range []*float64{req.Eps, req.EpsMax, req.EpsInc} {
		if p != nil {
			_ = *p
		}
	}
}
