package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/registry"
)

// The kind table (shard.Kinds) is the one list of query kinds: every entry
// must be mounted on a serve process and on the gateway — a kind cannot be
// added to one and forgotten on the other — every batched entry must be
// accepted by /query/batch on both, and every parameter error is a 400
// carrying the table's message, the same from a single node and from a
// gateway, for a single query and for a batch member.
func TestKindTableDrivesServeAndGateway(t *testing.T) {
	spec := newSpec("proteins", "levenshtein-fast", "refnet")
	ds, err := registry.GenerateDataset[byte](spec.Dataset, spec.Windows, spec.WindowLen, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.Partition(len(ds.Sequences), 2)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := newTestServerSpec(t, registry.ServerSpec{SessionSpec: spec, Workers: 2, QueueDepth: 16}, "")
	tiers := map[string]*httptest.Server{"serve": single, "gateway": startShardFleet(t, spec, plan)}
	q := fmt.Sprintf("%q", ds.Sequences[0][:16])

	// paramErrors lists, per kind, bodies that must be refused and the
	// message each draws. A kind with no entry fails the test: its
	// validation is part of its table entry.
	radiusErrors := map[string]string{
		`{"query":` + q + `}`:                   `missing "eps"`,
		`{"query":` + q + `,"eps":-1}`:          `"eps" must be >= 0`,
		`{"query":` + q + `,"eps":1,"seqs":[]}`: `"seqs" must name at least one sequence`,
	}
	paramErrors := map[string]map[string]string{
		"findall": radiusErrors, "longest": radiusErrors, "filter": radiusErrors,
		"nearest": {
			`{"query":` + q + `}`:                          `nearest requires "eps_max" > 0`,
			`{"query":` + q + `,"eps_max":0}`:              `nearest requires "eps_max" > 0`,
			`{"query":` + q + `,"eps_max":-2}`:             `nearest requires "eps_max" > 0`,
			`{"query":` + q + `,"eps_max":2,"eps_inc":0}`:  `"eps_inc" must be > 0`,
			`{"query":` + q + `,"eps_max":2,"eps_inc":-1}`: `"eps_inc" must be > 0`,
			`{"query":` + q + `,"eps_max":2,"seqs":[0]}`:   `nearest does not take "seqs"`,
			// Under one ulp of the radius the schedule never ends; a little
			// above, it is 10⁹ rounds. Both are refused, not run.
			`{"query":` + q + `,"eps_max":8,"eps_inc":1e-17}`: `"eps_inc" must be at least "eps_max"/4096`,
			`{"query":` + q + `,"eps_max":8,"eps_inc":1e-9}`:  `"eps_inc" must be at least "eps_max"/4096`,
		},
	}
	// Every kind reads the same body fields, so one body is valid for all.
	valid := `{"query":` + q + `,"eps":1,"eps_max":2}`
	anyKindErrors := map[string]string{
		`{"query":null,"eps":1,"eps_max":2}`:                  `"query" must not be null`,
		`{"eps":1,"eps_max":2}`:                               `missing "query"`,
		`{"query":` + q + `,"eps":1,"eps_max":2,"epsilon":1}`: `invalid request body: json: unknown field "epsilon"`,
	}
	expect400 := func(tier, path, body, want string) {
		t.Helper()
		var er shard.ErrorResponse
		if code := postJSON(t, tiers[tier], path, body, &er); code != http.StatusBadRequest || er.Error != want {
			t.Errorf("%s POST %s %s: status %d error %q, want 400 %q", tier, path, body, code, er.Error, want)
		}
	}

	for _, k := range shard.Kinds {
		path := "/query/" + k.Name
		cases, ok := paramErrors[k.Name]
		if !ok {
			t.Errorf("kind %q has no parameter-error cases in this test", k.Name)
		}
		for tier, ts := range tiers {
			if code := postJSON(t, ts, path, valid, nil); code != http.StatusOK {
				t.Errorf("%s: kind %q is in the table but POST %s answers %d", tier, k.Name, path, code)
			}
			for body, want := range cases {
				if tier == "gateway" && strings.Contains(body, `"seqs"`) {
					want = `gateway does not take "seqs"`
				}
				expect400(tier, path, body, want)
			}
			// A scope the serve process answers; a gateway sends every range
			// the same body, so it refuses one rather than forward it.
			if scoped := `{"query":` + q + `,"eps":1,"seqs":[0]}`; k.Name != "nearest" {
				if tier == "gateway" {
					expect400(tier, path, scoped, `gateway does not take "seqs"`)
				} else if code := postJSON(t, ts, path, scoped, nil); code != http.StatusOK {
					t.Errorf("%s POST %s %s: status %d, want 200", tier, path, scoped, code)
				}
			}
			if unscoped := `{"query":` + q + `,"eps":1,"eps_max":2,"seqs":null}`; postJSON(t, ts, path, unscoped, nil) != http.StatusOK {
				t.Errorf("%s POST %s %s: not 200", tier, path, unscoped)
			}
			for body, want := range anyKindErrors {
				expect400(tier, path, body, want)
			}

			// The same kind as a batch member.
			batch := func(rest string) string { return `{"kind":"` + k.Name + `",` + rest + `}` }
			if !k.Batch {
				expect400(tier, "/query/batch", batch(`"queries":[`+q+`],"eps":1`),
					fmt.Sprintf("batch kind must be findall, longest or filter, got %q", k.Name))
				continue
			}
			var br shard.BatchResponse
			if code := postJSON(t, ts, "/query/batch", batch(`"queries":[`+q+`,`+q+`],"eps":1`), &br); code != http.StatusOK ||
				br.Kind != k.Name || br.Count != 2 || len(br.Matches)+len(br.Best)+len(br.Hits) != 2 {
				t.Errorf("%s: batch of kind %q: status %d, envelope %+v", tier, k.Name, code, br)
			}
			expect400(tier, "/query/batch", batch(`"queries":[`+q+`]`), `missing "eps"`)
			expect400(tier, "/query/batch", batch(`"queries":[`+q+`],"eps":-1`), `"eps" must be >= 0`)
			expect400(tier, "/query/batch", batch(`"queries":[],"eps":1`), `"queries" must be non-empty`)
			expect400(tier, "/query/batch", batch(`"queries":[`+q+`,null],"eps":1`), `query 1: "query" must not be null`)
			expect400(tier, "/query/batch", batch(`"queries":[`+q+`],"eps":1,"eps_max":2`),
				`invalid request body: json: unknown field "eps_max"`)
			expect400(tier, "/query/batch", batch(`"queries":[`+q+`],"eps":1,"seqs":[0]`),
				`invalid request body: json: unknown field "seqs"`)
		}
	}
}
