package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzEstimateRequest checks the POST /v1/estimate body as the handler
// reads it, strict decoding then options: no input panics either step,
// and every accepted body re-encodes to JSON that decodes to an equal
// request with equal options. The seeds are the bodies of docs/SERVICE.md
// and of TestEstimateHandlerTable.
func FuzzEstimateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"query": "Q(n) :- nation(k, n, r, c)", "scheme": "auto"}`,
		`{"query": "Q(n) :- nation(k, n, r, c)", "scheme": "auto", "timeout_ms": 5000}`,
		`{"query": "Q(n) :- nation(k, n, r, c)", "scheme": "KLM", "convergence": true}`,
		`{"query": "Q() :- Employee(1, n, d)", "eps": 2}`,
		`{"query": "Q() :- Employee(1, n, d)", "delta": 1}`,
		`{"query": "Q() :- Employee(1, n, d)", "max_samples": -1}`,
		`{"query": "Q() :- Employee(1, n, d)", "bogus": 1}`,
		`{"instance": "tuned", "query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "scheme": "Natural"}`,
		`{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)", "seed": 7, "sampling_workers": -1, "convergence": true, "convergence_points": 9999}`,
		`{"query": "Q() :- Employee(1, n1, d), Employee(2, n2, d)"} {}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req EstimateRequest
		if err := decodeStrict(bytes.NewReader(data), &req); err != nil {
			return // a 400 bad_request: only "no panic" is required
		}
		opts, err := req.options(0)
		if err != nil {
			return // a 400 invalid_options
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request failed: %v", err)
		}
		var again EstimateRequest
		if err := decodeStrict(bytes.NewReader(enc), &again); err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request:\n got %+v\nwant %+v", again, req)
		}
		againOpts, err := again.options(0)
		if err != nil {
			t.Fatalf("re-encoded request's options rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(againOpts, opts) {
			t.Fatalf("round trip changed the options:\n got %+v\nwant %+v", againOpts, opts)
		}
	})
}

// FuzzInstancePatch checks the PATCH /v1/instances/{name} body as the
// handler reads it, strict decoding then validate: no input panics
// either step, and every accepted body re-encodes to JSON that decodes
// and validates to an equal patch. The seeds are the bodies of
// docs/REGISTRY.md, docs/SERVICE.md and TestInstancePatchLifecycle.
func FuzzInstancePatch(f *testing.F) {
	for _, seed := range []string{
		`{"weight": 3, "quota": {"rate": 10, "burst": 20, "max_concurrent": 2}}`,
		`{"weight": 5, "if_generation": 2}`,
		`{"weight": 1, "quota": {}}`,
		`{"weight": 2, "quota": {"rate": 5, "burst": 10}}`,
		`{"quota": {}}`,
		`{"quota": {"work_rate": 0.5, "work_burst": 2}}`,
		`{"weight": 4, "quota": {"rate": 2, "max_concurrent": 3}}`,
		`{"weight": -1}`,
		`{"weight": 1048577}`,
		`{"quota": {"rate": -1}}`,
		`{}`,
		`{"weight": 2} {}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p InstancePatch
		if err := decodeStrict(bytes.NewReader(data), &p); err != nil {
			return
		}
		if err := p.validate(); err != nil {
			return // a 400: only "no panic" is required
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("re-encoding an accepted patch failed: %v", err)
		}
		var again InstancePatch
		if err := decodeStrict(bytes.NewReader(enc), &again); err != nil {
			t.Fatalf("re-encoded patch rejected: %v\n%s", err, enc)
		}
		if err := again.validate(); err != nil {
			t.Fatalf("re-encoded patch invalid: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip changed the patch:\n got %+v\nwant %+v", again, p)
		}
	})
}
