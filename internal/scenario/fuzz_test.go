package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseInstanceManifest checks the manifest parser that reads
// operator files and shares InstanceSpec.Validate with POST
// /v1/instances: no input panics it, and every accepted manifest
// re-encodes to JSON that parses back to equal specs with equal
// fingerprints. The seeds are the manifests of docs/REGISTRY.md,
// docs/FORMATS.md and CI's serve-smoke job.
func FuzzParseInstanceManifest(f *testing.F) {
	for _, seed := range []string{
		// docs/REGISTRY.md, manifest format.
		`{
  "instances": [
    {"name": "clean", "benchmark": "tpch", "sf": 0.001, "seed": 1},
    {"name": "noisy", "benchmark": "tpch", "sf": 0.001, "seed": 1,
     "noise": {"oblivious": true, "p": 0.2, "seed": 7}},
    {"name": "prod-snapshot", "path": "db.txt", "schema": "wh.schema"}
  ]
}`,
		// docs/REGISTRY.md, curl walkthrough.
		`{
  "instances": [
    {"name": "clean", "benchmark": "tpch", "sf": 0.001, "seed": 1},
    {"name": "noisy", "benchmark": "tpch", "sf": 0.001, "seed": 1,
     "noise": {"oblivious": true, "p": 0.2, "seed": 7},
     "weight": 2, "quota": {"rate": 20, "burst": 40}}
  ]
}`,
		// docs/FORMATS.md.
		`{
  "instances": [
    {"name": "clean", "benchmark": "tpch", "sf": 0.001, "seed": 1},
    {"name": "noisy", "benchmark": "tpch", "sf": 0.001, "seed": 1,
     "noise": {"oblivious": true, "p": 0.2, "seed": 7},
     "weight": 2, "quota": {"rate": 20, "burst": 40}},
    {"name": "prod-snapshot", "path": "db.txt", "schema": "wh.schema"}
  ]
}`,
		// CI's serve-smoke job.
		`{
  "instances": [
    {"name": "clean", "benchmark": "tpch", "sf": 0.0002, "seed": 1},
    {"name": "noisy", "benchmark": "tpch", "sf": 0.0002, "seed": 1,
     "noise": {"oblivious": true, "p": 0.2, "seed": 7},
     "weight": 2, "quota": {"burst": 3}}
  ]
}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseInstanceManifest(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only "no panic" is required
		}
		enc, err := json.Marshal(InstanceManifest{Instances: specs})
		if err != nil {
			t.Fatalf("re-encoding an accepted manifest failed: %v", err)
		}
		again, err := ParseInstanceManifest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip changed the specs:\n got %+v\nwant %+v", again, specs)
		}
		for i := range specs {
			if a, b := specs[i].Fingerprint(), again[i].Fingerprint(); a != b {
				t.Fatalf("instance %q: fingerprint %q became %q", specs[i].Name, a, b)
			}
		}
	})
}
