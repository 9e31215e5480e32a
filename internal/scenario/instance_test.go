package scenario

import (
	"strings"
	"testing"
)

func TestInstanceSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec InstanceSpec
		ok   bool
	}{
		{"minimal", InstanceSpec{Name: "a"}, true},
		{"full generated", InstanceSpec{Name: "prod-1.2", Benchmark: "tpcds", ScaleFactor: 0.01, Seed: 3}, true},
		{"noised", InstanceSpec{Name: "n", Noise: &NoiseSpec{Query: "Q() :- region(k, n, c)", P: 0.1}}, true},
		{"oblivious noise", InstanceSpec{Name: "n", Noise: &NoiseSpec{Oblivious: true, P: 0.5}}, true},
		{"empty name", InstanceSpec{}, false},
		{"name with space", InstanceSpec{Name: "a b"}, false},
		{"name leading dash", InstanceSpec{Name: "-a"}, false},
		{"name too long", InstanceSpec{Name: strings.Repeat("a", 65)}, false},
		{"bad benchmark", InstanceSpec{Name: "a", Benchmark: "tpcx"}, false},
		{"negative sf", InstanceSpec{Name: "a", ScaleFactor: -1}, false},
		{"schema without path", InstanceSpec{Name: "a", SchemaPath: "s.schema"}, false},
		{"path", InstanceSpec{Name: "a", Path: "db.txt", SchemaPath: "s.schema"}, true},
		{"path with sf", InstanceSpec{Name: "a", Path: "db.txt", ScaleFactor: 5}, false},
		{"path with seed", InstanceSpec{Name: "a", Path: "db.txt", Seed: 9}, false},
		{"noise p zero", InstanceSpec{Name: "a", Noise: &NoiseSpec{Query: "Q() :- region(k, n, c)"}}, false},
		{"noise p over one", InstanceSpec{Name: "a", Noise: &NoiseSpec{Query: "q", P: 1.5}}, false},
		{"noise without query", InstanceSpec{Name: "a", Noise: &NoiseSpec{P: 0.1}}, false},
		{"noise bad blocks", InstanceSpec{Name: "a", Noise: &NoiseSpec{Oblivious: true, P: 0.1, MinBlock: 6, MaxBlock: 3}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() accepted an invalid spec")
			}
		})
	}
}

// Fingerprints must distinguish everything that changes the built
// database — and nothing else: the name is deliberately excluded so a
// rename keeps the instance's cached synopses valid.
func TestInstanceSpecFingerprint(t *testing.T) {
	base := InstanceSpec{Name: "a", Benchmark: "tpch", ScaleFactor: 0.001, Seed: 1}
	renamed := base
	renamed.Name = "renamed"
	if got, want := base.Fingerprint(), renamed.Fingerprint(); got != want {
		t.Fatalf("rename changed fingerprint: %q vs %q", got, want)
	}
	// Defaults resolve before fingerprinting: the zero spec and the
	// explicit-default spec are the same instance.
	zero := InstanceSpec{Name: "a"}
	if got, want := zero.Fingerprint(), base.Fingerprint(); got != want {
		t.Fatalf("defaulted fingerprint %q != explicit %q", got, want)
	}
	distinct := []InstanceSpec{
		{Name: "a", Benchmark: "tpcds", ScaleFactor: 0.001, Seed: 1},
		{Name: "a", Benchmark: "tpch", ScaleFactor: 0.002, Seed: 1},
		{Name: "a", Benchmark: "tpch", ScaleFactor: 0.001, Seed: 2},
		{Name: "a", Path: "db.txt"},
		{Name: "a", Benchmark: "tpch", ScaleFactor: 0.001, Seed: 1,
			Noise: &NoiseSpec{Oblivious: true, P: 0.1}},
	}
	seen := map[string]bool{base.Fingerprint(): true}
	for _, s := range distinct {
		fp := s.Fingerprint()
		if seen[fp] {
			t.Fatalf("spec %+v collides with an earlier fingerprint %q", s, fp)
		}
		seen[fp] = true
	}
}

func TestParseInstanceManifest(t *testing.T) {
	good := `{
	  "instances": [
	    {"name": "clean", "benchmark": "tpch", "sf": 0.001, "seed": 1},
	    {"name": "noisy", "benchmark": "tpch", "sf": 0.001, "seed": 1,
	     "noise": {"oblivious": true, "p": 0.1, "seed": 7}}
	  ]
	}`
	specs, err := ParseInstanceManifest(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "clean" || specs[1].Noise == nil {
		t.Fatalf("parsed %+v", specs)
	}

	for name, bad := range map[string]string{
		"not json":        `instances:`,
		"unknown field":   `{"instances": [{"name": "a", "scalefactor": 2}]}`,
		"no instances":    `{"instances": []}`,
		"duplicate names": `{"instances": [{"name": "a"}, {"name": "a"}]}`,
		"invalid spec":    `{"instances": [{"name": "bad name"}]}`,
	} {
		if _, err := ParseInstanceManifest(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}
}

// Build is pure in the spec: identical specs (under different names)
// produce byte-identical databases.
func TestInstanceSpecBuildDeterministic(t *testing.T) {
	a := InstanceSpec{Name: "a", Benchmark: "tpch", ScaleFactor: 0.001, Seed: 1,
		Noise: &NoiseSpec{Oblivious: true, P: 0.1}}
	b := a
	b.Name = "b"
	dbA, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	dbB, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if dbA.NumFacts() == 0 || dbA.NumFacts() != dbB.NumFacts() {
		t.Fatalf("facts: %d vs %d", dbA.NumFacts(), dbB.NumFacts())
	}
	if dbA.String() != dbB.String() {
		t.Fatal("identical specs built different databases")
	}
}
