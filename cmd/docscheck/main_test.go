package main

import (
	"reflect"
	"testing"
)

func TestParseSubcommands(t *testing.T) {
	help := `cqabench — benchmarking approximate consistent query answering

subcommands:
  run       measure a scenario family with live telemetry
  bench     continuous bench
  runscenario  measure all schemes over an exported scenario directory

environment: none
`
	got := parseSubcommands(help)
	want := []string{"run", "bench", "runscenario"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseSubcommands = %v, want %v", got, want)
	}
}

func TestParseFlags(t *testing.T) {
	usage := `Usage of run:
  -balance float
    	fixed balance (noise, joins scenarios)
  -cache string
    	synopsis cache mode: rw, ro or off (default "rw")
  -cache-dir string
    	content-addressed synopsis cache directory
`
	got := parseFlags(usage)
	for _, name := range []string{"balance", "cache", "cache-dir"} {
		if !got[name] {
			t.Errorf("flag %q not parsed", name)
		}
	}
	if len(got) != 3 {
		t.Errorf("parsed %d flags, want 3: %v", len(got), got)
	}
}

func TestScanDocFencedInvocations(t *testing.T) {
	doc := "intro\n" +
		"```sh\n" +
		"# a comment mentioning cqabench run -nonexistent is ignored\n" +
		"cqabench run -scenario noise -cache-dir /tmp/c  # trailing comment -alsoignored\n" +
		"cqabench bench -tier smoke \\\n" +
		"  -compare results/BENCH_smoke.json\n" +
		"go run ./cmd/cqabench figure -id 3\n" +
		"cqabench answer -query \"Q(x) :- R(x, -1)\"\n" +
		"```\n"
	got := scanDoc(doc)
	want := []mention{
		{line: 4, sub: "run"},
		{line: 4, sub: "run", flag: "scenario"},
		{line: 4, sub: "run", flag: "cache-dir"},
		{line: 5, sub: "bench"},
		{line: 5, sub: "bench", flag: "tier"},
		{line: 6, flag: "compare"},
		{line: 7, sub: "figure"},
		{line: 7, sub: "figure", flag: "id"},
		{line: 8, sub: "answer"},
		{line: 8, sub: "answer", flag: "query"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDoc:\n got %+v\nwant %+v", got, want)
	}
}

func TestScanDocInlineSpans(t *testing.T) {
	doc := "Tune with `-compare-mad-factor`; see `-metrics-out \"\"` and\n" +
		"`jq -r 'stuff'` (not a flag span).\n"
	got := scanDoc(doc)
	want := []mention{
		{line: 1, flag: "compare-mad-factor"},
		{line: 1, flag: "metrics-out"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDoc:\n got %+v\nwant %+v", got, want)
	}
}

// TestScanDocInlineInvocations: an inline span naming a subcommand is
// checked like a fenced invocation, so a removed subcommand or flag that
// prose still names fails the check; a placeholder is no subcommand.
func TestScanDocInlineInvocations(t *testing.T) {
	doc := "Run `cqabench run -metrics-addr :9090` or `cqabench figure -id 4 -query \"-x\"`;\n" +
		"see `cqabench <subcommand> -h`, `cqabench figure <id>` and `cqabench`.\n"
	got := scanDoc(doc)
	want := []mention{
		{line: 1, sub: "run"},
		{line: 1, sub: "run", flag: "metrics-addr"},
		{line: 1, sub: "figure"},
		{line: 1, sub: "figure", flag: "id"},
		{line: 1, sub: "figure", flag: "query"},
		{line: 2, sub: "figure"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDoc:\n got %+v\nwant %+v", got, want)
	}
}

// TestScanDocPairsBackticks: a span's closing backtick opens no new
// span, so prose between two spans is never read as a flag.
func TestScanDocPairsBackticks(t *testing.T) {
	doc := "`(Σ,Q)`-synopses computing `syn(D)`; constants (Lemmas 4.3) — `internal/sampler`\n" +
		"and `-id`, then an unclosed `-tail\n"
	got := scanDoc(doc)
	want := []mention{{line: 2, flag: "id"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDoc:\n got %+v\nwant %+v", got, want)
	}
}

func TestScanDocQuotedFlagsIgnored(t *testing.T) {
	doc := "```sh\ncqabench stats -query \"Q() :- R(-1, x)\" -explain\n```\n"
	got := scanDoc(doc)
	want := []mention{
		{line: 2, sub: "stats"},
		{line: 2, sub: "stats", flag: "query"},
		{line: 2, sub: "stats", flag: "explain"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDoc:\n got %+v\nwant %+v", got, want)
	}
}

func TestScanDocEndpoints(t *testing.T) {
	doc := "The service answers `POST /v1/estimate` and `GET /v1/instances`;\n" +
		"delete with `DELETE /v1/instances/{name}`. Inspect via\n" +
		"`/debug/requests?limit=5` (query strings are stripped).\n" +
		"```sh\n" +
		"curl -s http://localhost:8080/v1/instances | jq .\n" +
		"curl http://localhost:8080/debug/vars\n" +
		"```\n" +
		"Plain prose mentioning /v1/estimate outside a span is ignored.\n"
	got := scanDocEndpoints(doc)
	want := []endpointMention{
		{line: 1, path: "/v1/estimate"},
		{line: 1, path: "/v1/instances"},
		{line: 2, path: "/v1/instances/{name}"},
		{line: 3, path: "/debug/requests"},
		{line: 5, path: "/v1/instances"},
		{line: 6, path: "/debug/vars"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDocEndpoints:\n got %+v\nwant %+v", got, want)
	}
}

func TestRouteMatches(t *testing.T) {
	routes := []string{
		"/v1/estimate",
		"/v1/instances",
		"/v1/instances/{name}",
		"/debug/pprof/",
	}
	for _, ok := range []string{
		"/v1/estimate",
		"/v1/instances/tiny",
		"/v1/instances/{name}", // docs quoting the pattern itself
		"/debug/pprof/profile", // trailing-slash route matches as prefix
		"/debug/pprof",
	} {
		if !routeMatches(ok, routes) {
			t.Errorf("routeMatches(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{
		"/v1/estimates",
		"/v1/instances/a/b", // {name} is a single segment
		"/debug/requests",
	} {
		if routeMatches(bad, routes) {
			t.Errorf("routeMatches(%q) = true, want false", bad)
		}
	}
}

func TestCollectRoutes(t *testing.T) {
	routes, err := collectRoutes("../../internal/server")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"/v1/estimate", "/v1/instances", "/v1/instances/{name}",
		"/metrics", "/debug/requests",
	} {
		if !routeMatches(want, routes) {
			t.Errorf("route %q not collected from internal/server: %v", want, routes)
		}
	}
}
