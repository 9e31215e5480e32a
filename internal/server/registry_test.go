package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// doJSON issues a request with an optional JSON body and returns the
// status and decoded error code ("" for 2xx).
func doJSON(t *testing.T, method, url, body string) (int, string, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var e ErrorEnvelope
	_ = json.Unmarshal(b, &e)
	return resp.StatusCode, e.Error.Code, string(b)
}

// The registry API lifecycle against a server that starts empty:
// register, list, address, 404/409 error model, delete.
func TestInstanceRegistryLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Empty registry: listing is empty and estimates cannot resolve.
	var listing struct {
		Count     int               `json:"count"`
		Instances []InstanceSummary `json:"instances"`
	}
	getJSON(t, ts.URL+"/v1/instances", &listing)
	if listing.Count != 0 {
		t.Fatalf("initial count = %d, want 0", listing.Count)
	}
	if status, code, _ := doJSON(t, "POST", ts.URL+"/v1/estimate",
		`{"query": "Q() :- R(x)"}`); status != http.StatusBadRequest || code != "missing_instance" {
		t.Fatalf("estimate on empty registry = %d/%s, want 400/missing_instance", status, code)
	}

	// Register a tiny generated instance.
	spec := `{"name": "tiny", "benchmark": "tpch", "sf": 0.001, "seed": 1}`
	status, _, body := doJSON(t, "POST", ts.URL+"/v1/instances", spec)
	if status != http.StatusCreated {
		t.Fatalf("register = %d: %s", status, body)
	}
	var created InstanceSummary
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "tiny" || created.Source != "api" || created.Facts == 0 {
		t.Fatalf("created summary = %+v", created)
	}

	// Duplicate name: 409, whether the body matches or not.
	if status, code, _ := doJSON(t, "POST", ts.URL+"/v1/instances", spec); status != http.StatusConflict || code != "instance_exists" {
		t.Fatalf("duplicate register = %d/%s, want 409/instance_exists", status, code)
	}
	// Invalid specs: bad name, bad benchmark, unknown field.
	for _, bad := range []string{
		`{"name": "bad name!"}`,
		`{"name": "x", "benchmark": "tpcx"}`,
		`{"name": "x", "scalefactor": 2}`,
	} {
		if status, _, _ := doJSON(t, "POST", ts.URL+"/v1/instances", bad); status != http.StatusBadRequest {
			t.Fatalf("register %s = %d, want 400", bad, status)
		}
	}

	// A database path excludes sf and seed: the file exists, but the
	// spec is refused before it is read.
	dbPath := filepath.Join(t.TempDir(), "db.txt")
	if err := os.WriteFile(dbPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	withGen := fmt.Sprintf(`{"name": "file", "path": %q, "sf": 5, "seed": 9}`, dbPath)
	if status, code, body := doJSON(t, "POST", ts.URL+"/v1/instances", withGen); status != http.StatusBadRequest ||
		code != "bad_instance" || !strings.Contains(body, "excludes sf and seed") {
		t.Fatalf("register %s = %d/%s, want 400/bad_instance naming sf and seed: %s", withGen, status, code, body)
	}

	// A single registered instance resolves without naming it; naming it
	// works too; naming anything else is a 404.
	ok := `{"query": "Q() :- region(k, n, c)", "scheme": "Natural", "max_samples": 100000}`
	if status, _, body := doJSON(t, "POST", ts.URL+"/v1/estimate", ok); status != http.StatusOK {
		t.Fatalf("estimate without instance = %d: %s", status, body)
	}
	named := `{"instance": "tiny", "query": "Q() :- region(k, n, c)", "scheme": "Natural", "max_samples": 100000}`
	if status, _, body := doJSON(t, "POST", ts.URL+"/v1/estimate", named); status != http.StatusOK {
		t.Fatalf("estimate with instance = %d: %s", status, body)
	}
	if status, code, _ := doJSON(t, "POST", ts.URL+"/v1/estimate",
		`{"instance": "nope", "query": "Q() :- region(k, n, c)"}`); status != http.StatusNotFound || code != "unknown_instance" {
		t.Fatalf("unknown instance = %d/%s, want 404/unknown_instance", status, code)
	}
	if status, code, _ := doJSON(t, "POST", ts.URL+"/v1/synopsis",
		`{"instance": "nope", "query": "Q() :- region(k, n, c)"}`); status != http.StatusNotFound || code != "unknown_instance" {
		t.Fatalf("synopsis unknown instance = %d/%s, want 404/unknown_instance", status, code)
	}

	// The listing reflects residency and usage.
	getJSON(t, ts.URL+"/v1/instances", &listing)
	if listing.Count != 1 || listing.Instances[0].Estimates != 2 {
		t.Fatalf("listing = %+v", listing)
	}
	if listing.Instances[0].ResidentSynopses == 0 || listing.Instances[0].ResidentBytes == 0 {
		t.Fatalf("no resident synopsis after estimates: %+v", listing.Instances[0])
	}

	// Delete: resident synopses leave the LRU with the instance.
	if status, _, body := doJSON(t, "DELETE", ts.URL+"/v1/instances/tiny", ""); status != http.StatusOK {
		t.Fatalf("delete = %d: %s", status, body)
	}
	if got := s.reg.Gauge("synopsis_resident_bytes").Value(); got != 0 {
		t.Fatalf("resident bytes after delete = %v, want 0", got)
	}
	if status, code, _ := doJSON(t, "DELETE", ts.URL+"/v1/instances/tiny", ""); status != http.StatusNotFound || code != "unknown_instance" {
		t.Fatalf("double delete = %d/%s, want 404/unknown_instance", status, code)
	}
	getJSON(t, ts.URL+"/v1/instances", &listing)
	if listing.Count != 0 {
		t.Fatalf("count after delete = %d, want 0", listing.Count)
	}
}

// With several instances and none named "default", a request that names
// no instance is ambiguous (400); with a "default" registered, it
// resolves there.
func TestInstanceResolutionRules(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Instances: []InstanceConfig{
		{Name: "a", DB: smallDB(t)},
		{Name: "b", DB: smallDB(t)},
	}})
	body := `{"query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM"}`
	if status, code, _ := doJSON(t, "POST", ts.URL+"/v1/estimate", body); status != http.StatusBadRequest || code != "missing_instance" {
		t.Fatalf("ambiguous estimate = %d/%s, want 400/missing_instance", status, code)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, Instances: []InstanceConfig{
		{Name: "default", DB: smallDB(t)},
		{Name: "a", DB: smallDB(t)},
	}})
	status, _, respBody := doJSON(t, "POST", ts2.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("estimate = %d: %s", status, respBody)
	}
	var resp EstimateResponse
	if err := json.Unmarshal([]byte(respBody), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Instance != "default" {
		t.Fatalf("unnamed request resolved to %q, want default", resp.Instance)
	}
}

// Distinct instances never share resident synopses or estimator state:
// the same query against two differently-named (but identical) instances
// builds twice and lands under each instance's LRU accounting.
func TestInstancesIsolateSynopses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Instances: []InstanceConfig{
		{Name: "a", DB: smallDB(t)},
		{Name: "b", DB: smallDB(t)},
	}})
	for _, in := range []string{"a", "b"} {
		body := fmt.Sprintf(`{"instance": %q, "query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM"}`, in)
		status, respBody, _ := post(t, ts.URL+"/v1/estimate", body)
		if status != http.StatusOK {
			t.Fatalf("estimate on %s = %d: %s", in, status, respBody)
		}
		var resp EstimateResponse
		if err := json.Unmarshal([]byte(respBody), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Synopsis != "build" {
			t.Fatalf("instance %s synopsis source = %q, want build (no cross-instance sharing)", in, resp.Synopsis)
		}
	}
	for _, in := range []string{"a", "b"} {
		if entries, _ := s.lru.residentFor(in); entries != 1 {
			t.Fatalf("instance %s resident entries = %d, want 1", in, entries)
		}
	}
}

// The /debug/requests inspector records and filters by instance.
func TestDebugRequestsInstanceFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Instances: []InstanceConfig{
		{Name: "a", DB: smallDB(t)},
		{Name: "b", DB: smallDB(t)},
	}})
	for _, in := range []string{"a", "a", "b"} {
		body := fmt.Sprintf(`{"instance": %q, "query": "Q(n) :- Employee(i, n, d)", "scheme": "KLM"}`, in)
		post(t, ts.URL+"/v1/estimate", body)
	}
	var dr DebugRequestsResponse
	getJSON(t, ts.URL+"/debug/requests?instance=a", &dr)
	if dr.Count != 2 {
		t.Fatalf("instance=a records = %d, want 2", dr.Count)
	}
	for _, rec := range dr.Requests {
		if rec.Instance != "a" {
			t.Fatalf("filtered record has instance %q", rec.Instance)
		}
	}
}

// Deleting an instance takes its metric series out of /metrics, the
// series the DELETE request itself records included. Each cycle
// registers, uses and deletes a fresh instance; from the first cycle on,
// the scrape must not grow. A DELETE of a name that was never registered
// must not put that name in a label.
func TestInstanceDeleteDropsSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var lines []int
	for i := 1; i <= 5; i++ {
		name := fmt.Sprintf("churn%d", i)
		spec := fmt.Sprintf(`{"name": %q, "benchmark": "tpch", "sf": 0.0002, "seed": 1}`, name)
		if status, _, body := doJSON(t, "POST", ts.URL+"/v1/instances", spec); status != http.StatusCreated {
			t.Fatalf("register %s = %d: %s", name, status, body)
		}
		est := fmt.Sprintf(`{"instance": %q, "query": "Q() :- region(k, n, c)", "scheme": "KLM"}`, name)
		if status, _, body := doJSON(t, "POST", ts.URL+"/v1/estimate", est); status != http.StatusOK {
			t.Fatalf("estimate on %s = %d: %s", name, status, body)
		}
		if status, _, body := doJSON(t, "DELETE", ts.URL+"/v1/instances/"+name, ""); status != http.StatusOK {
			t.Fatalf("delete %s = %d: %s", name, status, body)
		}
		n := 0
		for _, line := range strings.Split(scrape(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		lines = append(lines, n)
	}
	for i, n := range lines {
		if n != lines[0] {
			t.Fatalf("/metrics sample lines after each cycle = %v: cycle %d differs from cycle 1", lines, i+1)
		}
	}

	if status, code, _ := doJSON(t, "DELETE", ts.URL+"/v1/instances/ghost", ""); status != http.StatusNotFound || code != "unknown_instance" {
		t.Fatalf("delete of an unknown name = %d/%s, want 404/unknown_instance", status, code)
	}
	if m := scrape(); strings.Contains(m, `instance="ghost"`) {
		t.Fatal(`/metrics has instance="ghost" series after a DELETE of that unknown name`)
	}
}

// A rejected registration, whether its spec is invalid or its build
// fails after the name was reserved, is no metric label: /metrics keeps
// its size however many distinct names are turned away, and no series
// names one of them. A conflict on a registered name is labelled with
// that instance.
func TestRejectedRegistrationLeavesNoSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	missing := filepath.Join(t.TempDir(), "missing")
	// Histogram buckets are not counted: one appears whenever a latency
	// lands in a bucket no request has filled yet.
	sampleLines := func() (int, string) {
		_, m := get(t, ts.URL+"/metrics")
		n := 0
		for _, line := range strings.Split(m, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "_bucket{") {
				n++
			}
		}
		return n, m
	}
	var lines []int
	var rejected []string
	for i := 1; i <= 4; i++ {
		invalid, unbuilt := fmt.Sprintf("invalid%d", i), fmt.Sprintf("unbuilt%d", i)
		rejected = append(rejected, invalid, unbuilt)
		for _, spec := range []string{
			fmt.Sprintf(`{"name": %q, "benchmark": "tpcx"}`, invalid),
			fmt.Sprintf(`{"name": %q, "path": %q}`, unbuilt, missing),
		} {
			if status, code, body := doJSON(t, "POST", ts.URL+"/v1/instances", spec); status != http.StatusBadRequest || code != "bad_instance" {
				t.Fatalf("register %s = %d/%s, want 400/bad_instance: %s", spec, status, code, body)
			}
		}
		n, _ := sampleLines()
		lines = append(lines, n)
	}
	for i, n := range lines {
		if n != lines[0] {
			t.Fatalf("/metrics sample lines after each round of rejections = %v: round %d differs from round 1", lines, i+1)
		}
	}
	_, m := sampleLines()
	for _, name := range rejected {
		if strings.Contains(m, fmt.Sprintf(`instance=%q`, name)) {
			t.Fatalf("/metrics has series for the rejected name %q", name)
		}
	}

	spec := `{"name": "taken", "benchmark": "tpch", "sf": 0.0002, "seed": 1}`
	if status, _, body := doJSON(t, "POST", ts.URL+"/v1/instances", spec); status != http.StatusCreated {
		t.Fatalf("register taken = %d: %s", status, body)
	}
	if status, code, _ := doJSON(t, "POST", ts.URL+"/v1/instances", spec); status != http.StatusConflict || code != "instance_exists" {
		t.Fatalf("duplicate register = %d/%s, want 409/instance_exists", status, code)
	}
	if _, m := sampleLines(); !strings.Contains(m, `server_requests_total{code="409",endpoint="/v1/instances",instance="taken"} 1`) {
		t.Fatalf("no series labels the 409 with the registered name:\n%s", m)
	}
}
