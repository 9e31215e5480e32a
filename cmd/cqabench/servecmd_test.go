package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestServeFlagErrors(t *testing.T) {
	if err := run([]string{"serve", "-log-format", "bogus"}); err == nil {
		t.Fatal("bad -log-format accepted")
	}
	if err := run([]string{"serve", "-benchmark", "bogus"}); err == nil {
		t.Fatal("bad -benchmark accepted")
	}
	if err := run([]string{"serve", "-cache", "bogus"}); err == nil {
		t.Fatal("bad -cache mode accepted")
	}
	if err := run([]string{"serve", "-slo-windows", "1m,never"}); err == nil {
		t.Fatal("bad -slo-windows accepted")
	}
	if err := run([]string{"serve", "-slo-windows", "-1m"}); err == nil {
		t.Fatal("negative -slo-windows accepted")
	}
	if err := run([]string{"serve", "-slo-windows", ","}); err == nil {
		t.Fatal("empty -slo-windows accepted")
	}
	if err := run([]string{"serve", "-instances", "m.json", "-in", "db.txt"}); err == nil {
		t.Fatal("-instances together with -in accepted")
	}
	if err := run([]string{"serve", "-instances", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing manifest accepted")
	}
	// The address has no port, so a serve that accepted -schema without
	// -in would fail to listen instead of serving.
	err := run([]string{"serve", "-schema", "s.txt", "-sf", "0.0002", "-addr", "no-port"})
	if err == nil || !strings.Contains(err.Error(), "requires a database path") {
		t.Fatalf("-schema without -in: err %v, want a rejection", err)
	}
	// -sf and -seed only parameterize generation, so beside -in they are
	// refused before the file is read (db.txt need not exist).
	err = run([]string{"serve", "-in", "db.txt", "-sf", "5", "-seed", "9", "-addr", "no-port"})
	if err == nil || !strings.Contains(err.Error(), "sf") {
		t.Fatalf("-sf and -seed beside -in: err %v, want a rejection naming sf", err)
	}
	if err := run([]string{"serve", "-synopsis-mem-budget", "lots"}); err == nil {
		t.Fatal("bad -synopsis-mem-budget accepted")
	}
	if err := run([]string{"serve", "-synopsis-mem-budget", "-1"}); err == nil {
		t.Fatal("negative -synopsis-mem-budget accepted")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"512B", 512, true},
		{"4KiB", 4 << 10, true},
		{"64MiB", 64 << 20, true},
		{"2GiB", 2 << 30, true},
		{" 64MiB ", 64 << 20, true},
		{"", 0, false},
		{"64MB", 0, false}, // decimal suffixes are not supported
		{"-1", 0, false},
		{"lots", 0, false},
		{"9999999999GiB", 0, false}, // overflow
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseBytes(%q) accepted", tc.in)
		}
	}
}

func TestParseWindows(t *testing.T) {
	got, err := parseWindows(" 30s, 5m ,1h")
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{30 * time.Second, 5 * time.Minute, time.Hour}
	if len(got) != len(want) {
		t.Fatalf("parseWindows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseWindows = %v, want %v", got, want)
		}
	}
}

// startServe runs `cqabench serve` in-process with stdout intercepted,
// returning the bound address and the run's exit channel. The caller
// shuts it down with SIGTERM.
func startServe(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	oldStdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	t.Cleanup(func() { os.Stdout = oldStdout })

	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...))
	}()

	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 256)
		n, _ := r.Read(buf)
		addrCh <- string(buf[:n])
	}()
	select {
	case line := <-addrCh:
		return strings.TrimSpace(strings.TrimPrefix(line, "listening on")), done
	case err := <-done:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not bind within 30s")
	}
	return "", nil
}

// stopServe sends SIGTERM and waits for a clean exit.
func stopServe(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down on SIGTERM within 30s")
	}
}

// TestServeInKeysNameTheSchema: two `serve -in` runs over the same file
// with different schemas share a cache directory, and the second must
// not load the first one's synopsis. Under schema a the file's two R
// facts form one block, so Q holds in half the repairs; under schema b
// they are two blocks and Q is certain.
func TestServeInKeysNameTheSchema(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"db.txt": "R|i:1|s:a\nR|i:1|s:b\n",
		"a.txt":  "relation R(k*, v)\n",
		"b.txt":  "relation R(k*, v*)\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cacheDir := filepath.Join(dir, "cache")
	estimate := func(schema string) (freq float64, synopsis string) {
		addr, done := startServe(t, "-in", filepath.Join(dir, "db.txt"),
			"-schema", filepath.Join(dir, schema), "-cache-dir", cacheDir)
		resp, err := http.Post("http://"+addr+"/v1/estimate", "application/json",
			strings.NewReader(`{"query": "Q() :- R(1, 'a')", "scheme": "KLM"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		stopServe(t, done)
		var parsed struct {
			Answers []struct {
				Freq float64 `json:"freq"`
			} `json:"answers"`
			Synopsis string `json:"synopsis"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &parsed) != nil || len(parsed.Answers) != 1 {
			t.Fatalf("schema %s: estimate = %d: %s", schema, resp.StatusCode, body)
		}
		return parsed.Answers[0].Freq, parsed.Synopsis
	}
	if freq, syn := estimate("a.txt"); freq >= 0.9 || syn != "build" {
		t.Fatalf("schema a: freq %g from a %q synopsis, want about 0.5 from a build", freq, syn)
	}
	if freq, syn := estimate("b.txt"); freq != 1 || syn != "build" {
		t.Fatalf("schema b: freq %g from a %q synopsis, want 1 from a build", freq, syn)
	}
}

// TestServeInstanceManifest boots the service from a two-instance
// manifest with a synopsis memory budget, estimates against each
// instance by name, registers a third at runtime, and checks the
// per-instance metric labels.
func TestServeInstanceManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "instances.json")
	if err := os.WriteFile(manifest, []byte(`{
	  "instances": [
	    {"name": "clean", "benchmark": "tpch", "sf": 0.0002, "seed": 1},
	    {"name": "noisy", "benchmark": "tpch", "sf": 0.0002, "seed": 1,
	     "noise": {"oblivious": true, "p": 0.2, "seed": 7}}
	  ]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, done := startServe(t, "-instances", manifest, "-synopsis-mem-budget", "64MiB")
	base := "http://" + addr

	for _, in := range []string{"clean", "noisy"} {
		body := fmt.Sprintf(`{"instance": %q, "query": "Q(n) :- nation(k, n, r, c)", "scheme": "KLM"}`, in)
		resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate on %s = %d: %s", in, resp.StatusCode, b)
		}
	}

	// Register a third instance at runtime and use it.
	resp, err := http.Post(base+"/v1/instances", "application/json",
		strings.NewReader(`{"name": "extra", "benchmark": "tpch", "sf": 0.0002, "seed": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d: %s", resp.StatusCode, b)
	}
	resp, err = http.Post(base+"/v1/estimate", "application/json",
		strings.NewReader(`{"instance": "extra", "query": "Q(n) :- nation(k, n, r, c)", "scheme": "KLM"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate on extra = %d: %s", resp.StatusCode, b)
	}

	// Per-instance series in the exposition.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`server_requests_total{code="200",endpoint="/v1/estimate",instance="clean"}`,
		`server_requests_total{code="200",endpoint="/v1/estimate",instance="noisy"}`,
		`server_requests_total{code="200",endpoint="/v1/estimate",instance="extra"}`,
		`server_instances 3`,
		`synopsis_mem_budget_bytes 6.7108864e+07`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, metrics)
		}
	}

	// Delete one instance before shutting down.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/instances/extra", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}

	stopServe(t, done)
}

// TestServeSmoke drives the subcommand end to end in-process: generate a
// tiny instance, serve it on a free port, answer one estimate request,
// then shut down cleanly on SIGTERM.
func TestServeSmoke(t *testing.T) {
	// cmdServe announces the bound address on stdout; intercept it.
	oldStdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = oldStdout }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-benchmark", "tpch", "-sf", "0.0002"})
	}()

	// Read the "listening on <addr>" line.
	addrCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 256)
		n, _ := r.Read(buf)
		addrCh <- string(buf[:n])
	}()
	var addr string
	select {
	case line := <-addrCh:
		addr = strings.TrimSpace(strings.TrimPrefix(line, "listening on"))
	case err := <-done:
		t.Fatalf("serve exited before binding: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not bind within 30s")
	}

	resp, err := http.Post("http://"+addr+"/v1/estimate", "application/json",
		strings.NewReader(`{"query": "Q(n) :- nation(k, n, r, c)", "scheme": "KLM"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate = %d: %s", resp.StatusCode, body)
	}
	var parsed struct {
		Scheme  string `json:"scheme"`
		Answers []struct {
			Tuple []string `json:"tuple"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(body), &parsed); err != nil {
		t.Fatalf("response not JSON: %v (%s)", err, body)
	}
	if parsed.Scheme != "KLM" || len(parsed.Answers) == 0 {
		t.Fatalf("unexpected response %s", body)
	}

	// The inspector endpoints are live alongside the estimator.
	for _, path := range []string{"/version", "/debug/requests", "/metrics.json"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down on SIGTERM within 30s")
	}
}
