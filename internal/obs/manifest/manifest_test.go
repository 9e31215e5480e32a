package manifest

import (
	"encoding/json"
	"flag"
	"runtime"
	"testing"
	"time"

	"cqabench/internal/mt"
)

func TestCollectPopulatesEnvironment(t *testing.T) {
	m := Collect("test-tool", map[string]string{"eps": "0.1"})
	if m.Tool != "test-tool" {
		t.Errorf("tool: %q", m.Tool)
	}
	if m.GoVersion != runtime.Version() {
		t.Errorf("go version: %q", m.GoVersion)
	}
	if m.GOMAXPROCS <= 0 || m.NumCPU <= 0 {
		t.Errorf("cpu fields: gomaxprocs=%d numcpu=%d", m.GOMAXPROCS, m.NumCPU)
	}
	if m.OS != runtime.GOOS || m.Arch != runtime.GOARCH {
		t.Errorf("platform: %s/%s", m.OS, m.Arch)
	}
	if m.Start.IsZero() || time.Since(m.Start) > time.Minute {
		t.Errorf("start time: %v", m.Start)
	}
	if m.PID <= 0 {
		t.Errorf("pid: %d", m.PID)
	}
	if len(m.Args) == 0 {
		t.Error("no CLI args recorded")
	}
	if m.Config["eps"] != "0.1" {
		t.Errorf("config passthrough: %v", m.Config)
	}
	if m.StreamKernel != mt.Kernel() {
		t.Errorf("stream kernel %q, mt selected %q", m.StreamKernel, mt.Kernel())
	}
	if k := m.StreamKernel; k != "scalar" && k != "avx2" && k != "avx512" {
		t.Errorf("stream kernel %q is none of scalar, avx2 and avx512", k)
	}
}

func TestSetAndMergeConfig(t *testing.T) {
	var m RunManifest
	m.SetConfig("a", "1")
	m.MergeConfig(map[string]string{"b": "2", "a": "3"})
	if m.Config["a"] != "3" || m.Config["b"] != "2" {
		t.Errorf("config: %v", m.Config)
	}
}

func TestFlagConfig(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	eps := fs.Float64("eps", 0.1, "")
	fs.String("scenario", "noise", "")
	if err := fs.Parse([]string{"-eps", "0.2"}); err != nil {
		t.Fatal(err)
	}
	_ = eps
	cfg := FlagConfig(fs)
	if cfg["eps"] != "0.2" {
		t.Errorf("set flag: %v", cfg)
	}
	if cfg["scenario"] != "noise" {
		t.Errorf("default flag: %v", cfg)
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	m := Collect("rt", map[string]string{"seed": "1"})
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back RunManifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != m.Tool || back.GoVersion != m.GoVersion || back.StreamKernel != m.StreamKernel || back.Config["seed"] != "1" {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if !back.Start.Equal(m.Start) {
		t.Errorf("start time round trip: %v != %v", back.Start, m.Start)
	}
}
