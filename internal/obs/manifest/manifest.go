// Package manifest captures run provenance: which exact build, host,
// and configuration produced a result artifact. A RunManifest is
// embedded in every figure JSON, metrics snapshot, trace file and bench
// result so anything under results/ is attributable to an exact run —
// git revision (with a dirty flag), Go toolchain, GOMAXPROCS, host,
// start time, the stream kernel, the full experiment configuration (ε/δ/seed/…) and the
// CLI arguments that launched it.
package manifest

import (
	"context"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"cqabench/internal/mt"
)

// RunManifest identifies one run of the benchmark tooling. All fields
// are plain data so the manifest embeds verbatim in any JSON artifact.
type RunManifest struct {
	// Tool names the producing entry point, e.g. "cqabench figure".
	Tool string `json:"tool"`
	// GitSHA is the VCS revision of the build (or of the working tree
	// when built from source with `go run`); empty when undeterminable.
	GitSHA string `json:"git_sha,omitempty"`
	// GitDirty reports uncommitted changes at build/run time.
	GitDirty   bool      `json:"git_dirty,omitempty"`
	GoVersion  string    `json:"go_version"`
	OS         string    `json:"os"`
	Arch       string    `json:"arch"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Host       string    `json:"host,omitempty"`
	PID        int       `json:"pid"`
	Start      time.Time `json:"start_time"`
	// StreamKernel names the MT19937-64 refill and match kernels the
	// process ran (mt.Kernel: "scalar", "avx2" or "avx512"), which set
	// its sampling speed but not its draws.
	StreamKernel string `json:"stream_kernel"`
	// Args is the full command line of the producing process.
	Args []string `json:"args,omitempty"`
	// Config carries the run's experiment parameters (ε, δ, seed, scale
	// factor, timeout, scenario, …) as rendered strings.
	Config map[string]string `json:"config,omitempty"`
}

// Collect gathers a manifest for the current process. config may be nil;
// the map is used as-is (not copied), so callers can keep enriching it.
func Collect(tool string, config map[string]string) RunManifest {
	sha, dirty := gitInfo()
	host, _ := os.Hostname()
	return RunManifest{
		Tool:         tool,
		GitSHA:       sha,
		GitDirty:     dirty,
		GoVersion:    runtime.Version(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Host:         host,
		PID:          os.Getpid(),
		Start:        time.Now().UTC(),
		StreamKernel: mt.Kernel(),
		Args:         append([]string(nil), os.Args...),
		Config:       config,
	}
}

// SetConfig records one configuration key, allocating the map if needed.
func (m *RunManifest) SetConfig(key, value string) {
	if m.Config == nil {
		m.Config = make(map[string]string)
	}
	m.Config[key] = value
}

// MergeConfig records every key of cfg (overwriting existing keys).
func (m *RunManifest) MergeConfig(cfg map[string]string) {
	for k, v := range cfg {
		m.SetConfig(k, v)
	}
}

// FlagConfig snapshots a parsed FlagSet as a config map: every defined
// flag with its effective (set or default) value. Passing the flag set
// that configured a run captures its full configuration without listing
// the flags by hand.
func FlagConfig(fs *flag.FlagSet) map[string]string {
	m := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

var gitOnce = sync.OnceValues(func() (string, bool) {
	// A binary built with module support carries its VCS stamp; prefer it
	// because it works outside the source tree.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var sha string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if sha != "" {
			return sha, dirty
		}
	}
	// `go run` / `go test` builds have no VCS stamp; fall back to asking
	// git about the working tree, best-effort with a short timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	sha := strings.TrimSpace(string(out))
	status, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output()
	dirty := err == nil && len(strings.TrimSpace(string(status))) > 0
	return sha, dirty
})

// gitInfo resolves the build's VCS revision and dirty flag once per
// process (the answer cannot change mid-run).
func gitInfo() (sha string, dirty bool) { return gitOnce() }
