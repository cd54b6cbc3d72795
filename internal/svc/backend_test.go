package svc

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/backend"
)

// TestNativeBackendRun drives /run with backend "go" end to end: the
// native output and memory_bytes must be the VM's, the second request
// must be a cache hit whose binary is served from the artifact store,
// and the backend counters must show up in /metrics.
func TestNativeBackendRun(t *testing.T) {
	if !backend.Available() {
		t.Skip("no go toolchain on PATH")
	}
	s, ts := newTestServer(t, Config{ArtifactDir: t.TempDir()})
	src := heatSource(t)

	var vmResp RunResponse
	status, body := post(t, ts.URL+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("vm run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &vmResp); err != nil {
		t.Fatal(err)
	}

	var native RunResponse
	status, body = post(t, ts.URL+"/run", Request{Source: src, Backend: "go"})
	if status != http.StatusOK {
		t.Fatalf("native run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &native); err != nil {
		t.Fatal(err)
	}
	if native.Output != vmResp.Output {
		t.Errorf("native output diverges from VM\nnative: %q\nvm:     %q", native.Output, vmResp.Output)
	}
	if native.Backend != "go" || native.Artifact == "" {
		t.Errorf("native run metadata missing: %+v", native)
	}
	if native.MemoryBytes == 0 || native.MemoryBytes != vmResp.MemoryBytes {
		t.Errorf("native run reports %d bytes of arrays, the VM %d", native.MemoryBytes, vmResp.MemoryBytes)
	}
	if native.Cached {
		t.Error("first native request reported cached (the VM entry must not alias it)")
	}
	if vmResp.Key == native.Key {
		t.Error("native and VM requests share a cache key")
	}

	var again RunResponse
	status, body = post(t, ts.URL+"/run", Request{Source: src, Backend: "go"})
	if status != http.StatusOK {
		t.Fatalf("second native run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !again.BuildHit {
		t.Errorf("second native run not served from the caches: cached=%t build_hit=%t", again.Cached, again.BuildHit)
	}
	if again.Output != vmResp.Output {
		t.Errorf("cached native output diverged: %q", again.Output)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"zpld_backend_builds_total", `zpld_backend_runs_total{backend="go",outcome="ok"} 2`} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !s.NativeAvailable() {
		t.Error("NativeAvailable false with an open store")
	}
}

// TestNativeBackendValidation: the interpreter-only knobs are refused
// with 400, mirroring zplrun's usage errors.
func TestNativeBackendValidation(t *testing.T) {
	if !backend.Available() {
		t.Skip("no go toolchain on PATH")
	}
	_, ts := newTestServer(t, Config{ArtifactDir: t.TempDir()})
	src := heatSource(t)
	for name, req := range map[string]Request{
		"dist":      {Source: src, Backend: "go", Dist: true, Procs: 2},
		"procs":     {Source: src, Backend: "go", Procs: 2},
		"max_steps": {Source: src, Backend: "go", MaxSteps: 10},
		"unknown":   {Source: src, Backend: "llvm"},
	} {
		status, body := post(t, ts.URL+"/run", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", name, status, body)
		}
	}
}
