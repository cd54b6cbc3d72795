// Tests of the one front door as zpld sees it: the shared illegal-spec
// table, the tuned-plan key derived from the request struct, the
// proof-carrying executor across cache tiers, and the drain fix.
package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/job"
	"repro/internal/store"
)

// illegalSpecs loads the one table of illegal requests that the
// resolver (internal/job), the CLIs (cli_test.go) and zpld (here) are
// all driven through: field picks this front end's rendering of each
// case, "run" for Request bodies and "tune" for TuneRequest bodies.
func illegalSpecs(t *testing.T, field string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile("../../testdata/illegal_specs.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []map[string]json.RawMessage
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	out := map[string]json.RawMessage{}
	for _, c := range cases {
		var name string
		if err := json.Unmarshal(c["name"], &name); err != nil {
			t.Fatal(err)
		}
		if body, ok := c[field]; ok {
			out[name] = body
		}
	}
	if len(out) == 0 {
		t.Fatalf("no %q cases in the illegal-spec table", field)
	}
	return out
}

// TestTuneKeyCoversEveryField: every TuneRequest field either joins the
// tuned-plan cache key through its `key` tag, is already part of the
// key through the source text or driver.Options, or is exempt with a
// reason — and the rendered extra string is byte-identical to the one
// older binaries wrote (disk tiers keep serving).
func TestTuneKeyCoversEveryField(t *testing.T) {
	covered := map[string]string{
		"Source": "hashed as the source text", "Bench": "hashed as the source text",
		"Level": "driver.Options.Level", "Configs": "driver.Options.Configs",
		"Procs": "driver.Options.Comm", "Strategy": "driver.Options.Comm",
		"TimeoutMS": "a deadline does not change the result",
	}
	rt := reflect.TypeOf(TuneRequest{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		_, exempt := covered[f.Name]
		if tagged := f.Tag.Get("key") != ""; tagged == exempt {
			t.Errorf("TuneRequest.%s must carry a `key` tag or an exemption, not both or neither", f.Name)
		}
	}

	req := TuneRequest{Bench: "frac", Beam: 2, ExhaustiveVertices: 9, Measure: true}
	if _, _, _, err := resolveTune(&req); err != nil {
		t.Fatal(err)
	}
	const want = "tune:machine=t3e,model=cycle,beam=2,exh=9,states=0,measure=true,topk=0"
	if got := tuneExtra(&req); got != want {
		t.Errorf("tune key extra = %q, want %q", got, want)
	}
}

// TestServeListenerClosesSilentConns: a connection that was dialled but
// never sent a request (a peer's pooled dial) must not hold the drain
// for http.Server.Shutdown's 5 s StateNew grace.
func TestServeListenerClosesSilentConns(t *testing.T) {
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(ctx, l) }()

	silent, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A full request on a second connection proves the accept loop has
	// taken the silent one (accepts are in dial order).
	if status, _ := post(t, "http://"+l.Addr().String()+"/run", Request{Bench: "fibro", Configs: map[string]int64{"n": 16}}); status != http.StatusOK {
		t.Fatalf("pre-drain request: HTTP %d", status)
	}

	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("ServeListener still draining after 4s")
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("drain with a silent connection took %v, want < 1s", d)
	}
}

// TestProofsRideMemTierNotDiskTier: a VM /run of a locally compiled
// entry takes the proof-carrying dispatch zplrun takes, a rehydrated
// entry (no proofs travel in the envelope) stays checked, and the two
// are indistinguishable from outside: byte-identical output, equal
// steps.
func TestProofsRideMemTierNotDiskTier(t *testing.T) {
	dir := t.TempDir()
	req := Request{Source: heatSource(t), Configs: map[string]int64{"n": 24}}
	run := func(ts string, wantTier string) RunResponse {
		t.Helper()
		status, body := post(t, ts+"/run", req)
		if status != http.StatusOK {
			t.Fatalf("run: HTTP %d: %s", status, body)
		}
		var resp RunResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Tier != wantTier {
			t.Fatalf("served from tier %q, want %q", resp.Tier, wantTier)
		}
		return resp
	}
	entryOf := func(s *Server) *ccache.Entry {
		t.Helper()
		src, opt, err := s.resolve(&req, true)
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := s.cache.GetOrCompute(context.Background(), ccache.KeyOf(src, opt), func() (*ccache.Entry, error) {
			return nil, fmt.Errorf("entry not cached")
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	run(ts1.URL, "")
	mem := run(ts1.URL, store.TierMem)
	if entryOf(s1).Comp.Bounds == nil {
		t.Error("mem-tier entry lost its bounds proofs")
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	disk := run(ts2.URL, store.TierDisk)
	if entryOf(s2).Comp.Bounds != nil {
		t.Error("rehydrated entry claims proofs that never travelled")
	}
	if disk.Output != mem.Output {
		t.Errorf("disk-tier output diverged from mem-tier:\n%q\n%q", disk.Output, mem.Output)
	}
	if disk.Steps != mem.Steps || mem.Steps == 0 {
		t.Errorf("steps: mem %d, disk %d", mem.Steps, disk.Steps)
	}
}

// TestExecuteCarriesProofs: the executor must hand Compilation.Bounds
// to the VM. A compilation with a seeded evidence fault is only wrong
// under proof-carrying dispatch, so some faulted site has to change
// what execute returns.
func TestExecuteCarriesProofs(t *testing.T) {
	s := New(Config{})
	src := heatSource(t)
	output := func(fault int) string {
		c, err := driver.Compile(src, driver.Options{Level: core.C2F3, ProveFault: fault})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.execute(context.Background(), &ccache.Entry{Comp: c}, job.RunSpec{})
		if err != nil {
			return "error: " + err.Error()
		}
		return resp.Output
	}
	clean := output(0)
	for site := 1; site <= 8; site++ {
		if output(site) != clean {
			return
		}
	}
	t.Error("no seeded evidence fault changed the output: execute runs checked dispatch")
}
