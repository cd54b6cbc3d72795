// End-to-end test of zpld cluster mode: three daemon processes wired
// into one consistent-hash ring, driven by zplload's -targets mode,
// checking the ISSUE acceptance properties — zero request failures,
// each key of the burst compiled once cluster-wide, bit-identical
// responses from every node, disk rehydration across a restart (zero
// recompiles), and graceful degradation to local compiles after a peer
// is killed.
package repro

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/store"
)

// reservePorts binds and releases n ephemeral listeners, returning
// addresses the daemons can claim. Cluster members must know each
// other's addresses before any of them starts, so port 0 at launch
// (the single-node idiom) cannot work here.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// startClusterNode launches one zpld member on a fixed address and
// waits for its listening announcement.
func startClusterNode(t *testing.T, dir, addr string, peers []string, cacheDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, "zpld"),
		"-addr", addr, "-self", addr, "-peers", strings.Join(peers, ","),
		"-cache-dir", cacheDir, "-quiet")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	ready := make(chan struct{})
	go func() {
		buf := make([]byte, 4096)
		var seen []byte
		for {
			n, err := stderr.Read(buf)
			seen = append(seen, buf[:n]...)
			if strings.Contains(string(seen), "listening on") {
				close(ready)
				// Keep draining so the child never blocks on stderr.
				for {
					if _, err := stderr.Read(buf); err != nil {
						return
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("zpld %s did not announce within 10s", addr)
	}
	return cmd
}

// clusterRun posts a /run request and decodes the reply.
func clusterRun(t *testing.T, base string, req map[string]any) (int, struct {
	Cached bool   `json:"cached"`
	Tier   string `json:"tier"`
	Key    string `json:"key"`
	Output string `json:"output"`
}) {
	t.Helper()
	var r struct {
		Cached bool   `json:"cached"`
		Tier   string `json:"tier"`
		Key    string `json:"key"`
		Output string `json:"output"`
	}
	status, body := postJSON(t, base+"/run", req)
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("bad /run reply: %v: %s", err, body)
		}
	} else {
		r.Output = string(body)
	}
	return status, r
}

// ownerIndex computes which cluster member owns the default-level
// compile key of (src, configs) — the same routing the daemons use.
func ownerIndex(t *testing.T, addrs []string, src string, configs map[string]int64) int {
	t.Helper()
	lvl, err := core.ParseLevel("c2+f3")
	if err != nil {
		t.Fatal(err)
	}
	be, err := driver.ParseBackend("")
	if err != nil {
		t.Fatal(err)
	}
	opt := driver.Options{Level: lvl, Configs: configs, Backend: be}
	owner := store.NewRing(addrs).Owner(ccache.KeyOfKind(src, opt, ccache.ArtifactIR))
	for i, a := range addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %s not in ring %v", owner, addrs)
	return -1
}

// TestClusterEndToEnd is the ISSUE acceptance test for cluster mode.
func TestClusterEndToEnd(t *testing.T) {
	dir := buildTools(t)
	addrs := reservePorts(t, 3)
	cacheDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	urls := make([]string, 3)
	cmds := make([]*exec.Cmd, 3)
	for i := range addrs {
		cmds[i] = startClusterNode(t, dir, addrs[i], addrs, cacheDirs[i])
		urls[i] = "http://" + addrs[i]
	}

	// Every node agrees on the membership.
	for _, u := range urls {
		status, body := getBody(t, u+"/cluster")
		if status != http.StatusOK {
			t.Fatalf("%s/cluster: HTTP %d", u, status)
		}
		var cr struct {
			Clustered bool     `json:"clustered"`
			Members   []string `json:"members"`
		}
		if err := json.Unmarshal([]byte(body), &cr); err != nil {
			t.Fatal(err)
		}
		if !cr.Clustered || len(cr.Members) != 3 {
			t.Fatalf("%s/cluster reports %+v, want 3 clustered members", u, cr)
		}
	}

	// 1. The zplload burst against the whole cluster: zero failures,
	// and what the claim protocol guarantees about the compiles behind
	// them. A key is compiled under a claim its owner granted, and a
	// claim resolved by a put is never granted again (the next claimant
	// finds the artifact): with every peer call answered, each of the
	// burst's keys is compiled exactly once cluster-wide, however the
	// first requests race. A peer call that timed out or failed degrades
	// to a local compile, by design; then the bound is one compile per
	// key per node, which each node's own flight and memory tier hold.
	const distinct, hot = 5, 1
	load := exec.Command(filepath.Join(dir, "zplload"),
		"-targets", strings.Join(urls, ","),
		"-n", "150", "-c", "12", "-hot", "0.5", "-distinct", fmt.Sprint(distinct))
	out, err := load.CombinedOutput()
	text := string(out)
	if err != nil {
		t.Fatalf("zplload failed: %v\n%s", err, text)
	}
	if !strings.Contains(text, "errors: 0") {
		t.Errorf("cluster burst had failures:\n%s", text)
	}
	var compiles, degraded int64
	for _, u := range urls {
		_, body := getBody(t, u+"/cluster")
		var cr struct {
			Misses int64 `json:"misses"`
			Peers  []struct {
				GetTimeouts int64 `json:"get_timeouts"`
				GetErrors   int64 `json:"get_errors"`
				PutErrors   int64 `json:"put_errors"`
			} `json:"peers"`
		}
		if err := json.Unmarshal([]byte(body), &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Misses > distinct+hot {
			t.Errorf("%s compiled %d times for %d keys", u, cr.Misses, distinct+hot)
		}
		compiles += cr.Misses
		for _, p := range cr.Peers {
			degraded += p.GetTimeouts + p.GetErrors + p.PutErrors
		}
	}
	if bound := int64(distinct + hot); compiles < bound || (degraded == 0 && compiles > bound) {
		t.Errorf("%d compiles cluster-wide for %d keys with every peer call answered, want exactly one per key:\n%s",
			compiles, bound, text)
	}

	// 2. Bit-identical responses from every node for one artifact that
	// is compiled exactly once cluster-wide.
	heat, err := os.ReadFile("testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	probe := map[string]any{"source": string(heat)}
	status, first := clusterRun(t, urls[2], probe)
	if status != http.StatusOK {
		t.Fatalf("probe on node 2: HTTP %d: %s", status, first.Output)
	}
	if first.Cached {
		t.Errorf("fresh probe reported cached")
	}
	for _, u := range urls[:2] {
		status, r := clusterRun(t, u, probe)
		if status != http.StatusOK {
			t.Fatalf("probe on %s: HTTP %d: %s", u, status, r.Output)
		}
		if !r.Cached {
			t.Errorf("%s recompiled a cluster-cached key (tier=%q)", u, r.Tier)
		}
		if r.Key != first.Key || r.Output != first.Output || r.Output == "" {
			t.Errorf("%s response not bit-identical: key %s vs %s, output %q vs %q",
				u, r.Key, first.Key, r.Output, first.Output)
		}
	}

	// 3. Restart node 2: it must rehydrate the probe artifact from its
	// disk tier with zero recompiles.
	if err := cmds[2].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmds[2].Wait(); err != nil {
		t.Fatalf("node 2 exited non-zero on SIGTERM: %v", err)
	}
	cmds[2] = startClusterNode(t, dir, addrs[2], addrs, cacheDirs[2])
	status, r := clusterRun(t, urls[2], probe)
	if status != http.StatusOK {
		t.Fatalf("probe on restarted node: HTTP %d: %s", status, r.Output)
	}
	if !r.Cached || r.Tier != "disk" {
		t.Errorf("restarted node did not rehydrate from disk: cached=%t tier=%q", r.Cached, r.Tier)
	}
	if r.Output != first.Output {
		t.Errorf("rehydrated output diverged: %q vs %q", r.Output, first.Output)
	}
	_, metrics := getBody(t, urls[2]+"/metrics")
	if !strings.Contains(metrics, "zpld_cache_misses_total 0") {
		t.Errorf("restarted node recompiled, want 0 misses:\n%s",
			regexp.MustCompile(`zpld_cache_\w+ \d+`).FindAllString(metrics, -1))
	}

	// 4. Kill node 0 outright (no drain). A fresh key OWNED by the dead
	// node must still be served by the survivors — a local compile, not
	// an error.
	if err := cmds[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[0].Wait()
	var deadOwned map[string]any
	for v := int64(900); v < 1000; v++ {
		cfg := map[string]int64{"n": v%40 + 8, "steps": v}
		if ownerIndex(t, addrs, string(heat), cfg) == 0 {
			deadOwned = map[string]any{"source": string(heat), "configs": cfg}
			break
		}
	}
	if deadOwned == nil {
		t.Fatal("no probe key routed to the dead node in 100 candidates")
	}
	t0 := time.Now()
	status, r = clusterRun(t, urls[1], deadOwned)
	if status != http.StatusOK {
		t.Errorf("dead-owner key on node 1: HTTP %d: %s", status, r.Output)
	}
	if r.Cached || r.Output == "" {
		t.Errorf("dead-owner key should be a fresh local compile: cached=%t output=%q", r.Cached, r.Output)
	}
	if d := time.Since(t0); d > 15*time.Second {
		t.Errorf("degraded request took %v, want fast local fallback", d)
	}
	// The survivors keep answering normally, including for each other.
	status, r = clusterRun(t, urls[2], deadOwned)
	if status != http.StatusOK {
		t.Errorf("degraded cluster request on node 2: HTTP %d: %s", status, r.Output)
	}
	if status, _ := getBody(t, urls[1]+"/healthz"); status != http.StatusOK {
		t.Errorf("healthz on survivor: HTTP %d", status)
	}
}
