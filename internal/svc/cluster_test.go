// Cluster-mode service tests: multiple svc.Servers wired into one
// consistent-hash ring over real HTTP, exercising the peer and disk
// tiers end to end — responses carry the serving tier, /metrics grows
// the zpld_store_tier_* and zpld_peer_* families, and /cluster reports
// membership and reachability.
package svc

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/ccache"
	"repro/internal/store"
)

// lateHandler lets the httptest listeners exist before the Servers
// that answer on them: a clustered Config needs every member's
// address, which is only known once all listeners are bound.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) Set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newCluster starts n clustered servers sharing one ring, each with
// its own cache directory.
func newCluster(t *testing.T, n int) (srvs []*Server, urls, addrs []string) {
	t.Helper()
	lates := make([]*lateHandler, n)
	for i := range lates {
		lates[i] = &lateHandler{}
		hs := httptest.NewServer(lates[i])
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
		addrs = append(addrs, strings.TrimPrefix(hs.URL, "http://"))
	}
	for i := range lates {
		s := New(Config{Self: addrs[i], Peers: addrs, CacheDir: t.TempDir()})
		if ws := s.Warnings(); len(ws) != 0 {
			t.Fatalf("node %d startup warnings: %v", i, ws)
		}
		lates[i].Set(s.Handler())
		srvs = append(srvs, s)
	}
	return srvs, urls, addrs
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// ownerOf resolves which cluster member the default-options compile
// key of src hashes to — the same routing the servers perform.
func ownerOf(t *testing.T, s *Server, src string, addrs []string) string {
	t.Helper()
	_, opt, err := s.resolve(&Request{Source: src}, false)
	if err != nil {
		t.Fatal(err)
	}
	key := ccache.KeyOfKind(src, opt, ccache.ArtifactIR)
	return store.NewRing(addrs).Owner(key)
}

// TestClusterPeerTierServesCompile warms the key's owner node, then
// asserts the other node serves the identical artifact from the peer
// tier and that both sides' metrics record the exchange.
func TestClusterPeerTierServesCompile(t *testing.T) {
	srvs, urls, addrs := newCluster(t, 2)
	src := heatSource(t)

	owner := ownerOf(t, srvs[0], src, addrs)
	oi := 0
	if addrs[1] == owner {
		oi = 1
	}
	other := 1 - oi

	var first, second RunResponse
	status, body := post(t, urls[oi]+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("owner run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Tier != "" {
		t.Errorf("owner's first compile should be a fresh miss: %+v", first.CompileResponse)
	}

	status, body = post(t, urls[other]+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("peer run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Tier != store.TierPeer {
		t.Errorf("non-owner should serve from the peer tier: cached=%t tier=%q", second.Cached, second.Tier)
	}
	if first.Key != second.Key {
		t.Errorf("keys diverged across nodes: %s vs %s", first.Key, second.Key)
	}
	if first.Output != second.Output || second.Output == "" {
		t.Errorf("peer-served output not bit-identical: %q vs %q", first.Output, second.Output)
	}
	if first.Plan != second.Plan || first.NestCount != second.NestCount {
		t.Errorf("peer-served metadata diverged: %+v vs %+v", first.CompileResponse, second.CompileResponse)
	}
	if st := srvs[other].CacheStats(); st.Misses != 0 || st.Hits != 1 {
		t.Errorf("non-owner compiled locally despite peer hit: %+v", st)
	}

	// The exchange is visible in both exposition endpoints.
	m := get(t, urls[other]+"/metrics")
	for _, want := range []string{
		`zpld_store_tier_hits_total{store="compile",tier="peer"} 1`,
		`zpld_peer_gets_total{peer="` + owner + `",outcome="hit"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("non-owner /metrics missing %q", want)
		}
	}
	om := get(t, urls[oi]+"/metrics")
	if !strings.Contains(om, `zpld_peer_served_gets_total{outcome="hit"} 1`) {
		t.Errorf("owner /metrics missing served-get hit:\n%s", om)
	}
}

// TestClusterComputeAtNonOwnerPublishesToOwner posts to the node that
// does NOT own the key: it must claim at the owner, compile locally,
// and publish the artifact so the owner serves it from memory next.
func TestClusterComputeAtNonOwnerPublishesToOwner(t *testing.T) {
	srvs, urls, addrs := newCluster(t, 2)
	src := heatSource(t)

	owner := ownerOf(t, srvs[0], src, addrs)
	oi := 0
	if addrs[1] == owner {
		oi = 1
	}
	other := 1 - oi

	var first, second CompileResponse
	status, body := post(t, urls[other]+"/compile", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("non-owner compile: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Errorf("non-owner's first compile should miss: %+v", first)
	}

	status, body = post(t, urls[oi]+"/compile", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("owner compile: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Tier != store.TierMem {
		t.Errorf("owner should hold the published artifact in memory: cached=%t tier=%q", second.Cached, second.Tier)
	}
	if st := srvs[oi].CacheStats(); st.Misses != 0 {
		t.Errorf("owner recompiled a published key: %+v", st)
	}

	m := get(t, urls[other]+"/metrics")
	for _, want := range []string{
		`zpld_peer_gets_total{peer="` + owner + `",outcome="miss"} 1`,
		`zpld_peer_puts_total{peer="` + owner + `",outcome="ok"} 1`,
		`zpld_peer_claims_total{peer="` + owner + `"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("non-owner /metrics missing %q", want)
		}
	}
	om := get(t, urls[oi]+"/metrics")
	if !strings.Contains(om, "zpld_peer_served_puts_total 1") {
		t.Errorf("owner /metrics missing served put:\n%s", om)
	}
}

// TestClusterTuneArtifactsTravel exercises tuned plans across the ring:
// they travel through the one store like compilations, and the second
// node must serve the identical result without searching again.
func TestClusterTuneArtifactsTravel(t *testing.T) {
	srvs, urls, _ := newCluster(t, 2)
	src := heatSource(t)
	req := TuneRequest{Source: src, MaxStates: 64}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	tunePost := func(url string) TuneResponse {
		t.Helper()
		resp, err := http.Post(url+"/tune", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tune: HTTP %d: %s", resp.StatusCode, out)
		}
		var tr TuneResponse
		if err := json.Unmarshal(out, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	first := tunePost(urls[0])
	second := tunePost(urls[1])
	if first.Key != second.Key {
		t.Errorf("tune keys diverged: %s vs %s", first.Key, second.Key)
	}
	if !second.Cached {
		t.Errorf("second node re-ran the search: %+v", second)
	}
	if string(first.Result) != string(second.Result) {
		t.Errorf("tune results not identical across nodes")
	}
	// Every search records the "tune" phase; the store's misses count
	// the same searches, since this cluster compiled nothing.
	var searches, misses int64
	for _, s := range srvs {
		searches += s.Metrics().Phases.Hist("tune").Snapshot().Count
		misses += s.CacheStats().Misses
	}
	if searches != 1 || misses != 1 {
		t.Errorf("cluster ran %d searches (%d store misses), want exactly 1", searches, misses)
	}
	// One of the two nodes served or fetched over the wire; the tier-hit
	// counter must have moved somewhere in the cluster.
	m := get(t, urls[0]+"/metrics") + get(t, urls[1]+"/metrics")
	if !strings.Contains(m, `zpld_store_tier_hits_total{store="compile",tier="mem"} 1`) &&
		!strings.Contains(m, `zpld_store_tier_hits_total{store="compile",tier="peer"} 1`) {
		t.Errorf("no tier hit recorded on either node")
	}
}

// TestClusterEndpoint checks the /cluster document on a clustered
// node: identity, membership, tier residency, and peer reachability.
func TestClusterEndpoint(t *testing.T) {
	_, urls, addrs := newCluster(t, 2)
	src := heatSource(t)
	if status, body := post(t, urls[0]+"/compile", Request{Source: src}); status != http.StatusOK {
		t.Fatalf("compile: HTTP %d: %s", status, body)
	}

	var cr ClusterResponse
	if err := json.Unmarshal([]byte(get(t, urls[0]+"/cluster")), &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Clustered || cr.Self != addrs[0] {
		t.Errorf("identity wrong: clustered=%t self=%q want %q", cr.Clustered, cr.Self, addrs[0])
	}
	if len(cr.Members) != 2 {
		t.Errorf("members = %v, want both nodes", cr.Members)
	}
	if len(cr.Peers) != 2 {
		t.Fatalf("peer rows = %d, want 2", len(cr.Peers))
	}
	for _, p := range cr.Peers {
		if !p.Reachable {
			t.Errorf("peer %s reported unreachable", p.Member)
		}
	}
	// The compile landed in some tier on this node (mem if computed
	// here, disk write-through if fetched) — /cluster must show it.
	mem, disk := cr.Tiers["mem"], cr.Tiers["disk"]
	if mem.Entries+disk.Entries == 0 {
		t.Errorf("no residency reported after a compile: %+v", cr.Tiers)
	}
	if _, ok := cr.Tiers["peer"]; !ok {
		t.Errorf("clustered node missing peer tier row: %+v", cr.Tiers)
	}

	// Unclustered servers still answer, with Clustered=false.
	_, ts := newTestServer(t, Config{})
	var ur ClusterResponse
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/cluster")), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Clustered || len(ur.Members) != 0 || len(ur.Peers) != 0 {
		t.Errorf("unclustered /cluster reports cluster state: %+v", ur)
	}
	resp, err := http.Post(ts.URL+"/cluster", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /cluster = %d, want 405", resp.StatusCode)
	}
}

// TestDiskTierSurvivesRestart rebuilds a server over the same cache
// directory and asserts the artifact is served from the disk tier with
// zero recompiles — the svc-level warm-restart guarantee.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	src := heatSource(t)

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	var first RunResponse
	status, body := post(t, ts1.URL+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if st := s1.CacheStats(); st.Misses != 1 {
		t.Fatalf("first server stats: %+v", st)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	var second RunResponse
	status, body = post(t, ts2.URL+"/run", Request{Source: src})
	if status != http.StatusOK {
		t.Fatalf("restarted run: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Tier != store.TierDisk {
		t.Errorf("restart should rehydrate from disk: cached=%t tier=%q", second.Cached, second.Tier)
	}
	if second.Output != first.Output {
		t.Errorf("rehydrated output diverged: %q vs %q", second.Output, first.Output)
	}
	if second.Plan != first.Plan || second.NestCount != first.NestCount || second.Arrays != first.Arrays {
		t.Errorf("rehydrated metadata diverged: %+v vs %+v", second.CompileResponse, first.CompileResponse)
	}
	if st := s2.CacheStats(); st.Misses != 0 {
		t.Errorf("restarted server recompiled: %+v", st)
	}

	m := get(t, ts2.URL+"/metrics")
	for _, want := range []string{
		`zpld_store_tier_hits_total{store="compile",tier="disk"} 1`,
		`zpld_store_tier_entries{store="shared",tier="disk"} `,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(get(t, ts2.URL+"/healthz"), "store mem=") {
		t.Errorf("/healthz missing store line")
	}
}
