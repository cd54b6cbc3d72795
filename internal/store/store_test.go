package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ccache"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/lir"
	"repro/internal/vm"
)

func heatSource(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// compileEntry builds a real cache entry the way the service does:
// compile, then keep the LIR plus serializable metadata.
func compileEntry(t *testing.T, src string, opt driver.Options, kind ccache.ArtifactKind) *ccache.Entry {
	t.Helper()
	comp, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return &ccache.Entry{
		Kind:   kind,
		Source: src,
		Comp:   comp,
		Meta: &ccache.Meta{
			NestCount:   len(comp.LIR.Main.Body),
			RemarksJSON: []byte(`[{"kind":"test"}]`),
		},
		Plan: "plan summary",
	}
}

func runVM(t *testing.T, e *ccache.Entry) string {
	t.Helper()
	var out bytes.Buffer
	if _, _, err := vm.Run(e.Comp.LIR, vm.Options{Out: &out}); err != nil {
		t.Fatalf("vm run: %v", err)
	}
	return out.String()
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0xff
	return out
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3"}
	r1 := NewRing(members)
	r2 := NewRing([]string{"c:3", "a:1", "b:2", "b:2"}) // shuffled + dup

	counts := map[string]int{}
	const n = 4096
	for i := 0; i < n; i++ {
		k := ccache.Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
		o := r1.Owner(k)
		if o2 := r2.Owner(k); o2 != o {
			t.Fatalf("owner differs across equivalent rings: %s vs %s", o, o2)
		}
		counts[o]++
	}
	for _, m := range members {
		if frac := float64(counts[m]) / n; frac < 0.15 {
			t.Errorf("member %s owns only %.1f%% of keys: %v", m, frac*100, counts)
		}
	}
	if len(counts) != 3 {
		t.Errorf("expected 3 owners, got %v", counts)
	}

	if o := NewRing(nil).Owner(ccache.Key{}); o != "" {
		t.Errorf("empty ring owner = %q, want \"\"", o)
	}
}

func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()
	src := heatSource(t)
	opt := driver.Options{Level: core.C1}
	k := ccache.KeyOf(src, opt)
	e := compileEntry(t, src, opt, ccache.ArtifactIR)
	e.Key = k
	want := runVM(t, e)

	d1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(k, e); err != nil {
		t.Fatal(err)
	}

	// A new process opens the same directory: the entry must be there,
	// fully executable, and the gauges must reflect it.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(k)
	if !ok {
		t.Fatal("entry lost across restart")
	}
	if out := runVM(t, got); out != want {
		t.Errorf("restart-rehydrated output differs:\nwant %q\ngot  %q", want, out)
	}
	st := d2.Stats()
	if st.Entries != 1 || st.Bytes == 0 || st.Hits != 1 {
		t.Errorf("restart stats off: %+v", st)
	}
}

func TestDiskCorruptionIsMissAndRepaired(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := heatSource(t)
	opt := driver.Options{}
	k := ccache.KeyOf(src, opt)
	e := compileEntry(t, src, opt, ccache.ArtifactIR)
	if err := d.Put(k, e); err != nil {
		t.Fatal(err)
	}

	// Bit-flip the file on disk.
	path := filepath.Join(dir, k.String()[:2], k.String()+diskExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt file not deleted")
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}

	// The next put repairs the slot.
	if err := d.Put(k, e); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(k); !ok {
		t.Error("repaired entry not served")
	}
}

// Two peers that both compiled a key both publish it to the owner, and
// Node.ServePut calls PutRaw outside any flight: writers of one key in
// one process must not share a temp file. With a pid-named temp the
// second writer truncated what the first was about to rename, a
// concurrent Get read the torn file and deleted the slot as corrupt,
// and the loser's rename failed.
func TestDiskConcurrentPutsOfOneKey(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	var putErr atomic.Value
	absent := 0
	aux := bytes.Repeat([]byte("ZA"), 1<<19) // a 1 MiB envelope: a write takes long enough to interleave
	for round := 0; round < 30; round++ {
		k := ccache.KeyOf(fmt.Sprintf("round %d", round), driver.Options{})
		raw, err := Encode(&ccache.Entry{Key: k, Kind: ccache.ArtifactTune, Aux: aux})
		if err != nil {
			t.Fatal(err)
		}
		var writers, readers sync.WaitGroup
		done := make(chan struct{})
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
						d.Get(k)
					}
				}
			}()
		}
		for w := 0; w < 8; w++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				if err := d.PutRaw(k, raw); err != nil {
					putErr.Store(err)
				}
			}()
		}
		writers.Wait()
		close(done)
		readers.Wait()
		if e, ok := d.Get(k); !ok || !bytes.Equal(e.Aux, aux) {
			absent++
		}
	}
	if absent != 0 {
		t.Errorf("key absent or undecodable after 8 concurrent puts in %d of 30 rounds", absent)
	}
	if st := d.Stats(); st.Errors != 0 || st.Corrupt != 0 {
		t.Errorf("%d I/O errors in 240 puts (the last: %v), %d files deleted as corrupt; want 0 and 0",
			st.Errors, putErr.Load(), st.Corrupt)
	}
	filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err == nil && strings.Contains(de.Name(), ".tmp") {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
}

// failCompute is a compute fn that must not run.
func failCompute(t *testing.T) func() (*ccache.Entry, error) {
	return func() (*ccache.Entry, error) {
		t.Error("compute ran; expected a tier hit")
		return nil, fmt.Errorf("unexpected compute")
	}
}

func TestTierPromotionOnDiskHit(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := heatSource(t)
	opt := driver.Options{}
	k := ccache.KeyOf(src, opt)
	e := compileEntry(t, src, opt, ccache.ArtifactIR)
	if err := d.Put(k, e); err != nil {
		t.Fatal(err)
	}

	ts := NewTiered(ccache.New(0), d, nil)
	ctx := context.Background()

	got, res, err := ts.GetOrCompute(ctx, k, failCompute(t))
	if err != nil || got == nil {
		t.Fatalf("disk-tier lookup failed: %v", err)
	}
	if res.Outcome != ccache.Hit || res.Tier != TierDisk {
		t.Errorf("first lookup = %v/%s, want hit/disk", res.Outcome, res.Tier)
	}

	// The hit must have promoted into the memory tier.
	_, res, err = ts.GetOrCompute(ctx, k, failCompute(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ccache.Hit || res.Tier != TierMem {
		t.Errorf("second lookup = %v/%s, want hit/mem", res.Outcome, res.Tier)
	}

	tier := ts.TierStats()
	if tier.DiskHits != 1 || tier.MemHits != 1 || tier.Misses != 0 {
		t.Errorf("tier stats off: %+v", tier)
	}
	if st := ts.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Errorf("aggregate stats off: %+v", st)
	}
}

func TestLRUEvictionNeverTouchesDiskTier(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := heatSource(t)
	// A memory tier too small for two entries forces eviction.
	e0 := compileEntry(t, src, driver.Options{}, ccache.ArtifactIR)
	mem := ccache.New(ccache.SizeOf(e0) + 1024)
	ts := NewTiered(mem, d, nil)
	ctx := context.Background()

	opts := []driver.Options{{Level: core.Baseline}, {Level: core.C2F3}}
	keys := make([]ccache.Key, len(opts))
	for i, opt := range opts {
		opt := opt
		keys[i] = ccache.KeyOf(src, opt)
		_, res, err := ts.GetOrCompute(ctx, keys[i], func() (*ccache.Entry, error) {
			return compileEntry(t, src, opt, ccache.ArtifactIR), nil
		})
		if err != nil || res.Outcome != ccache.Miss {
			t.Fatalf("seed %d: %v %v", i, res, err)
		}
	}

	if mem.Stats().Evictions == 0 {
		t.Fatal("memory tier did not evict; shrink the budget")
	}
	// Both entries must still be on disk — eviction is a memory-tier
	// affair — so re-requesting the evicted key is a disk hit, not a
	// recompile.
	if st := d.Stats(); st.Entries != 2 {
		t.Fatalf("disk entries = %d, want 2", st.Entries)
	}
	for i, k := range keys {
		_, res, err := ts.GetOrCompute(ctx, k, failCompute(t))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != ccache.Hit {
			t.Errorf("key %d after eviction: outcome %v, want hit", i, res.Outcome)
		}
	}
}

func TestKeySensitivityAcrossArtifactKinds(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(ccache.New(0), d, nil)
	ctx := context.Background()
	src := heatSource(t)
	opt := driver.Options{}

	kinds := []ccache.ArtifactKind{
		ccache.ArtifactIR, ccache.ArtifactNative, ccache.ArtifactTune, ccache.ArtifactLazy,
	}
	seen := map[ccache.Key]ccache.ArtifactKind{}
	for _, kind := range kinds {
		kind := kind
		k := ccache.KeyOfKind(src, opt, kind)
		if prev, dup := seen[k]; dup {
			t.Fatalf("kinds %s and %s share a key", prev, kind)
		}
		seen[k] = kind
		var e *ccache.Entry
		if kind == ccache.ArtifactTune {
			e = &ccache.Entry{Kind: kind, Source: src, Aux: []byte("tune-payload")}
		} else {
			e = compileEntry(t, src, opt, kind)
		}
		_, res, err := ts.GetOrCompute(ctx, k, func() (*ccache.Entry, error) { return e, nil })
		if err != nil || res.Outcome != ccache.Miss {
			t.Fatalf("%s: %v %v", kind, res, err)
		}
	}
	// Each kind resolves to its own artifact, from disk after a
	// restart-like fresh store over the same directory.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := NewTiered(ccache.New(0), d2, nil)
	for _, kind := range kinds {
		k := ccache.KeyOfKind(src, opt, kind)
		e, res, err := ts2.GetOrCompute(ctx, k, failCompute(t))
		if err != nil || res.Tier != TierDisk {
			t.Fatalf("%s: %v %v", kind, res, err)
		}
		if e.Kind != kind {
			t.Errorf("key for %s returned entry of kind %s", kind, e.Kind)
		}
		if kind == ccache.ArtifactTune && string(e.Aux) != "tune-payload" {
			t.Errorf("tune payload lost: %q", e.Aux)
		}
	}
}

func TestSingleflightAcrossTiers(t *testing.T) {
	ts := NewTiered(ccache.New(0), nil, nil)
	src := heatSource(t)
	k := ccache.KeyOf(src, driver.Options{})

	// A compute that panics reaches its caller and leaves the key free:
	// the callers below must not find a dead flight to wait on.
	func() {
		defer func() {
			var pe *flight.PanicError
			if r, _ := recover().(error); !errors.As(r, &pe) {
				t.Errorf("compute's panic did not reach its caller as a *flight.PanicError: %v", r)
			}
		}()
		ts.GetOrCompute(context.Background(), k, func() (*ccache.Entry, error) { panic("kaboom") })
	}()

	var computes atomic.Int64
	release := make(chan struct{})
	const callers = 20
	var wg sync.WaitGroup
	var started atomic.Int64
	outcomes := make([]ccache.Outcome, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Add(1)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, res, err := ts.GetOrCompute(ctx, k, func() (*ccache.Entry, error) {
				computes.Add(1)
				<-release // hold the flight open until all callers queue
				return compileEntry(t, src, driver.Options{}, ccache.ArtifactIR), nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = res.Outcome
		}()
	}
	// Every caller owns or joins the flight (a straggler that arrives
	// after it ended is a mem hit), then the compute is released.
	for started.Load() < callers {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1", n)
	}
	var miss, dedup, hit int
	for _, o := range outcomes {
		switch o {
		case ccache.Miss:
			miss++
		case ccache.Dedup:
			dedup++
		case ccache.Hit:
			hit++
		}
	}
	if miss != 1 || dedup+hit != callers-1 || dedup == 0 {
		t.Errorf("outcomes: %d miss, %d dedup, %d hit; want 1 leader and %d followers", miss, dedup, hit, callers-1)
	}
	st := ts.Stats()
	if st.Misses != 1 || st.DedupHits != int64(dedup) || st.Hits != int64(hit) {
		t.Errorf("stats disagree with outcomes: %+v", st)
	}
}

// testCluster wires n in-process nodes with real HTTP between them.
type testCluster struct {
	addrs  []string
	nodes  []*Node
	stores []*Tiered
}

func newTestCluster(t *testing.T, n int, waitCap time.Duration) *testCluster {
	t.Helper()
	c := &testCluster{}
	// Late-bound handlers: the servers must exist (to learn addresses)
	// before the nodes (which need the address list).
	handlers := make([]*http.ServeMux, n)
	for i := 0; i < n; i++ {
		mux := http.NewServeMux()
		handlers[i] = mux
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		c.addrs = append(c.addrs, strings.TrimPrefix(srv.URL, "http://"))
	}
	for i := 0; i < n; i++ {
		disk, err := OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(NodeConfig{
			Self:    c.addrs[i],
			Peers:   c.addrs,
			Disk:    disk,
			Timeout: 2 * time.Second,
			WaitCap: waitCap,
		})
		mem := ccache.New(0)
		node.RegisterLocal("compile", mem, nil)
		st := NewTiered(mem, disk, node)
		handlers[i].HandleFunc("/store/get", node.ServeGet)
		handlers[i].HandleFunc("/store/put", node.ServePut)
		handlers[i].HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		c.nodes = append(c.nodes, node)
		c.stores = append(c.stores, st)
	}
	return c
}

// TestClusterSingleflightExactlyOnce is the cross-node thundering
// herd: every node asks for the same cold key at once; the claim
// protocol must make the whole cluster compile it exactly once, and
// every node must end up with an executable, identical artifact.
func TestClusterSingleflightExactlyOnce(t *testing.T) {
	c := newTestCluster(t, 3, 10*time.Second)
	src := heatSource(t)
	opt := driver.Options{Level: core.C2}
	k := ccache.KeyOf(src, opt)

	var computes atomic.Int64
	outputs := make([]string, len(c.stores))
	var wg sync.WaitGroup
	for i, st := range c.stores {
		i, st := i, st
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _, err := st.GetOrCompute(context.Background(), k, func() (*ccache.Entry, error) {
				computes.Add(1)
				time.Sleep(100 * time.Millisecond) // widen the herd window
				return compileEntry(t, src, opt, ccache.ArtifactIR), nil
			})
			if err != nil {
				t.Errorf("node %d: %v", i, err)
				return
			}
			outputs[i] = runVM(t, e)
		}()
	}
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("cluster computes = %d, want exactly 1", n)
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("node %d output differs from node 0", i)
		}
	}
}

// TestClusterPeerHitAndWriteThrough: a key computed on its owner is a
// peer-tier hit from any other node, and the fetching node replicates
// it to its own disk for restart rehydration.
func TestClusterPeerHitAndWriteThrough(t *testing.T) {
	c := newTestCluster(t, 3, time.Second)
	src := heatSource(t)
	opt := driver.Options{Level: core.F1}
	k := ccache.KeyOf(src, opt)

	owner := c.nodes[0].Owner(k)
	ownerIdx, otherIdx := -1, -1
	for i, a := range c.addrs {
		if a == owner {
			ownerIdx = i
		} else if otherIdx < 0 {
			otherIdx = i
		}
	}
	if ownerIdx < 0 || otherIdx < 0 {
		t.Fatalf("degenerate ring: owner %q addrs %v", owner, c.addrs)
	}

	ctx := context.Background()
	if _, res, err := c.stores[ownerIdx].GetOrCompute(ctx, k, func() (*ccache.Entry, error) {
		return compileEntry(t, src, opt, ccache.ArtifactIR), nil
	}); err != nil || res.Outcome != ccache.Miss {
		t.Fatalf("owner seed: %v %v", res, err)
	}

	e, res, err := c.stores[otherIdx].GetOrCompute(ctx, k, failCompute(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != ccache.Hit || res.Tier != TierPeer {
		t.Errorf("non-owner lookup = %v/%s, want hit/peer", res.Outcome, res.Tier)
	}
	if e.Comp == nil || e.Comp.LIR == nil {
		t.Fatal("peer-fetched entry not executable")
	}
	// Write-through: the non-owner's own disk now holds the entry.
	if _, ok := c.stores[otherIdx].disk.Get(k); !ok {
		t.Error("peer fetch did not write through to local disk")
	}
	ps := c.nodes[otherIdx].Clients().Stats()
	if ps[owner].GetHits == 0 {
		t.Errorf("peer client stats recorded no hit: %+v", ps)
	}
	if ns := c.nodes[ownerIdx].Stats(); ns.ServedHits == 0 {
		t.Errorf("owner served no hits: %+v", ns)
	}
}

// TestDeadPeerDegradesToLocalCompile: a key owned by an unreachable
// member must still be served — by compiling locally — and must not
// error or hang.
func TestDeadPeerDegradesToLocalCompile(t *testing.T) {
	// A listener opened and closed yields an address that refuses
	// connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(NodeConfig{
		Self:    "127.0.0.1:1", // never dialed: only remote owners are
		Peers:   []string{deadAddr},
		Disk:    disk,
		Timeout: 200 * time.Millisecond,
		WaitCap: 200 * time.Millisecond,
	})
	mem := ccache.New(0)
	node.RegisterLocal("compile", mem, nil)
	ts := NewTiered(mem, disk, node)

	// Find a source variant whose key the dead peer owns.
	src := heatSource(t)
	opt := driver.Options{}
	var k ccache.Key
	owned := ""
	for i := 0; i < 64; i++ {
		variant := src + strings.Repeat("\n", i+1)
		k = ccache.KeyOf(variant, opt)
		if node.Owner(k) == deadAddr {
			owned = variant
			break
		}
	}
	if owned == "" {
		t.Fatal("no key routed to the dead peer in 64 tries")
	}

	start := time.Now()
	e, res, err := ts.GetOrCompute(context.Background(), k, func() (*ccache.Entry, error) {
		return compileEntry(t, owned, opt, ccache.ArtifactIR), nil
	})
	if err != nil || e == nil {
		t.Fatalf("dead peer produced a request error: %v", err)
	}
	if res.Outcome != ccache.Miss {
		t.Errorf("outcome = %v, want miss (local compile)", res.Outcome)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("degradation took %v; timeouts not bounding", elapsed)
	}
	ps := node.Clients().Stats()[deadAddr]
	if ps.GetErrors+ps.GetTimeouts == 0 && ps.PutErrors == 0 {
		t.Errorf("no failures recorded against dead peer: %+v", ps)
	}

	// Repeated failures trip the breaker; later calls skip the peer
	// and degrade immediately.
	for i := 0; i < breakerThreshold; i++ {
		node.Clients().Get(context.Background(), deadAddr, k, 0)
	}
	st := node.Clients().Stats()[deadAddr]
	if st.Tripped == 0 {
		t.Errorf("breaker never tripped: %+v", st)
	}
}

func TestClaimExpiry(t *testing.T) {
	node := NewNode(NodeConfig{Self: "a:1", ClaimTTL: time.Minute})
	now := time.Now()
	node.now = func() time.Time { return now }

	k := ccache.Key(sha256.Sum256([]byte("x")))
	if state, _ := node.tryClaim(k); state != ClaimGranted {
		t.Fatalf("first claim: %s", state)
	}
	if state, _ := node.tryClaim(k); state != ClaimBusy {
		t.Fatalf("second claim while live: %s", state)
	}
	// After the TTL, the dead claimant stops shielding the key.
	now = now.Add(2 * time.Minute)
	state, done := node.tryClaim(k)
	if state != ClaimGranted {
		t.Fatalf("claim after expiry: %s", state)
	}
	node.resolveClaim(k)
	select {
	case <-done:
	default:
		t.Error("resolve did not wake waiters")
	}
}

// v1Fixture is a genuine ZPLSTORE1 envelope (gob body), written by PR
// 24's parent for testdata/fig2.za at c2+f4, with its source, options
// and key.
func v1Fixture(t *testing.T) (raw []byte, src string, opt driver.Options, k ccache.Key) {
	t.Helper()
	raw, err := os.ReadFile("testdata/v1-fig2.zpe")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../testdata/fig2.za")
	if err != nil {
		t.Fatal(err)
	}
	src, opt = string(data), driver.Options{Level: core.C2F4}
	if !bytes.HasPrefix(raw, []byte("ZPLSTORE1\n")) {
		t.Fatal("fixture is not a v1 envelope")
	}
	return raw, src, opt, ccache.KeyOf(src, opt)
}

// TestDiskV1EnvelopeIsMissAndRewritten is the upgrade path of a
// -cache-dir written by an older zpld: a ZPLSTORE1 file is a miss, not
// an error; it is deleted, the key recompiles, and the slot holds a
// current envelope afterwards.
func TestDiskV1EnvelopeIsMissAndRewritten(t *testing.T) {
	raw, src, opt, k := v1Fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, k.String()[:2], k.String()+diskExt)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(ccache.New(0), d, nil)

	computes := 0
	e, res, err := ts.GetOrCompute(context.Background(), k, func() (*ccache.Entry, error) {
		computes++
		return compileEntry(t, src, opt, ccache.ArtifactIR), nil
	})
	if err != nil || e == nil {
		t.Fatalf("a v1 file produced a request error: %v", err)
	}
	if res.Outcome != ccache.Miss || computes != 1 {
		t.Errorf("outcome %v after %d computes, want one miss", res.Outcome, computes)
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Errors != 0 || st.Entries != 1 {
		t.Errorf("disk stats: %+v, want the v1 file counted corrupt and one entry resident", st)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(now, []byte(envMagic)) {
		t.Errorf("slot was not rewritten in the current format: %q", now[:len(envMagic)])
	}

	// A restart on the repaired directory is a disk hit.
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := NewTiered(ccache.New(0), d2, nil).GetOrCompute(context.Background(), k, failCompute(t))
	if err != nil || res.Tier != TierDisk {
		t.Fatalf("after the rewrite: %v %v", res, err)
	}
	if runVM(t, got) != runVM(t, e) {
		t.Error("rehydrated program output differs")
	}
}

// TestPeerAnsweringV1DegradesToLocalCompile: a cluster member still
// running the old format answers gets with ZPLSTORE1 bytes and refuses
// this node's puts. Both cost a local compile, never a request error.
func TestPeerAnsweringV1DegradesToLocalCompile(t *testing.T) {
	raw, src, opt, k := v1Fixture(t)
	var gets, puts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/store/get", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		w.Write(raw)
	})
	mux.HandleFunc("/store/put", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("claim") == "1" {
			fmt.Fprint(w, ClaimGranted)
			return
		}
		puts.Add(1)
		http.Error(w, "store: bad envelope magic", http.StatusBadRequest)
	})
	old := httptest.NewServer(mux)
	defer old.Close()
	oldAddr := strings.TrimPrefix(old.URL, "http://")

	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Find a key the old node owns (the ring holds this node too).
	node := NewNode(NodeConfig{Self: "127.0.0.1:1", Peers: []string{oldAddr}, Disk: disk, Timeout: 2 * time.Second})
	for node.Owner(k) != oldAddr {
		src += "\n"
		k = ccache.KeyOf(src, opt)
	}
	mem := ccache.New(0)
	node.RegisterLocal("compile", mem, nil)
	ts := NewTiered(mem, disk, node)

	e, res, err := ts.GetOrCompute(context.Background(), k, func() (*ccache.Entry, error) {
		return compileEntry(t, src, opt, ccache.ArtifactIR), nil
	})
	if err != nil || e == nil {
		t.Fatalf("a v1 peer produced a request error: %v", err)
	}
	if res.Outcome != ccache.Miss || res.Tier != "" {
		t.Errorf("served as %v/%q, want a local compile", res.Outcome, res.Tier)
	}
	if gets.Load() == 0 || puts.Load() == 0 {
		t.Errorf("old peer saw %d gets and %d puts; the test did not reach it", gets.Load(), puts.Load())
	}
	// The v1 bytes were not written through to this node's disk; the
	// local compile was.
	if got, ok := disk.Get(k); !ok || got.Comp == nil {
		t.Error("local compile did not reach the disk tier")
	}
	if st := disk.Stats(); st.Corrupt != 0 {
		t.Errorf("peer bytes reached the disk tier undecoded: %+v", st)
	}
}

// alienNode is an lir.Node the codec has no encoding for.
type alienNode struct{ *lir.Nest }

// TestEncodeErrorIsCounted: an entry that does not encode still answers
// its request and later ones from memory, reaches no lower tier, and is
// counted — it used to vanish silently.
func TestEncodeErrorIsCounted(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTiered(ccache.New(0), d, nil)
	src := heatSource(t)
	k := ccache.KeyOf(src, driver.Options{})
	ctx := context.Background()

	e, res, err := ts.GetOrCompute(ctx, k, func() (*ccache.Entry, error) {
		e := compileEntry(t, src, driver.Options{}, ccache.ArtifactIR)
		main := *e.Comp.LIR.Main
		main.Body = append([]lir.Node{alienNode{}}, main.Body...)
		lirCopy := *e.Comp.LIR
		lirCopy.Main, lirCopy.Procs = &main, map[string]*lir.Proc{"main": &main}
		e.Comp = &driver.Compilation{LIR: &lirCopy}
		return e, nil
	})
	if err != nil || e == nil || res.Outcome != ccache.Miss {
		t.Fatalf("compute with an unencodable entry: %v %v", res, err)
	}
	if _, err := Encode(e); err == nil || !strings.Contains(err.Error(), "alienNode") {
		t.Errorf("Encode error = %v, want one naming the node type", err)
	}
	if st := ts.TierStats(); st.EncodeErrors != 1 || st.Disk.Puts != 0 || st.Disk.Entries != 0 {
		t.Errorf("tier stats: EncodeErrors %d, disk %+v; want 1 and an untouched disk", st.EncodeErrors, st.Disk)
	}
	if _, res, err := ts.GetOrCompute(ctx, k, failCompute(t)); err != nil || res.Tier != TierMem {
		t.Errorf("second lookup = %v, %v; want a memory hit", res, err)
	}
}
