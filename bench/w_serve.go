package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccache"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/store"
	"repro/internal/svc"
)

// The serve workloads' request space: four templates at three sizes.
// Every class gets the same number of requests, so the mix (and with
// it every latency percentile) is the same under any seed; the seed
// decides the order and the trailer that makes each source unique.
var (
	serveTemplates = []string{"heat", "frac", "tomcatv", "fibro"}
	serveSizes     = []int64{16, 24, 32}
)

const (
	serveLevel = "c2+f4"
	// heat.za's own default; the hand kernel needs the same count.
	serveHeatSteps = 5
)

// request is one generated /run request and the reply it must get.
type request struct {
	body   []byte
	source string
	class  int // template × size, 0..serveClasses-1
	n      int64
	want   string
}

// serveClasses is the number of request classes.
var serveClasses = len(serveTemplates) * len(serveSizes)

// genRequests builds k requests (k a multiple of the class count) with
// pairwise different content addresses.
func genRequests(k int, seed int64, rng *rand.Rand) ([]request, error) {
	type class struct {
		src  string
		n    int64
		want string
	}
	var classes []class
	for _, t := range serveTemplates {
		for _, n := range serveSizes {
			c := class{n: n}
			if t == "heat" {
				c.src, c.want = heatSource, heatOutput(int(n), serveHeatSteps)
			} else {
				b, _ := programs.ByName(t)
				c.src = b.Source
				var err error
				if c.want, err = expected(t, n, false); err != nil {
					return nil, err
				}
			}
			classes = append(classes, c)
		}
	}
	reqs := make([]request, k)
	for i, j := range rng.Perm(k) {
		class := j % len(classes)
		c := classes[class]
		src := fmt.Sprintf("%s\n-- v%d.%d\n", c.src, seed, i)
		body, err := json.Marshal(svc.Request{Source: src, Level: serveLevel, Configs: map[string]int64{"n": c.n}})
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: body, source: src, class: class, n: c.n, want: c.want}
	}
	return reqs, nil
}

// classCount rounds a request count to a whole number per class.
func classCount(k int) int {
	if k < serveClasses {
		return serveClasses
	}
	return k / serveClasses * serveClasses
}

// node is one in-process zpld on a loopback listener.
type node struct {
	srv  *svc.Server
	addr string
	stop func()
}

// firstPort is where the nodes listen: node i on firstPort+i. A
// cluster routes a key to its owner by hashing the members' addresses,
// so with ports the kernel picks the owner of every key, and with it
// the split of the cold replies between the mem and peer tiers, would
// change from run to run. A port that is taken falls back to one the
// kernel picks: the run still works, only those two counts move.
const firstPort = 21731

// startNodes starts one server per cache directory. With more than one
// they form a cluster; the listeners are bound first because every
// member's Config needs every member's address.
func startNodes(cacheDirs []string) ([]*node, error) {
	var ls []net.Listener
	var addrs []string
	for i := range cacheDirs {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", firstPort+i))
		if err != nil {
			l, err = net.Listen("tcp", "127.0.0.1:0")
		}
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	var nodes []*node
	for i, dir := range cacheDirs {
		// Shutdown waits five seconds for a connection a peer dialled and
		// never used; nothing is in flight when a node is stopped here,
		// so the drain is cut short.
		cfg := svc.Config{CacheDir: dir, DrainTimeout: 250 * time.Millisecond}
		if len(cacheDirs) > 1 {
			cfg.Self, cfg.Peers = addrs[i], addrs
		}
		srv := svc.New(cfg)
		if ws := srv.Warnings(); len(ws) > 0 {
			return nil, fmt.Errorf("server %d degraded at start-up: %v", i, ws)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func(l net.Listener) {
			defer close(done)
			srv.ServeListener(ctx, l)
		}(ls[i])
		nodes = append(nodes, &node{srv: srv, addr: addrs[i], stop: func() { cancel(); <-done }})
	}
	return nodes, nil
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// job sends request req to node; a unit is a sequence of jobs one
// client performs in order.
type job struct{ req, node int }

// reply is what one job observed.
type reply struct {
	job
	ms    float64
	runMS float64
	tier  string
	key   string
}

// loadClients is the closed-loop client count: min(nproc, 2).
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// probeEvery is how many requests a client sends between two probes
// of the machine's speed: about ten milliseconds of traffic.
const probeEvery = 16

// drive runs the units on the closed-loop clients, each with its own
// keep-alive connection pool, and returns every reply plus the wall
// clock of the whole phase, both at reference speed: each client
// probes the machine's speed every probeEvery requests and scales the
// latencies in between by it. Failures are counted into r.
func drive(r *Result, tr *Tracer, speed *speedLog, phase string, nodes []*node, reqs []request, units [][]job) ([]reply, float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	mark := speed.len()
	start := time.Now()
	for c := 0; c < loadClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 2}
			defer tp.CloseIdleConnections()
			client := &http.Client{Transport: tp, Timeout: 60 * time.Second}
			var mine []reply
			var errs []error
			scaled := 0 // mine[:scaled] are already at reference speed
			before := probe()
			rescale := func() {
				after := probe()
				f := (before + after) / 2
				for i := scaled; i < len(mine); i++ {
					mine[i].ms, mine[i].runMS = mine[i].ms/f, mine[i].runMS/f
				}
				speed.add(before, after)
				scaled, before = len(mine), after
			}
			for {
				u := int(next.Add(1)) - 1
				if u >= len(units) {
					break
				}
				for _, j := range units[u] {
					rp, err := post(client, tr, phase, nodes[j.node].addr, reqs[j.req], j)
					if err != nil {
						errs = append(errs, err)
						continue
					}
					mine = append(mine, rp)
				}
				if len(mine)-scaled >= probeEvery {
					rescale()
				}
			}
			rescale()
			mu.Lock()
			out = append(out, mine...)
			for _, err := range errs {
				if errors.As(err, &errShed{}) {
					r.Values["svc.shed"]++
				}
				r.fail(1, "%s: %v", phase, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds() / speed.since(mark)
	for _, u := range units {
		r.Attempted += len(u)
	}
	for _, rp := range out {
		switch rp.tier {
		case "":
			r.Values["svc.tier_compile"]++
		case store.TierMem:
			r.Values["svc.tier_mem"]++
		case store.TierDisk:
			r.Values["svc.tier_disk"]++
		case store.TierPeer:
			r.Values["svc.tier_peer"]++
		}
	}
	return out, wall
}

// errShed marks a request the server refused (429 or 503).
type errShed struct{ status int }

func (e errShed) Error() string { return fmt.Sprintf("shed with HTTP %d", e.status) }

// post sends one request and checks the reply against its reference.
func post(client *http.Client, tr *Tracer, phase, addr string, rq request, j job) (reply, error) {
	sp := tr.Begin("svc.request."+phase, -1, j.req)
	defer tr.End(sp)
	t0 := time.Now()
	resp, err := client.Post("http://"+addr+"/run", "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		return reply{}, errShed{resp.StatusCode}
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
	}
	var rr svc.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return reply{}, err
	}
	if rr.Output != rq.want {
		return reply{}, fmt.Errorf("n=%d: output %q, reference %q", rq.n, rr.Output, rq.want)
	}
	return reply{job: j, ms: ms(d), runMS: rr.RunMS, tier: rr.Tier, key: rr.Key}, nil
}

// singles makes one single-job unit per request, all to one node
// chosen by nodeOf.
func singles(order []int, nodeOf func(i int) int) [][]job {
	units := make([][]job, len(order))
	for u, i := range order {
		units[u] = []job{{req: i, node: nodeOf(i)}}
	}
	return units
}

// latencies returns the latency of every reply whose tier is one of
// tiers (all replies when none is given).
func latencies(rs []reply, tiers ...string) []float64 {
	var out []float64
	for _, rp := range rs {
		if tierIn(rp.tier, tiers) {
			out = append(out, rp.ms)
		}
	}
	return out
}

func tierIn(tier string, tiers []string) bool {
	return len(tiers) == 0 || slices.Contains(tiers, tier)
}

// classLatency is a latency percentile of the request mix: the geomean
// over the request classes of each class's own percentile. The classes
// cost from 0.3 to 8 ms, so the percentile of the pooled samples would
// sit in a gap between two classes and jump with the smallest shift;
// per class it is the same rule as a geomean over cells.
func classLatency(reqs []request, rs []reply, pct float64, tiers ...string) float64 {
	by := make([][]float64, serveClasses)
	for _, rp := range rs {
		if tierIn(rp.tier, tiers) {
			c := reqs[rp.req].class
			by[c] = append(by[c], rp.ms)
		}
	}
	var ps []float64
	for _, xs := range by {
		if len(xs) > 0 {
			ps = append(ps, percentileOf(xs, pct))
		}
	}
	return geomean(ps)
}

// hotPhase runs passes over all keys, a fresh order each pass, and
// reports the hot metrics. Pass p sends key i to node (i+p) mod nodes.
func hotPhase(p params, r *Result, speed *speedLog, rng *rand.Rand, nodes []*node, reqs []request, passes int) {
	var all []reply
	var perSecond []float64
	for pass := 0; pass < passes; pass++ {
		pass := pass
		rs, wall := drive(r, p.tr, speed, "hot", nodes, reqs,
			singles(rng.Perm(len(reqs)), func(i int) int { return (i + pass) % len(nodes) }))
		all, perSecond = append(all, rs...), append(perSecond, float64(len(rs))/wall)
		betweenPasses()
	}
	r.timing("hot request ms (all classes pooled)", latencies(all))
	var over []float64
	for _, rp := range all {
		over = append(over, (rp.ms-rp.runMS)*1000)
	}
	r.Values["hot_ms_p50"] = classLatency(reqs, all, 50)
	r.Values["hot_ms_p90"] = classLatency(reqs, all, 90)
	r.Values["hot_req_per_s"] = median(perSecond)
	r.Values["svc.overhead_us"] = median(over)
	r.Values["op_ms_p50"], r.Values["ops_per_s"] = r.Values["hot_ms_p50"], r.Values["hot_req_per_s"]
	r.Notes = append(r.Notes, fmt.Sprintf("hot p99 (printed, not gated): %.4g ms", percentileOf(latencies(all), 99)))
}

// warmUp is the serve workloads' set-up: a short cold-then-hot burst
// against throwaway servers, which brings the runtime's heap, the HTTP
// stack and the loopback path to their steady state. It is cheap, so
// it is repeated and the median reported.
func warmUp(p params, r *Result, speed *speedLog, rng *rand.Rand, nodeCount int, reqs []request) (float64, error) {
	var times []float64
	warm := reqs
	if len(warm) > 96 {
		warm = warm[:96]
	}
	for rep := 0; rep < setupReps; rep++ {
		mark := speed.len()
		t0 := time.Now()
		var dirs []string
		for i := 0; i < nodeCount; i++ {
			d, err := p.mkdir("warm-cache")
			if err != nil {
				return 0, err
			}
			dirs = append(dirs, d)
		}
		nodes, err := startNodes(dirs)
		if err != nil {
			return 0, err
		}
		scratch := newResult("warm-up", p)
		for pass := 0; pass < 3; pass++ {
			pass := pass
			drive(scratch, nil, speed, "warm", nodes, warm,
				singles(rng.Perm(len(warm)), func(i int) int { return (i + pass) % nodeCount }))
		}
		times = append(times, time.Since(t0).Seconds()/speed.since(mark))
		stopNodes(nodes)
		r.Attempted += scratch.Attempted
		if scratch.Failed > 0 {
			r.fail(scratch.Failed, "warm-up: %v", scratch.Fails)
		}
	}
	return median(times), nil
}

// serverLayers reads the servers' own always-on phase histograms: the
// mean time per fresh compile (or per run) that each pipeline phase
// took inside the server.
func serverLayers(r *Result, servers []*svc.Server) {
	metricOf := map[string]string{"run": "vm.run_ms"}
	for phase, span := range phaseLayer {
		if metric, ok := spanMetric[span]; ok {
			metricOf[phase] = metric
		}
	}
	for phase, metric := range metricOf {
		var sum time.Duration
		var count int64
		for _, s := range servers {
			snap := s.Metrics().Phases.Hist(phase).Snapshot()
			sum, count = sum+snap.Sum, count+snap.Count
		}
		if count > 0 {
			r.Values[metric] = ms(sum) / float64(count)
		}
	}
}

// cacheHitRatio is hits over lookups across the given servers' caches.
func cacheHitRatio(servers []*svc.Server) float64 {
	var hits, lookups int64
	for _, s := range servers {
		st := s.CacheStats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// storeLayers times the store and cache layers directly, one call at a
// time, over the artifacts the workload itself produced: every key the
// servers compiled is read back from a node's disk tier, re-encoded,
// decoded, written to a fresh disk store, looked up in a memory cache
// and (in a cluster) fetched from its owner over the peer protocol.
func storeLayers(p params, r *Result, reqs []request, keys map[int]string, cacheDir string, nodes []*node) error {
	disk, err := store.OpenDisk(cacheDir)
	if err != nil {
		return err
	}
	outDir, err := p.mkdir("store-put")
	if err != nil {
		return err
	}
	out, err := store.OpenDisk(outDir)
	if err != nil {
		return err
	}
	mem := ccache.New(1 << 30)
	var addrs []string
	for _, n := range nodes {
		addrs = append(addrs, n.addr)
	}
	ring, peers := store.NewRing(addrs), store.NewPeers(0, 0)
	opt := driver.Options{Level: ladderEnds[1], Configs: map[string]int64{"n": 32}}

	timeOp := func(span string, op int, f func()) float64 {
		sp := p.tr.Begin(span, -1, op)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		p.tr.End(sp)
		return us(d)
	}
	var keyUS, getUS, encUS, decUS, dgetUS, dputUS, peerUS, envBytes []float64
	for i, hexKey := range keys {
		var k ccache.Key
		if raw, err := hex.DecodeString(hexKey); err != nil || len(raw) != len(k) {
			return fmt.Errorf("reply carried a malformed key %q", hexKey)
		} else {
			copy(k[:], raw)
		}
		keyUS = append(keyUS, timeOp("ccache.key", i, func() { ccache.KeyOf(reqs[i].source, opt) }))
		var e *ccache.Entry
		var ok bool
		t := timeOp("store.disk_get", i, func() { e, ok = disk.Get(k) })
		if len(nodes) > 1 {
			// The peer fetch is timed for every key; the disk tier of
			// one node only holds the keys that node stored.
			var raw []byte
			var got bool
			owner := ring.Owner(k)
			pt := timeOp("store.peer_get", i, func() { raw, got = peers.Get(context.Background(), owner, k, 0) })
			r.Attempted++
			if !got {
				r.fail(1, "peer get of %s from its owner %s missed", hexKey[:12], owner)
			} else {
				peerUS = append(peerUS, pt)
				if !ok {
					if e, err = store.Decode(raw); err != nil {
						return fmt.Errorf("decode peer envelope: %w", err)
					}
				}
			}
		}
		if ok {
			dgetUS = append(dgetUS, t)
		}
		if e == nil {
			continue
		}
		var raw []byte
		encUS = append(encUS, timeOp("store.encode", i, func() { raw, err = store.Encode(e) }))
		if err != nil {
			return fmt.Errorf("encode: %w", err)
		}
		envBytes = append(envBytes, float64(len(raw)))
		decUS = append(decUS, timeOp("store.decode", i, func() { _, err = store.Decode(raw) }))
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		dputUS = append(dputUS, timeOp("store.disk_put", i, func() { err = out.Put(k, e) }))
		if err != nil {
			return fmt.Errorf("disk put: %w", err)
		}
		mem.Put(k, e)
		getUS = append(getUS, timeOp("ccache.get", i, func() { _, ok = mem.Get(k) }))
		if !ok {
			return fmt.Errorf("memory cache lost key %s", hexKey[:12])
		}
	}
	r.Values["ccache.key_us"] = r.timing("ccache.KeyOf us", keyUS).P50
	r.Values["ccache.get_us"] = r.timing("ccache.Cache.Get us", getUS).P50
	r.Values["store.encode_us"] = r.timing("store.Encode us", encUS).P50
	r.Values["store.decode_us"] = r.timing("store.Decode us", decUS).P50
	r.Values["store.disk_get_us"] = r.timing("store.Disk.Get us", dgetUS).P50
	r.Values["store.disk_put_us"] = r.timing("store.Disk.Put us", dputUS).P50
	r.Values["store.envelope_bytes"] = summarize(envBytes).Mean
	if len(nodes) > 1 {
		r.Values["store.peer_get_us"] = r.timing("store.Peers.Get us", peerUS).P50
	}
	return nil
}

// keysOf maps request index to the content address its replies carried.
func keysOf(rs []reply) map[int]string {
	out := map[int]string{}
	for _, rp := range rs {
		out[rp.req] = rp.key
	}
	return out
}

// runServe1 is the serve-1node workload: one server with a disk tier,
// and one phase per tier. cold: every key once, each a full compile.
// disk: a new server on the same directory, every key once, each a
// disk-tier decode. hot: passes over the keys, each a memory hit.
func runServe1(p params) *Result {
	r := newResult("serve-1node", p)
	rng := rand.New(rand.NewSource(p.seed))
	k := classCount(p.scaled(900, 12))
	reqs, err := genRequests(k, p.seed, rng)
	if err != nil {
		return r.abort(err)
	}
	speed := &speedLog{}
	if r.Values["setup_s"], err = warmUp(p, r, speed, rng, 1, reqs); err != nil {
		return r.abort(err)
	}
	dir, err := p.mkdir("cache")
	if err != nil {
		return r.abort(err)
	}
	toOnly := func(int) int { return 0 }

	first, err := startNodes([]string{dir})
	if err != nil {
		return r.abort(err)
	}
	betweenPasses()
	cold, _ := drive(r, p.tr, speed, "cold", first, reqs, singles(rng.Perm(k), toOnly))
	stopNodes(first)

	second, err := startNodes([]string{dir})
	if err != nil {
		return r.abort(err)
	}
	defer stopNodes(second)
	betweenPasses()
	disk, _ := drive(r, p.tr, speed, "disk", second, reqs, singles(rng.Perm(k), toOnly))
	betweenPasses()
	hotPhase(p, r, speed, rng, second, reqs, p.scaled(9, 2))

	r.timing("cold request ms (fresh compile, pooled)", latencies(cold, ""))
	r.timing("disk request ms (tier disk, pooled)", latencies(disk, store.TierDisk))
	r.Values["cold_ms_p50"] = classLatency(reqs, cold, 50, "")
	r.Values["disk_ms_p50"] = classLatency(reqs, disk, 50, store.TierDisk)
	r.Values["alt_ms_p50"] = r.Values["cold_ms_p50"]
	servers := []*svc.Server{first[0].srv, second[0].srv}
	r.Values["ccache.hit_ratio"] = cacheHitRatio(servers)
	serverLayers(r, servers)
	if p.tr != nil {
		if err := storeLayers(p, r, reqs, keysOf(cold), dir, second); err != nil {
			r.Attempted++
			r.fail(1, "store layers: %v", err)
		}
	}
	speed.report(r)
	r.finish()
	return r
}

// runServe3 is the serve-3node workload: three clustered servers. In
// the cold phase every key is requested once at every node, key by
// key, starting at a node that rotates with the key; the first request
// compiles (at most once in the cluster) and the others travel the
// peer tier. The hot phase is round-robin over the nodes.
func runServe3(p params) *Result {
	const nodeCount = 3
	r := newResult("serve-3node", p)
	rng := rand.New(rand.NewSource(p.seed))
	k := classCount(p.scaled(540, 12))
	reqs, err := genRequests(k, p.seed, rng)
	if err != nil {
		return r.abort(err)
	}
	speed := &speedLog{}
	if r.Values["setup_s"], err = warmUp(p, r, speed, rng, nodeCount, reqs); err != nil {
		return r.abort(err)
	}
	var dirs []string
	for i := 0; i < nodeCount; i++ {
		d, err := p.mkdir("cache")
		if err != nil {
			return r.abort(err)
		}
		dirs = append(dirs, d)
	}
	nodes, err := startNodes(dirs)
	if err != nil {
		return r.abort(err)
	}
	defer stopNodes(nodes)

	units := make([][]job, k)
	for u, i := range rng.Perm(k) {
		for d := 0; d < nodeCount; d++ {
			units[u] = append(units[u], job{req: i, node: (i + d) % nodeCount})
		}
	}
	betweenPasses()
	cold, _ := drive(r, p.tr, speed, "cold", nodes, reqs, units)
	betweenPasses()
	hotPhase(p, r, speed, rng, nodes, reqs, p.scaled(6, 2))

	r.timing("cold request ms (fresh compile, pooled)", latencies(cold, ""))
	r.timing("peer request ms (tier peer, pooled)", latencies(cold, store.TierPeer))
	r.Values["cold_ms_p50"] = classLatency(reqs, cold, 50, "")
	r.Values["peer_ms_p50"] = classLatency(reqs, cold, 50, store.TierPeer)
	r.Values["alt_ms_p50"] = r.Values["cold_ms_p50"]
	var servers []*svc.Server
	var compiles int64
	for _, n := range nodes {
		servers = append(servers, n.srv)
		compiles += n.srv.CacheStats().Misses
	}
	r.Values["svc.compiles_per_key"] = float64(compiles) / float64(k)
	r.Values["ccache.hit_ratio"] = cacheHitRatio(servers)
	serverLayers(r, servers)
	if p.tr != nil {
		if err := storeLayers(p, r, reqs, keysOf(cold), dirs[0], nodes); err != nil {
			r.Attempted++
			r.fail(1, "store layers: %v", err)
		}
	}
	speed.report(r)
	r.finish()
	return r
}
