package svc

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/absint"
	"repro/internal/ccache"
	"repro/internal/lint"
	"repro/internal/mhp"
	"repro/internal/phase"
	"repro/internal/remark"
	"repro/internal/store"
)

// Metrics aggregates the service's counters and latency histograms and
// renders them in the Prometheus text exposition format (no external
// dependency; the format is three line shapes).
//
// Pipeline phases land in Phases via driver hooks ("parse", "sema",
// "lower", "comm", "asdg", "fusion", "contraction", "scalarize",
// "check") plus the service's own "run", "gogen", "backend_build",
// and "tune" phases; whole requests land in per-endpoint histograms.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]int64 // "endpoint|status" -> count
	tunes    int64            // /tune requests accepted for processing
	inflight int64
	rejected int64            // queue-depth 429s
	drained  int64            // requests refused because the server is draining
	panics   int64            // requests whose work panicked (answered 500 internal)
	lints    map[string]int64 // lint findings per severity ("rule|severity")
	remarks  map[string]int64 // optimization remarks per kind
	bounds   map[string]int64 // prover sites per verdict (proven|unknown|unsafe)
	races    map[string]int64 // race-analyzer pairs per verdict
	deadlock int64            // race-analyzer deadlock findings

	backendBuilds map[string]int64 // native artifact builds per outcome (hit|miss|error)
	backendRuns   map[string]int64 // native executions ("backend|outcome")

	Phases  *phase.Collector // per-phase compile/run latencies
	byRoute *phase.Collector // whole-request latencies per endpoint
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests:      map[string]int64{},
		lints:         map[string]int64{},
		remarks:       map[string]int64{},
		bounds:        map[string]int64{},
		races:         map[string]int64{},
		backendBuilds: map[string]int64{},
		backendRuns:   map[string]int64{},
		Phases:        phase.NewCollector(),
		byRoute:       phase.NewCollector(),
	}
}

// Request records one finished request.
func (m *Metrics) Request(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", endpoint, status)]++
	m.mu.Unlock()
	m.byRoute.Observe(endpoint, d)
}

// IncInflight/DecInflight track the number of requests between
// admission and response.
func (m *Metrics) IncInflight() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

func (m *Metrics) DecInflight() {
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
}

// TuneRequest counts one /tune request admitted past the method and
// body checks (zpld_tune_requests_total).
func (m *Metrics) TuneRequest() {
	m.mu.Lock()
	m.tunes++
	m.mu.Unlock()
}

// Rejected counts a queue-depth rejection (HTTP 429).
func (m *Metrics) Rejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// Lint counts one lint run's findings, labelled by rule and severity.
func (m *Metrics) Lint(findings []lint.Finding) {
	m.mu.Lock()
	for _, f := range findings {
		m.lints[fmt.Sprintf("%s|%s", f.Rule, f.Severity)]++
	}
	m.mu.Unlock()
}

// Bounds counts one fresh compilation's prover sites by verdict —
// zpld_bounds_sites_total. Like Remarks, it is recorded only on cache
// misses so hits do not multiply the census by request rate.
func (m *Metrics) Bounds(r *absint.Result) {
	m.mu.Lock()
	m.bounds["proven"] += int64(r.NumProven)
	m.bounds["unknown"] += int64(r.NumUnknown)
	m.bounds["unsafe"] += int64(r.NumUnsafe)
	m.mu.Unlock()
}

// Races counts one fresh distributed compilation's happens-before
// pairs by verdict — zpld_race_pairs_total{verdict} — plus its
// deadlock findings. Recorded only on cache misses, like Bounds.
func (m *Metrics) Races(r *mhp.Result) {
	m.mu.Lock()
	m.races["proven-ordered"] += int64(r.NumOrdered)
	m.races["race"] += int64(r.NumRace)
	m.races["unknown"] += int64(r.NumUnknown)
	m.deadlock += int64(len(r.Deadlocks))
	m.mu.Unlock()
}

// Remarks counts one fresh compilation's optimization remarks by kind.
func (m *Metrics) Remarks(counts map[remark.Kind]int) {
	m.mu.Lock()
	for k, n := range counts {
		m.remarks[string(k)] += int64(n)
	}
	m.mu.Unlock()
}

// BackendBuild counts one native-artifact build by outcome: "hit"
// (binary already in the store), "miss" (toolchain invoked), or
// "error" (the build failed) — zpld_backend_builds_total.
func (m *Metrics) BackendBuild(outcome string) {
	m.mu.Lock()
	m.backendBuilds[outcome]++
	m.mu.Unlock()
}

// BackendRun counts one native execution by backend and outcome —
// zpld_backend_runs_total.
func (m *Metrics) BackendRun(backend string, ok bool) {
	outcome := "error"
	if ok {
		outcome = "ok"
	}
	m.mu.Lock()
	m.backendRuns[backend+"|"+outcome]++
	m.mu.Unlock()
}

// Drained counts a request refused during shutdown (HTTP 503).
func (m *Metrics) Drained() {
	m.mu.Lock()
	m.drained++
	m.mu.Unlock()
}

// Panicked counts a request whose work panicked (zpld_panics_total).
func (m *Metrics) Panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// Render emits the registry plus the counters of the compilation
// cache (cs) and the tuned-plan cache (ts).
func (m *Metrics) Render(cs, ts ccache.Stats) string {
	var b strings.Builder

	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("# TYPE zpld_requests_total counter\n")
	for _, k := range keys {
		ep, status, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "zpld_requests_total{endpoint=%q,code=%q} %d\n", ep, status, m.requests[k])
	}
	fmt.Fprintf(&b, "# TYPE zpld_tune_requests_total counter\nzpld_tune_requests_total %d\n", m.tunes)
	fmt.Fprintf(&b, "# TYPE zpld_inflight gauge\nzpld_inflight %d\n", m.inflight)
	fmt.Fprintf(&b, "# TYPE zpld_queue_rejections_total counter\nzpld_queue_rejections_total %d\n", m.rejected)
	fmt.Fprintf(&b, "# TYPE zpld_drain_rejections_total counter\nzpld_drain_rejections_total %d\n", m.drained)
	fmt.Fprintf(&b, "# TYPE zpld_panics_total counter\nzpld_panics_total %d\n", m.panics)
	if len(m.lints) > 0 {
		lk := make([]string, 0, len(m.lints))
		for k := range m.lints {
			lk = append(lk, k)
		}
		sort.Strings(lk)
		b.WriteString("# TYPE zpld_lint_findings_total counter\n")
		for _, k := range lk {
			rule, sev, _ := strings.Cut(k, "|")
			fmt.Fprintf(&b, "zpld_lint_findings_total{rule=%q,severity=%q} %d\n", rule, sev, m.lints[k])
		}
	}
	if len(m.remarks) > 0 {
		rk := make([]string, 0, len(m.remarks))
		for k := range m.remarks {
			rk = append(rk, k)
		}
		sort.Strings(rk)
		b.WriteString("# TYPE zpld_remarks_total counter\n")
		for _, k := range rk {
			fmt.Fprintf(&b, "zpld_remarks_total{kind=%q} %d\n", k, m.remarks[k])
		}
	}
	if len(m.bounds) > 0 {
		bk := make([]string, 0, len(m.bounds))
		for k := range m.bounds {
			bk = append(bk, k)
		}
		sort.Strings(bk)
		b.WriteString("# TYPE zpld_bounds_sites_total counter\n")
		for _, k := range bk {
			fmt.Fprintf(&b, "zpld_bounds_sites_total{verdict=%q} %d\n", k, m.bounds[k])
		}
	}
	if len(m.races) > 0 {
		rk := make([]string, 0, len(m.races))
		for k := range m.races {
			rk = append(rk, k)
		}
		sort.Strings(rk)
		b.WriteString("# TYPE zpld_race_pairs_total counter\n")
		for _, k := range rk {
			fmt.Fprintf(&b, "zpld_race_pairs_total{verdict=%q} %d\n", k, m.races[k])
		}
		fmt.Fprintf(&b, "# TYPE zpld_race_deadlocks_total counter\nzpld_race_deadlocks_total %d\n", m.deadlock)
	}
	if len(m.backendBuilds) > 0 {
		bk := make([]string, 0, len(m.backendBuilds))
		for k := range m.backendBuilds {
			bk = append(bk, k)
		}
		sort.Strings(bk)
		b.WriteString("# TYPE zpld_backend_builds_total counter\n")
		for _, k := range bk {
			fmt.Fprintf(&b, "zpld_backend_builds_total{outcome=%q} %d\n", k, m.backendBuilds[k])
		}
	}
	if len(m.backendRuns) > 0 {
		bk := make([]string, 0, len(m.backendRuns))
		for k := range m.backendRuns {
			bk = append(bk, k)
		}
		sort.Strings(bk)
		b.WriteString("# TYPE zpld_backend_runs_total counter\n")
		for _, k := range bk {
			be, outcome, _ := strings.Cut(k, "|")
			fmt.Fprintf(&b, "zpld_backend_runs_total{backend=%q,outcome=%q} %d\n", be, outcome, m.backendRuns[k])
		}
	}
	m.mu.Unlock()

	fmt.Fprintf(&b, "# TYPE zpld_cache_hits_total counter\nzpld_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(&b, "# TYPE zpld_cache_misses_total counter\nzpld_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(&b, "# TYPE zpld_cache_dedup_hits_total counter\nzpld_cache_dedup_hits_total %d\n", cs.DedupHits)
	fmt.Fprintf(&b, "# TYPE zpld_cache_evictions_total counter\nzpld_cache_evictions_total %d\n", cs.Evictions)
	fmt.Fprintf(&b, "# TYPE zpld_cache_too_large_total counter\nzpld_cache_too_large_total %d\n", cs.TooLarge)
	fmt.Fprintf(&b, "# TYPE zpld_cache_bytes gauge\nzpld_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(&b, "# TYPE zpld_cache_entries gauge\nzpld_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(&b, "# TYPE zpld_cache_max_bytes gauge\nzpld_cache_max_bytes %d\n", cs.MaxBytes)

	fmt.Fprintf(&b, "# TYPE zpld_tune_cache_hits_total counter\nzpld_tune_cache_hits_total %d\n", ts.Hits)
	fmt.Fprintf(&b, "# TYPE zpld_tune_cache_misses_total counter\nzpld_tune_cache_misses_total %d\n", ts.Misses)
	fmt.Fprintf(&b, "# TYPE zpld_tune_cache_dedup_hits_total counter\nzpld_tune_cache_dedup_hits_total %d\n", ts.DedupHits)
	fmt.Fprintf(&b, "# TYPE zpld_tune_cache_evictions_total counter\nzpld_tune_cache_evictions_total %d\n", ts.Evictions)
	fmt.Fprintf(&b, "# TYPE zpld_tune_cache_bytes gauge\nzpld_tune_cache_bytes %d\n", ts.Bytes)
	fmt.Fprintf(&b, "# TYPE zpld_tune_cache_entries gauge\nzpld_tune_cache_entries %d\n", ts.Entries)

	renderHistograms(&b, "zpld_phase_seconds", "phase", m.Phases)
	renderHistograms(&b, "zpld_request_seconds", "endpoint", m.byRoute)
	return b.String()
}

// RenderStoreMetrics emits the tiered-store families: per-tier hits
// and residency for the compilation store (cs) and the tuned-plan
// store (ts), plus the peer-protocol counters when clustered. It is
// rendered after Render in /metrics; the classic zpld_cache_* families
// above stay aggregate for dashboard continuity.
func RenderStoreMetrics(cs, ts store.TierStats, node *store.Node) string {
	var b strings.Builder

	b.WriteString("# TYPE zpld_store_tier_hits_total counter\n")
	for _, t := range []struct {
		tier string
		c, t int64
	}{
		{store.TierMem, cs.MemHits, ts.MemHits},
		{store.TierDisk, cs.DiskHits, ts.DiskHits},
		{store.TierPeer, cs.PeerHits, ts.PeerHits},
	} {
		fmt.Fprintf(&b, "zpld_store_tier_hits_total{store=\"compile\",tier=%q} %d\n", t.tier, t.c)
		fmt.Fprintf(&b, "zpld_store_tier_hits_total{store=\"tune\",tier=%q} %d\n", t.tier, t.t)
	}

	// The disk tier is shared between the two stores; report it once
	// under the compile store's snapshot.
	b.WriteString("# TYPE zpld_store_tier_entries gauge\n")
	fmt.Fprintf(&b, "zpld_store_tier_entries{store=\"compile\",tier=\"mem\"} %d\n", cs.Mem.Entries)
	fmt.Fprintf(&b, "zpld_store_tier_entries{store=\"tune\",tier=\"mem\"} %d\n", ts.Mem.Entries)
	fmt.Fprintf(&b, "zpld_store_tier_entries{store=\"shared\",tier=\"disk\"} %d\n", cs.Disk.Entries)
	b.WriteString("# TYPE zpld_store_tier_bytes gauge\n")
	fmt.Fprintf(&b, "zpld_store_tier_bytes{store=\"compile\",tier=\"mem\"} %d\n", cs.Mem.Bytes)
	fmt.Fprintf(&b, "zpld_store_tier_bytes{store=\"tune\",tier=\"mem\"} %d\n", ts.Mem.Bytes)
	fmt.Fprintf(&b, "zpld_store_tier_bytes{store=\"shared\",tier=\"disk\"} %d\n", cs.Disk.Bytes)
	fmt.Fprintf(&b, "# TYPE zpld_store_disk_corrupt_total counter\nzpld_store_disk_corrupt_total %d\n", cs.Disk.Corrupt)
	fmt.Fprintf(&b, "# TYPE zpld_store_disk_errors_total counter\nzpld_store_disk_errors_total %d\n", cs.Disk.Errors)

	if node == nil {
		return b.String()
	}

	// Peer-protocol counters: the client side per peer, then the
	// served (server) side in aggregate.
	peers := node.Clients().Stats()
	names := make([]string, 0, len(peers))
	for n := range peers {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("# TYPE zpld_peer_gets_total counter\n")
		for _, n := range names {
			p := peers[n]
			fmt.Fprintf(&b, "zpld_peer_gets_total{peer=%q,outcome=\"hit\"} %d\n", n, p.GetHits)
			fmt.Fprintf(&b, "zpld_peer_gets_total{peer=%q,outcome=\"miss\"} %d\n", n, p.GetMisses)
			fmt.Fprintf(&b, "zpld_peer_gets_total{peer=%q,outcome=\"timeout\"} %d\n", n, p.GetTimeouts)
			fmt.Fprintf(&b, "zpld_peer_gets_total{peer=%q,outcome=\"error\"} %d\n", n, p.GetErrors)
		}
		b.WriteString("# TYPE zpld_peer_puts_total counter\n")
		for _, n := range names {
			p := peers[n]
			fmt.Fprintf(&b, "zpld_peer_puts_total{peer=%q,outcome=\"ok\"} %d\n", n, p.Puts)
			fmt.Fprintf(&b, "zpld_peer_puts_total{peer=%q,outcome=\"error\"} %d\n", n, p.PutErrors)
		}
		b.WriteString("# TYPE zpld_peer_claims_total counter\n")
		for _, n := range names {
			fmt.Fprintf(&b, "zpld_peer_claims_total{peer=%q} %d\n", n, peers[n].Claims)
		}
		b.WriteString("# TYPE zpld_peer_breaker_trips_total counter\n")
		for _, n := range names {
			fmt.Fprintf(&b, "zpld_peer_breaker_trips_total{peer=%q} %d\n", n, peers[n].Tripped)
		}
	}
	ns := node.Stats()
	fmt.Fprintf(&b, "# TYPE zpld_peer_served_gets_total counter\n")
	fmt.Fprintf(&b, "zpld_peer_served_gets_total{outcome=\"hit\"} %d\n", ns.ServedHits)
	fmt.Fprintf(&b, "zpld_peer_served_gets_total{outcome=\"miss\"} %d\n", ns.ServedMisses)
	fmt.Fprintf(&b, "# TYPE zpld_peer_served_puts_total counter\nzpld_peer_served_puts_total %d\n", ns.ServedPuts)
	fmt.Fprintf(&b, "# TYPE zpld_peer_served_claims_total counter\nzpld_peer_served_claims_total %d\n", ns.ServedClaims)
	return b.String()
}

// renderHistograms emits one Prometheus histogram family per collector
// entry, with cumulative buckets in seconds.
func renderHistograms(b *strings.Builder, family, label string, c *phase.Collector) {
	names := c.Names()
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(b, "# TYPE %s histogram\n", family)
	for _, n := range names {
		s := c.Hist(n).Snapshot()
		var cum int64
		for i := 0; i < phase.NumBuckets; i++ {
			cum += s.Buckets[i]
			le := "+Inf"
			if i < phase.NumBuckets-1 {
				le = fmt.Sprintf("%g", phase.Boundary(i).Seconds())
			}
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", family, label, n, le, cum)
		}
		fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", family, label, n, s.Sum.Seconds())
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", family, label, n, s.Count)
	}
}
