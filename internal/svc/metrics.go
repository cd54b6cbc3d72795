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
// Pipeline phases land in Phases under the names driver.Hooks lists,
// plus the service's own "run", "gogen", "backend_build" and "tune";
// whole requests land in per-endpoint histograms.
type Metrics struct {
	mu sync.Mutex
	// counts is every counter and gauge: family name -> the series'
	// label values joined by "|" ("" when the family has none) -> value.
	counts map[string]map[string]int64

	Phases  *phase.Collector // per-phase compile/run latencies
	byRoute *phase.Collector // whole-request latencies per endpoint
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counts:  map[string]map[string]int64{},
		Phases:  phase.NewCollector(),
		byRoute: phase.NewCollector(),
	}
}

// delta is an increment of one series of counts.
type delta struct {
	family, key string
	n           int64
}

// add applies the deltas under one lock, so a reading never sees half
// of one recording.
func (m *Metrics) add(ds ...delta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range ds {
		if m.counts[d.family] == nil {
			m.counts[d.family] = map[string]int64{}
		}
		m.counts[d.family][d.key] += d.n
	}
}

// Request records one finished request.
func (m *Metrics) Request(endpoint string, status int, d time.Duration) {
	m.add(delta{"zpld_requests_total", fmt.Sprintf("%s|%d", endpoint, status), 1})
	m.byRoute.Observe(endpoint, d)
}

// IncInflight/DecInflight track the number of requests between
// admission and response.
func (m *Metrics) IncInflight() { m.add(delta{"zpld_inflight", "", 1}) }
func (m *Metrics) DecInflight() { m.add(delta{"zpld_inflight", "", -1}) }

// TuneRequest counts one /tune request admitted past the method and
// body checks.
func (m *Metrics) TuneRequest() { m.add(delta{"zpld_tune_requests_total", "", 1}) }

// Rejected counts a queue-depth rejection (HTTP 429).
func (m *Metrics) Rejected() { m.add(delta{"zpld_queue_rejections_total", "", 1}) }

// Drained counts a request refused during shutdown (HTTP 503).
func (m *Metrics) Drained() { m.add(delta{"zpld_drain_rejections_total", "", 1}) }

// Panicked counts a request whose work panicked (answered 500 internal).
func (m *Metrics) Panicked() { m.add(delta{"zpld_panics_total", "", 1}) }

// Lint counts one lint run's findings, labelled by rule and severity.
func (m *Metrics) Lint(findings []lint.Finding) {
	ds := make([]delta, len(findings))
	for i, f := range findings {
		ds[i] = delta{"zpld_lint_findings_total", fmt.Sprintf("%s|%s", f.Rule, f.Severity), 1}
	}
	m.add(ds...)
}

// Bounds counts one fresh compilation's prover sites by verdict. Like
// Remarks, it is recorded only on cache misses so hits do not multiply
// the census by request rate.
func (m *Metrics) Bounds(r *absint.Result) {
	m.add(delta{"zpld_bounds_sites_total", "proven", int64(r.NumProven)},
		delta{"zpld_bounds_sites_total", "unknown", int64(r.NumUnknown)},
		delta{"zpld_bounds_sites_total", "unsafe", int64(r.NumUnsafe)})
}

// Races counts one fresh distributed compilation's happens-before
// pairs by verdict, plus its deadlock findings. Recorded only on cache
// misses, like Bounds.
func (m *Metrics) Races(r *mhp.Result) {
	m.add(delta{"zpld_race_pairs_total", "proven-ordered", int64(r.NumOrdered)},
		delta{"zpld_race_pairs_total", "race", int64(r.NumRace)},
		delta{"zpld_race_pairs_total", "unknown", int64(r.NumUnknown)},
		delta{"zpld_race_deadlocks_total", "", int64(len(r.Deadlocks))})
}

// Remarks counts one fresh compilation's optimization remarks by kind.
func (m *Metrics) Remarks(counts map[remark.Kind]int) {
	ds := make([]delta, 0, len(counts))
	for k, n := range counts {
		ds = append(ds, delta{"zpld_remarks_total", string(k), int64(n)})
	}
	m.add(ds...)
}

// BackendBuild counts one native-artifact build by outcome: "hit"
// (binary already in the store), "miss" (toolchain invoked), or
// "error" (the build failed).
func (m *Metrics) BackendBuild(outcome string) { m.add(delta{"zpld_backend_builds_total", outcome, 1}) }

// BackendRun counts one native execution by backend and outcome.
func (m *Metrics) BackendRun(backend string, ok bool) {
	outcome := "error"
	if ok {
		outcome = "ok"
	}
	m.add(delta{"zpld_backend_runs_total", backend + "|" + outcome, 1})
}

// scalar renders a family of one unlabelled series.
func scalar(b *strings.Builder, name, kind string, v int64) {
	fmt.Fprintf(b, "# TYPE %s %s\n%s %d\n", name, kind, name, v)
}

// family renders a labelled counter family once it has a series — in
// key order, one label per "|"-separated part of the key — and reports
// whether it did. The caller holds mu.
func (m *Metrics) family(b *strings.Builder, name string, labels ...string) bool {
	keys := make([]string, 0, len(m.counts[name]))
	for k := range m.counts[name] {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return false
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "# TYPE %s counter\n", name)
	for _, k := range keys {
		b.WriteString(name)
		sep := "{"
		for i, v := range strings.SplitN(k, "|", len(labels)) {
			fmt.Fprintf(b, "%s%s=%q", sep, labels[i], v)
			sep = ","
		}
		fmt.Fprintf(b, "} %d\n", m.counts[name][k])
	}
	return true
}

// Render emits the registry plus the counters of the store (cs), which
// holds compilations and tuned plans alike.
func (m *Metrics) Render(cs ccache.Stats) string {
	var b strings.Builder

	m.mu.Lock()
	if !m.family(&b, "zpld_requests_total", "endpoint", "code") {
		b.WriteString("# TYPE zpld_requests_total counter\n") // alone in being announced before its first series
	}
	scalar(&b, "zpld_tune_requests_total", "counter", m.counts["zpld_tune_requests_total"][""])
	scalar(&b, "zpld_inflight", "gauge", m.counts["zpld_inflight"][""])
	scalar(&b, "zpld_queue_rejections_total", "counter", m.counts["zpld_queue_rejections_total"][""])
	scalar(&b, "zpld_drain_rejections_total", "counter", m.counts["zpld_drain_rejections_total"][""])
	scalar(&b, "zpld_panics_total", "counter", m.counts["zpld_panics_total"][""])
	m.family(&b, "zpld_lint_findings_total", "rule", "severity")
	m.family(&b, "zpld_remarks_total", "kind")
	m.family(&b, "zpld_bounds_sites_total", "verdict")
	if m.family(&b, "zpld_race_pairs_total", "verdict") {
		scalar(&b, "zpld_race_deadlocks_total", "counter", m.counts["zpld_race_deadlocks_total"][""])
	}
	m.family(&b, "zpld_backend_builds_total", "outcome")
	m.family(&b, "zpld_backend_runs_total", "backend", "outcome")
	m.mu.Unlock()

	scalar(&b, "zpld_cache_hits_total", "counter", cs.Hits)
	scalar(&b, "zpld_cache_misses_total", "counter", cs.Misses)
	scalar(&b, "zpld_cache_dedup_hits_total", "counter", cs.DedupHits)
	scalar(&b, "zpld_cache_evictions_total", "counter", cs.Evictions)
	scalar(&b, "zpld_cache_too_large_total", "counter", cs.TooLarge)
	scalar(&b, "zpld_cache_bytes", "gauge", cs.Bytes)
	scalar(&b, "zpld_cache_entries", "gauge", cs.Entries)
	scalar(&b, "zpld_cache_max_bytes", "gauge", cs.MaxBytes)

	renderHistograms(&b, "zpld_phase_seconds", "phase", m.Phases)
	renderHistograms(&b, "zpld_request_seconds", "endpoint", m.byRoute)
	return b.String()
}

// RenderStoreMetrics emits the tiered-store families: per-tier hits
// and residency of the store (st), plus the peer-protocol counters when
// clustered. It is rendered after Render in /metrics; the classic
// zpld_cache_* families above stay aggregate for dashboard continuity.
// The store and disk labels keep the values they had when tuned plans
// lived in a store of their own, so existing series keep their names.
func RenderStoreMetrics(st store.TierStats, node *store.Node) string {
	var b strings.Builder

	b.WriteString("# TYPE zpld_store_tier_hits_total counter\n")
	fmt.Fprintf(&b, "zpld_store_tier_hits_total{store=\"compile\",tier=\"mem\"} %d\n", st.MemHits)
	fmt.Fprintf(&b, "zpld_store_tier_hits_total{store=\"compile\",tier=\"disk\"} %d\n", st.DiskHits)
	fmt.Fprintf(&b, "zpld_store_tier_hits_total{store=\"compile\",tier=\"peer\"} %d\n", st.PeerHits)

	b.WriteString("# TYPE zpld_store_tier_entries gauge\n")
	fmt.Fprintf(&b, "zpld_store_tier_entries{store=\"compile\",tier=\"mem\"} %d\n", st.Mem.Entries)
	fmt.Fprintf(&b, "zpld_store_tier_entries{store=\"shared\",tier=\"disk\"} %d\n", st.Disk.Entries)
	b.WriteString("# TYPE zpld_store_tier_bytes gauge\n")
	fmt.Fprintf(&b, "zpld_store_tier_bytes{store=\"compile\",tier=\"mem\"} %d\n", st.Mem.Bytes)
	fmt.Fprintf(&b, "zpld_store_tier_bytes{store=\"shared\",tier=\"disk\"} %d\n", st.Disk.Bytes)
	scalar(&b, "zpld_store_disk_corrupt_total", "counter", st.Disk.Corrupt)
	scalar(&b, "zpld_store_disk_errors_total", "counter", st.Disk.Errors)
	// Entries the envelope codec refused: served from memory, absent
	// from the disk and peer tiers.
	b.WriteString("# TYPE zpld_store_encode_errors_total counter\n")
	fmt.Fprintf(&b, "zpld_store_encode_errors_total{store=\"compile\"} %d\n", st.EncodeErrors)

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
	scalar(&b, "zpld_peer_served_puts_total", "counter", ns.ServedPuts)
	scalar(&b, "zpld_peer_served_claims_total", "counter", ns.ServedClaims)
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
