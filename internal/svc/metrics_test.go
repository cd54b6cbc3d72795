package svc

import (
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/absint"
	"repro/internal/ccache"
	"repro/internal/lint"
	"repro/internal/mhp"
	"repro/internal/remark"
	"repro/internal/store"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics.golden from this build's /metrics rendering")

// TestMetricsRenderGolden pins the /metrics exposition byte for byte:
// an untouched registry (which families appear before any traffic),
// then one with every recording method called on fixed inputs, each
// followed by the unclustered store families. The golden was generated
// at PR 23's parent (PR 24 added the zpld_store_encode_errors_total
// family and nothing else); dashboards parse this text, so a changed
// byte is a changed interface, not a refresh.
func TestMetricsRenderGolden(t *testing.T) {
	render := func(m *Metrics, cs, ts ccache.Stats, cst, tst store.TierStats) string {
		return m.Render(cs, ts) + RenderStoreMetrics(cst, tst, nil)
	}
	got := "# empty registry\n" +
		render(NewMetrics(), ccache.Stats{}, ccache.Stats{}, store.TierStats{}, store.TierStats{})

	m := NewMetrics()
	m.Request("/run", 200, 3*time.Millisecond)
	m.Request("/run", 200, 40*time.Microsecond)
	m.Request("/run", 422, 700*time.Nanosecond)
	m.Request("/compile", 200, 2*time.Second)
	m.Request("/tune", 504, time.Minute) // overflow bucket
	m.IncInflight()
	m.IncInflight()
	m.DecInflight()
	m.TuneRequest()
	m.Rejected()
	m.Rejected()
	m.Drained()
	m.Panicked()
	m.Lint([]lint.Finding{
		{Rule: "unused-array", Severity: lint.SevWarning},
		{Rule: "unused-array", Severity: lint.SevWarning},
		{Rule: "halo-read", Severity: lint.SevError},
		{Rule: "proven-ordered-comm", Severity: lint.SevNote},
	})
	m.Bounds(&absint.Result{NumProven: 41, NumUnknown: 2, NumUnsafe: 1})
	m.Bounds(&absint.Result{NumProven: 9})
	m.Races(&mhp.Result{NumOrdered: 17, NumRace: 1, NumUnknown: 3, Deadlocks: make([]mhp.Deadlock, 2)})
	m.Remarks(map[remark.Kind]int{"fused": 5, "not-contracted": 2})
	m.Remarks(map[remark.Kind]int{"fused": 1})
	m.BackendBuild("hit")
	m.BackendBuild("miss")
	m.BackendBuild("miss")
	m.BackendBuild("error")
	m.BackendRun("go", true)
	m.BackendRun("go", true)
	m.BackendRun("go", false)
	m.BackendRun("vm", true)
	m.Phases.Observe("parse", 12*time.Microsecond)
	m.Phases.Observe("parse", 90*time.Microsecond)
	m.Phases.Observe("fusion", 1500*time.Microsecond)
	m.Phases.Observe("run", 250*time.Millisecond)

	got += "# every recording method\n" + render(m,
		ccache.Stats{Hits: 7, Misses: 3, DedupHits: 2, Evictions: 1, TooLarge: 4, Bytes: 4096, Entries: 5, MaxBytes: 1 << 20},
		ccache.Stats{Hits: 6, Misses: 8, DedupHits: 9, Evictions: 10, Bytes: 11, Entries: 12},
		store.TierStats{MemHits: 1, DiskHits: 2, PeerHits: 3, Mem: ccache.Stats{Entries: 4, Bytes: 5},
			Disk: store.DiskStats{Corrupt: 6, Errors: 7, Entries: 8, Bytes: 9}, EncodeErrors: 15},
		store.TierStats{MemHits: 10, DiskHits: 11, PeerHits: 12, Mem: ccache.Stats{Entries: 13, Bytes: 14}, EncodeErrors: 16})

	const golden = "testdata/metrics.golden"
	if *updateMetrics {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics rendering differs from %s; got:\n%s", golden, got)
	}
}
