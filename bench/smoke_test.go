package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/backend"
)

// TestSmoke runs every workload at the -smoke size, half of them with
// tracing, and checks what the driver relies on: no failed operation,
// every end-to-end metric present and non-zero, every per-layer metric
// the workload is meant to fill non-zero, a trace file on disk, and a
// well-formed result line.
func TestSmoke(t *testing.T) {
	if !backend.Available() {
		t.Skip("no Go toolchain on PATH: run-go and the lazy native side would (rightly) fail")
	}
	traceDir := t.TempDir()
	layers := map[string][]string{
		"compile": {"parser.parse_ms", "sema.check_ms", "lower.lower_ms", "comm.insert_ms", "core.asdg_ms",
			"core.fusion_ms", "core.contraction_ms", "scalarize.scalarize_ms", "absint.prove_ms", "mhp.race_ms",
			"gogen.emit_ms", "core.nests", "core.arrays_contracted", "scalarize.lir_nodes", "absint.sites_proven",
			"mhp.pairs_ordered", "bench.peak_rss_mb"},
		"run-go": {"gogen.compute_ms", "gogen.ns_per_elem", "gogen.vs_hand_ratio", "gogen.code_bytes",
			"backend.build_ms", "backend.build_hit_us", "backend.spawn_ms", "backend.bin_bytes"},
		"serve-1node": {"ccache.key_us", "ccache.get_us", "ccache.hit_ratio", "store.encode_us", "store.decode_us",
			"store.envelope_bytes", "store.disk_get_us", "store.disk_put_us", "svc.tier_compile", "svc.tier_mem",
			"svc.tier_disk", "svc.overhead_us", "disk_ms_p50", "hot_ms_p90"},
		"serve-3node": {"store.peer_get_us", "svc.tier_peer", "svc.compiles_per_key", "peer_ms_p50", "cold_ms_p50"},
	}
	for _, w := range workloads {
		w := w
		if w.name == "lazy-large" {
			continue // the same code as lazy-small; only the sizes differ
		}
		t.Run(w.name, func(t *testing.T) {
			dir := ""
			if layers[w.name] != nil {
				dir = traceDir
			}
			r, err := runWorkload(w, params{seed: 7, seconds: 0.3, smoke: true}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Fails)
			}
			for _, m := range endToEnd {
				if r.Values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive on every workload", m.Name, r.Values[m.Name])
				}
			}
			if r.Values[w.main] <= 0 {
				t.Errorf("main metric %s = %v", w.main, r.Values[w.main])
			}
			for _, name := range layers[w.name] {
				if r.Values[name] <= 0 {
					t.Errorf("%s = %v, want a positive value from the traced run", name, r.Values[name])
				}
			}
			if w.name == "serve-3node" && r.Values["svc.compiles_per_key"] != 1 {
				t.Errorf("the cluster compiled each key %v times, want exactly once", r.Values["svc.compiles_per_key"])
			}
			if w.name == "lazy-small" && r.Values["lazy.cache_misses"] != 0 {
				t.Errorf("%v compilations inside the timed loop, want 0", r.Values["lazy.cache_misses"])
			}

			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine([]*Result{r}, dir != "")), &line); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if dir != "" {
				want = tracedMetrics()
				if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("no trace file: %v", err)
				}
				if _, ok := r.Values["bench.trace_overhead_pct"]; !ok {
					t.Error("the traced run did not report bench.trace_overhead_pct")
				}
			}
			if !line.Correct || len(line.Metrics) != len(want) {
				t.Errorf("result line: correct=%v with %d metrics, want true with %d", line.Correct, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("result line lacks %s in %s", m.Name, m.Unit)
				}
			}
		})
	}
}

// Without a toolchain the native workloads fail loudly. The toolchain
// lookup is cached per process, so the check re-runs this test binary
// with an empty PATH.
func TestNoSilentSkip(t *testing.T) {
	if os.Getenv("ZPLBENCH_NO_TOOLCHAIN") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNoSilentSkip$")
		cmd.Env = append(os.Environ(), "PATH=/nonexistent", "ZPLBENCH_NO_TOOLCHAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	if backend.Available() {
		t.Fatal("the toolchain is still visible with PATH=/nonexistent")
	}
	p := params{seed: 1, seconds: 0.3, smoke: true, tmp: t.TempDir()}
	if r := runGo(p); r.Failed == 0 || r.Failed != r.Attempted {
		t.Errorf("run-go: attempted %d, failed %d; every operation must count as failed", r.Attempted, r.Failed)
	}
	w, _ := workloadByName("lazy-small")
	r := w.run(p)
	if r.Failed < 2*readbackEvery || r.Values["go_eval_us_p50"] != 0 {
		t.Errorf("lazy-small: failed %d, go_eval_us_p50 %v; the native Evals must count as failed", r.Failed, r.Values["go_eval_us_p50"])
	}
	if r.Values["vm_eval_us_p50"] <= 0 {
		t.Error("lazy-small: the VM side needs no toolchain and must still run")
	}
}

// The committed two-processor transcripts may differ from the
// sequential ones only in the last digits of a reduction.
func TestReferencesAgree(t *testing.T) {
	for prog, sizes := range refSizes() {
		for n, p2 := range sizes {
			seq, err := expected(prog, n, false)
			if err != nil {
				t.Errorf("%v", err)
				continue
			}
			if !p2 {
				continue
			}
			par, err := expected(prog, n, true)
			if err != nil || !closeTo(seq, par, 1e-9) {
				t.Errorf("%s n=%d: p=2 transcript %q does not match sequential %q (err %v)", prog, n, par, seq, err)
			}
		}
	}
	if closeTo("x 1.0 2.0", "x 1.0 2.1", 1e-9) || closeTo("x 1.0", "x 1.0 2.0", 1e-9) || !closeTo("x 1.0000000000001", "x 1.0", 1e-9) {
		t.Error("closeTo does not compare transcripts word by word to the tolerance")
	}
}

// The hand-written heat kernel is the reference for heat.za; check it
// against a value computed independently of it, by the plain
// array-statement formulation with a LAP temporary.
func TestHandHeatMatchesNaive(t *testing.T) {
	const n, steps = 12, 3
	var T, lap [n + 2][n + 2]float64
	for i := 2; i <= n-1; i++ {
		for j := 2; j <= n-1; j++ {
			T[i][j] = 100.0 * math.Sin(0.1*float64(i)) * math.Sin(0.1*float64(j))
		}
	}
	sum := 0.0
	for s := 0; s < steps; s++ {
		for i := 2; i <= n-1; i++ {
			for j := 2; j <= n-1; j++ {
				lap[i][j] = T[i-1][j] + T[i+1][j] + T[i][j-1] + T[i][j+1] - 4.0*T[i][j]
			}
		}
		sum = 0
		for i := 2; i <= n-1; i++ {
			for j := 2; j <= n-1; j++ {
				T[i][j] = T[i][j] + 0.1*lap[i][j]
				sum += T[i][j]
			}
		}
	}
	if got := handHeat(n, steps); got != sum {
		t.Errorf("handHeat = %v, unfused formulation = %v", got, sum)
	}
}
