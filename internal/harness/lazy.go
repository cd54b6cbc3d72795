package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/lazy"
)

// LazyRow is one backend × level cell of the lazy-runtime study: a
// double-buffered Jacobi solver issued through the deferred-evaluation
// library, measuring what fingerprint caching buys an iterative
// workload. FirstMS includes the one real compile; SteadyMS is the
// per-iteration cost once every sweep is a cache hit (the buffer swap
// renames to the same canonical program); FreshMS re-runs the compiler
// pipeline every iteration (cache cleared), the cost a lazy runtime
// without canonical fingerprints would pay.
type LazyRow struct {
	Backend  string  `json:"backend"`
	Level    string  `json:"level"`
	N        int     `json:"n"`
	Iters    int     `json:"iters"`
	FirstMS  float64 `json:"first_ms"`
	SteadyMS float64 `json:"steady_ms_per_iter"`
	FreshMS  float64 `json:"fresh_ms_per_iter"`
	Speedup  float64 `json:"cached_speedup"` // FreshMS / SteadyMS
	Misses   int64   `json:"misses"`         // compiles in the steady-state arm
	Hits     int64   `json:"hits"`
}

// lazySweep issues one damped double-buffered Jacobi sweep — the
// 5-point average lands in a Temp the contraction phase eliminates,
// the damped update and the residual reduction fuse around it — and
// returns the swapped handles.
func lazySweep(e *lazy.Engine, cur, nxt *lazy.Handle, res *lazy.ScalarHandle, n int) (*lazy.Handle, *lazy.Handle) {
	inner := lazy.R(2, n-1, 2, n-1)
	avg := e.Temp("avg", cur.Region())
	avg.Assign(inner, lazy.Mul(lazy.Const(0.25),
		lazy.Add(lazy.Add(cur.At(-1, 0), cur.At(1, 0)),
			lazy.Add(cur.At(0, -1), cur.At(0, 1)))))
	nxt.Assign(inner, lazy.Add(cur, lazy.Mul(lazy.Const(0.8), lazy.Sub(avg, cur))))
	res.MaxOf(inner, lazy.Abs(lazy.Sub(nxt, cur)))
	return nxt, cur
}

// lazySetup builds an engine with a seeded (non-harmonic, so the
// residual is nonzero) field and both buffers initialized; the setup
// Eval is untimed.
func lazySetup(opt lazy.Options, n int) (*lazy.Engine, *lazy.Handle, *lazy.Handle, *lazy.ScalarHandle, error) {
	e := lazy.NewEngine(opt)
	full := lazy.R(1, n, 1, n)
	cur := e.Array("cur", full)
	nxt := e.Array("nxt", full)
	res := e.Scalar("res", 0)
	seed := lazy.Mul(lazy.Index(1), lazy.Index(1))
	cur.Assign(nil, seed)
	nxt.Assign(nil, seed)
	return e, cur, nxt, res, e.Eval()
}

// runLazyCell measures one backend × level cell and returns the row
// plus the residual history for the cross-backend differential check.
func runLazyCell(lvl core.Level, be driver.Backend, n, iters int) (LazyRow, []float64, error) {
	row := LazyRow{Backend: string(be), Level: lvl.String(), N: n, Iters: iters}
	e, cur, nxt, res, err := lazySetup(lazy.Options{Level: lvl, Backend: be}, n)
	if err != nil {
		return row, nil, err
	}
	before := e.CacheStats()

	var hist []float64
	var steady time.Duration
	for i := 0; i < iters; i++ {
		cur, nxt = lazySweep(e, cur, nxt, res, n)
		t0 := time.Now()
		if err := e.Eval(); err != nil {
			return row, nil, err
		}
		d := time.Since(t0)
		if i == 0 {
			row.FirstMS = ms(d)
		} else {
			steady += d
		}
		r, err := res.Value()
		if err != nil {
			return row, nil, err
		}
		hist = append(hist, r)
	}
	row.SteadyMS = ms(steady) / float64(iters-1)
	d := e.CacheStats().Sub(before)
	row.Misses, row.Hits = d.Misses, d.Hits

	// Fresh arm: the cost a lazy runtime without fingerprint caching
	// pays per iteration — a brand-new engine (and, for the native
	// backend, a brand-new artifact store, so the toolchain runs too)
	// for every sweep.
	freshIters := 10
	if be.Native() {
		freshIters = 3 // each fresh iteration runs the toolchain twice
	}
	var fresh time.Duration
	for i := 0; i < freshIters; i++ {
		opt := lazy.Options{Level: lvl, Backend: be}
		var dir string
		if be.Native() {
			dir, err = os.MkdirTemp("", "zpl-lazy-fresh")
			if err != nil {
				return row, nil, err
			}
			opt.ArtifactDir = dir
		}
		ef, curF, nxtF, resF, err := lazySetup(opt, n)
		if err == nil {
			ef.ClearCache() // the setup compile must not subsidize the sweep
			lazySweep(ef, curF, nxtF, resF, n)
			t0 := time.Now()
			err = ef.Eval()
			fresh += time.Since(t0)
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
		if err != nil {
			return row, nil, err
		}
	}
	row.FreshMS = ms(fresh) / float64(freshIters)
	if row.SteadyMS > 0 {
		row.Speedup = row.FreshMS / row.SteadyMS
	}
	return row, hist, nil
}

// RunLazy measures the lazy-runtime Jacobi workload at the ladder ends
// on the VM and (when a toolchain is present) the native backend,
// asserting the residual trajectories agree bit for bit across every
// cell — the differential check that deferred evaluation changes
// nothing but when compilation happens.
func RunLazy(e *Env) ([]LazyRow, error) {
	n := int(e.scale(32))
	const iters = 20
	levels := []core.Level{core.Baseline, core.C2F4S}
	backends := []driver.Backend{driver.BackendVM}
	if backend.Available() {
		backends = append(backends, driver.BackendGo)
	}

	var rows []LazyRow
	want := map[string][]float64{}
	for _, be := range backends {
		for _, lvl := range levels {
			row, hist, err := runLazyCell(lvl, be, n, iters)
			if err != nil {
				return nil, fmt.Errorf("lazy %s at %s: %w", be, lvl, err)
			}
			if row.Misses != 1 {
				return nil, fmt.Errorf("lazy %s at %s: steady state compiled %d times, want 1",
					be, lvl, row.Misses)
			}
			key := lvl.String()
			if prev, ok := want[key]; ok {
				for i := range prev {
					if prev[i] != hist[i] {
						return nil, fmt.Errorf(
							"lazy %s at %s: residual[%d] = %g diverges from VM's %g",
							be, lvl, i, hist[i], prev[i])
					}
				}
			} else {
				want[key] = hist
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatLazy renders the study table plus the headline the acceptance
// check reads: steady-state iterations must be cheaper than
// compile-every-iteration in every cell.
func FormatLazy(rows []LazyRow) string {
	var b strings.Builder
	b.WriteString("Lazy-fusion runtime: double-buffered Jacobi issued through the zpl\n")
	b.WriteString("library; the buffer swap renames to the same canonical program, so\n")
	b.WriteString("the steady state replays one cached compilation per sweep\n\n")
	fmt.Fprintf(&b, "%-8s %-10s %6s %6s %10s %12s %12s %10s %8s\n",
		"backend", "level", "n", "iters", "first ms", "steady ms/i", "fresh ms/i", "speedup", "misses")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %6d %6d %10.3f %12.4f %12.4f %9.1fx %8d\n",
			r.Backend, r.Level, r.N, r.Iters, r.FirstMS, r.SteadyMS, r.FreshMS, r.Speedup, r.Misses)
	}
	var speedups []float64
	for _, r := range rows {
		if r.Speedup > 0 {
			speedups = append(speedups, r.Speedup)
		}
	}
	if len(speedups) > 0 {
		fmt.Fprintf(&b, "\ncached steady state vs compile-every-iteration: geomean %.1fx over %d cells\n",
			geomean(speedups), len(speedups))
	}
	fmt.Fprintf(&b, "every cell compiled exactly once and matched the VM residuals: %t\n",
		LazyCachedEverywhere(rows))
	return b.String()
}

// LazyCachedEverywhere reports whether every cell hit the cache on all
// post-compile iterations — the study's acceptance condition (the
// residual differential is enforced inside RunLazy).
func LazyCachedEverywhere(rows []LazyRow) bool {
	for _, r := range rows {
		if r.Misses != 1 || r.Hits < int64(r.Iters-1) {
			return false
		}
	}
	return true
}
