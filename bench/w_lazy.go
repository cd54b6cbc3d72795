package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/zpl"
)

// readbackEvery is how often the solver reads its residual back, the
// way an iterative caller polls for convergence.
const readbackEvery = 10

// lazySolver is the zpl side of the lazy workloads: the damped
// double-buffered Jacobi relaxation of handJacobi, issued through the
// library so that every sweep is one Eval.
type lazySolver struct {
	ctx      *zpl.Context
	n        int
	cur, nxt *zpl.Array
	res      *zpl.Scalar
}

func newLazySolver(be zpl.Backend, n int, artifactDir string) (*lazySolver, error) {
	s := &lazySolver{n: n, ctx: zpl.New(zpl.Config{Level: core.C2F4S, Backend: be, ArtifactDir: artifactDir})}
	full := zpl.R(1, n, 1, n)
	s.cur, s.nxt = s.ctx.Array("cur", full), s.ctx.Array("nxt", full)
	s.res = s.ctx.Scalar("res", 0)
	seed := zpl.Mul(zpl.Index(1), zpl.Index(1))
	s.cur.Assign(nil, seed)
	s.nxt.Assign(nil, seed)
	return s, s.ctx.Eval()
}

// issue records one sweep; nothing runs until Eval.
func (s *lazySolver) issue() {
	inner := zpl.R(2, s.n-1, 2, s.n-1)
	avg := s.ctx.Temp("avg", zpl.R(1, s.n, 1, s.n))
	avg.Assign(inner, zpl.Mul(zpl.Const(0.25),
		zpl.Add(zpl.Add(s.cur.At(-1, 0), s.cur.At(1, 0)), zpl.Add(s.cur.At(0, -1), s.cur.At(0, 1)))))
	s.nxt.Assign(inner, zpl.Add(s.cur, zpl.Mul(zpl.Const(0.8), zpl.Sub(avg, s.cur))))
	s.res.MaxOf(inner, zpl.Abs(zpl.Sub(s.nxt, s.cur)))
	s.cur, s.nxt = s.nxt, s.cur
}

// lazyLoop is the measured part of one backend, at reference speed.
type lazyLoop struct {
	evalUS, issueUS, readbackUS []float64
	perSecond                   []float64 // sweeps per second, one value per batch
}

// run issues and evaluates sweeps [from, from+count), checking every
// residual it reads back against the hand kernel's trajectory. A wrong
// readback fails every Eval since the previous good one. The sweeps
// run in batches of batch between two probes, and every duration in a
// batch is scaled by that batch's speed factor.
func (s *lazySolver) run(r *Result, tr *Tracer, speed *speedLog, label string, from, count, batch int, want []float64) lazyLoop {
	var l lazyLoop
	for lo := from; lo < from+count; lo += batch {
		hi := lo + batch
		if hi > from+count {
			hi = from + count
		}
		var evalD, issueD, readD []time.Duration
		stop := false
		d, f := speed.timed(func() {
			for i := lo; i < hi; i++ {
				sp := tr.Begin("lazy.issue", -1, i)
				t0 := time.Now()
				s.issue()
				t1 := time.Now()
				tr.End(sp)
				sp = tr.Begin("lazy.eval", -1, i)
				err := s.ctx.Eval()
				t2 := time.Now()
				tr.End(sp)
				r.Attempted++
				if err != nil {
					r.fail(1, "%s Eval %d: %v", label, i, err)
					stop = true
					return
				}
				issueD, evalD = append(issueD, t1.Sub(t0)), append(evalD, t2.Sub(t1))
				if (i+1)%readbackEvery != 0 {
					continue
				}
				sp = tr.Begin("lazy.readback", -1, i)
				got, err := s.res.Value()
				readD = append(readD, time.Since(t2))
				tr.End(sp)
				if err != nil || got != want[i] {
					r.fail(readbackEvery, "%s residual after sweep %d: got %v (err %v), hand kernel %v", label, i+1, got, err, want[i])
				}
			}
		})
		if stop {
			return l
		}
		l.perSecond = append(l.perSecond, float64(hi-lo)/(d.Seconds()/f))
		for _, x := range evalD {
			l.evalUS = append(l.evalUS, us(x)/f)
		}
		for _, x := range issueD {
			l.issueUS = append(l.issueUS, us(x)/f)
		}
		for _, x := range readD {
			l.readbackUS = append(l.readbackUS, us(x)/f)
		}
	}
	return l
}

// runLazy is both lazy workloads; they differ in n and in how many
// Evals fit the run. Small arrays make per-Eval overhead the whole
// cost; large ones make it compute and state traffic.
func runLazy(name string, n, warm, vmEvals, goEvals int) func(p params) *Result {
	return func(p params) *Result {
		r := newResult(name, p)
		vmN, goN := p.scaled(vmEvals, 2*readbackEvery), p.scaled(goEvals, 2*readbackEvery)
		n, warm := n, warm
		if p.smoke {
			n, warm = 24, readbackEvery
		}
		speed := &speedLog{}
		t0 := time.Now()
		// The hand kernel's residual after every sweep, and its final
		// grids at the two sweep counts the backends stop at.
		total := warm + vmN
		if warm+goN > total {
			total = warm + goN
		}
		hand := newHandJacobi(n)
		want := make([]float64, total)
		finals := map[int][]float64{}
		for i := range want {
			want[i] = hand.sweep()
			if i+1 == warm+vmN || i+1 == warm+goN {
				finals[i+1] = append([]float64(nil), hand.cur...)
			}
		}

		type side struct {
			label string
			be    zpl.Backend
			evals int
			batch int
			s     *lazySolver
		}
		sides := []*side{{label: "vm", be: zpl.BackendVM, evals: vmN}, {label: "go", be: zpl.BackendGo, evals: goN}}
		for _, sd := range sides {
			if sd.be == zpl.BackendGo && !backend.Available() {
				r.Attempted += sd.evals
				r.fail(sd.evals, "no Go toolchain on PATH: the native backend cannot run")
				sd.s = nil
				continue
			}
			dir, err := p.mkdir("lazy-" + sd.label)
			if err != nil {
				return r.abort(err)
			}
			if sd.s, err = newLazySolver(sd.be, n, dir); err != nil {
				return r.abort(fmt.Errorf("%s set-up: %w", sd.label, err))
			}
			// A batch lasts about ten milliseconds, so that the probes on
			// either side see the machine the Evals saw.
			w := sd.s.run(r, nil, speed, sd.label, 0, warm, readbackEvery, want)
			sd.batch = 50
			if m := median(w.evalUS); m > 200 {
				sd.batch = int(10000/m) + 1
			}
		}
		r.Values["setup_s"] = time.Since(t0).Seconds() / speed.since(0)

		for _, sd := range sides {
			if sd.s == nil {
				continue
			}
			betweenPasses()
			cache, stats := sd.s.ctx.CacheStats(), sd.s.ctx.Stats()
			l := sd.s.run(r, p.tr, speed, sd.label, warm, sd.evals, sd.batch, want)
			cache, stats2 := sd.s.ctx.CacheStats().Sub(cache), sd.s.ctx.Stats()
			ev := r.timing(sd.label+" Eval us", l.evalUS)
			r.Values[sd.label+"_eval_us_p50"] = ev.P50
			r.Values["lazy.cache_misses"] += float64(cache.Misses)
			if sd.label == "vm" {
				r.Values["op_ms_p50"] = ev.P50 / 1000
				r.Values["ops_per_s"] = median(l.perSecond)
				r.Values["lazy.issue_us"] = r.timing("issue us", l.issueUS).P50
				r.Values["lazy.readback_us"] = r.timing("readback us", l.readbackUS).P50
				if evals := stats2.Evals - stats.Evals; evals > 0 {
					r.Values["lazy.batches_per_eval"] = float64(stats2.Batches-stats.Batches) / float64(evals)
				}
			} else {
				r.Values["alt_ms_p50"] = ev.P50 / 1000
				// Both grids and the residual cross the state files in
				// each direction on every native Eval.
				r.Values["lazy.state_bytes_per_eval"] = float64(2 * 8 * (2*n*n + 1))
			}
			got, err := sd.s.cur.Values()
			r.Attempted++
			if err != nil || !slices.Equal(got, finals[warm+sd.evals]) {
				r.fail(1, "%s: final grid after %d sweeps differs from the hand kernel (err %v)", sd.label, warm+sd.evals, err)
			}
		}
		speed.report(r)
		r.finish()
		return r
	}
}
