package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/vm"
)

// interpSize is the problem size of the run-interp workload: twice
// DefaultSize per dimension (ep, one-dimensional, takes n=16384).
func interpSize(b programs.Benchmark, smoke bool) int64 {
	if smoke {
		return 16 // the two smoke programs are two-dimensional
	}
	return 2 * b.DefaultSize
}

// nativeSize is the problem size of the run-go workload: eight times
// DefaultSize per dimension, so compute is most of the wall clock.
func nativeSize(b programs.Benchmark, smoke bool) int64 {
	if smoke {
		return interpSize(b, true)
	}
	if b.Rank == 1 {
		return 16 * b.DefaultSize
	}
	return 8 * b.DefaultSize
}

// runCells are the 12 cells of the run workloads: program × ladder end.
func runCells(smoke bool, size func(programs.Benchmark, bool) int64, dist bool) []cell {
	var cells []cell
	for _, b := range benchPrograms(smoke) {
		for _, lvl := range ladderEnds {
			cells = append(cells, cell{b, lvl, dist, size(b, smoke)})
		}
	}
	return cells
}

// speedup is the paper's claim: the geomean over programs of
// median(baseline) ÷ median(c2+f4). Cells alternate baseline, c2+f4.
func speedup(meds []float64) float64 {
	var ratios []float64
	for i := 0; i+1 < len(meds); i += 2 {
		ratios = append(ratios, meds[i]/meds[i+1])
	}
	return geomean(ratios)
}

// perSecond is the throughput of one pass over the cells, each at its
// median time in milliseconds: cells ÷ the sum of the medians. Where
// the geomean weighs every cell alike, this is set by the slow ones.
func perSecond(meds []float64) float64 {
	sum := 0.0
	for _, m := range meds {
		sum += m
	}
	return 1000 * float64(len(meds)) / sum
}

// everyOther picks the c2+f4 half (odd indices) of per-cell values.
func everyOther(xs []float64) []float64 {
	var out []float64
	for i := 1; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}

// runInterp is the run-interp workload: both LIR interpreters on the
// same programs with compilation excluded.
func runInterp(p params) *Result {
	r := newResult("run-interp", p)
	seq := runCells(p.smoke, interpSize, false)
	dst := runCells(p.smoke, interpSize, true)
	rng := rand.New(rand.NewSource(p.seed))
	acc := newLayerAcc(len(seq))
	speed := &speedLog{}

	t0 := time.Now()
	seqC := make([]*compiled, len(seq))
	dstC := make([]*compiled, len(dst))
	wantSeq := make([]string, len(seq))
	wantDst := make([]string, len(dst))
	for i := range seq {
		var err error
		if seqC[i], err = compileOp(seq[i], p.tr, -1-i); err != nil {
			return r.abort(err)
		}
		if dstC[i], err = compileOp(dst[i], p.tr, -1-i); err != nil {
			return r.abort(err)
		}
		speed.mark()
		if wantSeq[i], err = expected(seq[i].prog.Name, seq[i].n, false); err != nil {
			return r.abort(err)
		}
		if wantDst[i], err = expected(dst[i].prog.Name, dst[i].n, true); err != nil {
			return r.abort(err)
		}
	}
	addCounts(r, seqC)
	addCounts(r, dstC)

	vmSamples := make([][]float64, len(seq))
	dSamples := make([][]float64, len(dst))
	steps := make([]int64, len(seq))
	vmPass := func(timed bool, pass int) {
		for _, i := range rng.Perm(len(seq)) {
			from := p.tr.Len()
			var got string
			var m *vm.Machine
			var res *vm.Result
			var err error
			d, f := speed.timed(func() { got, m, res, err = runVM(seqC[i], p.tr, pass*len(seq)+i) })
			r.Attempted++
			if err != nil {
				r.fail(1, "vm %s: %v", seq[i], err)
				continue
			}
			if got != wantSeq[i] {
				r.fail(1, "vm %s: output %q, reference %q", seq[i], got, wantSeq[i])
			}
			steps[i] = res.Steps
			if !timed {
				key := "vm.footprint_bytes_baseline"
				if i%2 == 1 {
					key = "vm.footprint_bytes_c2f4"
				}
				r.Values[key] += float64(m.MemoryFootprint())
				continue
			}
			vmSamples[i] = append(vmSamples[i], ms(d)/f)
			if p.tr != nil {
				acc.addSpans(i, p.tr.Range(from, p.tr.Len()), from, f)
			}
		}
		betweenPasses()
	}
	distPass := func(timed bool, pass int) {
		for _, i := range rng.Perm(len(dst)) {
			from := p.tr.Len()
			var got string
			var err error
			d, f := speed.timed(func() { got, err = runDist(dstC[i], p.tr, pass*len(dst)+i) })
			r.Attempted++
			if err != nil {
				r.fail(1, "distvm %s: %v", dst[i], err)
				continue
			}
			if got != wantDst[i] {
				r.fail(1, "distvm %s: output %q, reference %q", dst[i], got, wantDst[i])
			}
			if timed {
				dSamples[i] = append(dSamples[i], ms(d)/f)
				if p.tr != nil {
					acc.addSpans(i, p.tr.Range(from, p.tr.Len()), from, f)
				}
			}
		}
		betweenPasses()
	}
	vmPass(false, 0)
	distPass(false, 0)
	r.Values["setup_s"] = time.Since(t0).Seconds() / speed.since(0)

	// A distvm pass costs about five VM passes, so it gets fewer (more
	// did not steady it: its two goroutines need both cores at once, and
	// what moves dist_run_ms between runs is how busy the host is); the
	// two are interleaved so that drift in the machine's speed lands on
	// both engines alike.
	vmPasses, distPasses := p.scaled(8, 2), p.scaled(5, 2)
	for pass, done := 0, 0; pass < vmPasses; pass++ {
		vmPass(true, pass)
		if due := (pass + 1) * distPasses / vmPasses; due > done {
			distPass(true, done)
			done = due
		}
	}

	var vmMeds, dMeds []float64
	var vmNS, dNS float64
	var totalSteps int64
	for i := range seq {
		vs, ds := summarize(vmSamples[i]), summarize(dSamples[i])
		vmMeds, dMeds = append(vmMeds, vs.P50), append(dMeds, ds.P50)
		vmNS, dNS = vmNS+vs.P50*1e6, dNS+ds.P50*1e6
		totalSteps += steps[i]
		r.Rows = append(r.Rows, fmt.Sprintf("%s  vm run_ms %s", seq[i], vs),
			fmt.Sprintf("%s  distvm dist_run_ms %s", dst[i], ds))
	}
	r.Values["run_ms"] = geomean(vmMeds)
	r.Values["run_c2f4_ms"] = geomean(everyOther(vmMeds))
	r.Values["dist_run_ms"] = geomean(dMeds)
	r.Values["contraction_speedup"] = speedup(vmMeds)
	r.Values["op_ms_p50"] = r.Values["run_ms"]
	r.Values["alt_ms_p50"] = r.Values["dist_run_ms"]
	r.Values["ops_per_s"] = perSecond(vmMeds)
	r.Values["vm.steps"] = float64(totalSteps)
	r.Values["vm.ns_per_elem"] = vmNS / float64(totalSteps)
	r.Values["distvm.ns_per_elem"] = dNS / float64(totalSteps)
	r.Values["distvm.vs_vm_ratio"] = r.Values["dist_run_ms"] / r.Values["run_ms"]
	r.Notes = append(r.Notes, fmt.Sprintf("contraction speedup on distvm p=2: %.3fx", speedup(dMeds)))
	if p.tr != nil {
		acc.report(r)
	}
	speed.report(r)
	r.finish()
	return r
}

// heatCell is the extra native cell that gogen.vs_hand_ratio is
// measured on: heat.za against handHeat at the same size.
const (
	heatN     = 512
	heatSteps = 20
)

// runGo is the run-go workload: the same 12 cells built natively at
// sizes where compute is most of the wall clock.
func runGo(p params) *Result {
	r := newResult("run-go", p)
	cells := runCells(p.smoke, nativeSize, false)
	if p.smoke {
		cells = cells[:2] // one program: every cell costs a go build
	}
	if !backend.Available() {
		// No silent skip: without a toolchain every operation this
		// workload exists to time has failed.
		r.Attempted = len(cells)
		r.fail(len(cells), "no Go toolchain on PATH: the native backend cannot run")
		r.finish()
		return r
	}
	rng := rand.New(rand.NewSource(p.seed))
	acc := newLayerAcc(len(cells))
	speed := &speedLog{}
	ctx := context.Background()

	t0 := time.Now()
	dir, err := p.mkdir("artifacts")
	if err != nil {
		return r.abort(err)
	}
	st, err := backend.Open(dir)
	if err != nil {
		return r.abort(err)
	}
	comps := make([]*compiled, len(cells))
	arts := make([]*backend.Artifact, len(cells))
	want := make([]string, len(cells))
	var buildMS, hitUS, binBytes []float64
	for i, c := range cells {
		from := p.tr.Len()
		if comps[i], err = compileOp(c, p.tr, -1-i); err != nil {
			return r.abort(err)
		}
		sp := p.tr.Begin("backend.build", -1, -1-i)
		arts[i], err = st.Build(ctx, comps[i].goSrc)
		p.tr.End(sp)
		if err != nil {
			return r.abort(fmt.Errorf("build %s: %w", c, err))
		}
		speed.mark()
		if p.tr != nil {
			acc.addSpans(i, p.tr.Range(from, p.tr.Len()), from, 1)
		}
		buildMS = append(buildMS, ms(arts[i].Build))
		th := time.Now()
		if hit, err := st.Build(ctx, comps[i].goSrc); err != nil || !hit.Hit {
			return r.abort(fmt.Errorf("rebuild %s: hit=%v err=%v", c, hit != nil && hit.Hit, err))
		}
		hitUS = append(hitUS, us(time.Since(th)))
		if fi, err := os.Stat(arts[i].Bin); err == nil {
			binBytes = append(binBytes, float64(fi.Size()))
		}
		if want[i], err = expected(c.prog.Name, c.n, false); err != nil {
			return r.abort(err)
		}
	}
	addCounts(r, comps)
	r.Values["backend.build_ms"] = summarize(buildMS).Mean
	r.Values["backend.build_hit_us"] = median(hitUS)
	r.Values["backend.bin_bytes"] = summarize(binBytes).Mean

	samples := make([][]float64, len(cells))
	compute := make([][]float64, len(cells))
	spawn := make([][]float64, len(cells))
	pass := func(timed bool, pass int) {
		for _, i := range rng.Perm(len(cells)) {
			var out bytes.Buffer
			var rs *backend.RunStats
			var err error
			d, f := speed.timed(func() {
				sp := p.tr.Begin("backend.run", -1, pass*len(cells)+i)
				rs, err = arts[i].Run(ctx, &out)
				p.tr.End(sp)
			})
			r.Attempted++
			if err != nil {
				r.fail(1, "native %s: %v", cells[i], err)
				continue
			}
			if out.String() != want[i] {
				r.fail(1, "native %s: output %q, reference %q", cells[i], out.String(), want[i])
			}
			if timed {
				samples[i] = append(samples[i], ms(d)/f)
				compute[i] = append(compute[i], ms(rs.Compute)/f)
				spawn[i] = append(spawn[i], ms(rs.Wall-rs.Compute)/f)
			}
		}
		betweenPasses()
	}
	pass(false, 0)
	r.Values["setup_s"] = time.Since(t0).Seconds() / speed.since(0)

	for i, passes := 0, p.scaled(14, 2); i < passes; i++ {
		pass(true, i)
	}

	var meds, computeMeds, spawnMeds []float64
	for i, c := range cells {
		s := summarize(samples[i])
		meds = append(meds, s.P50)
		computeMeds = append(computeMeds, median(compute[i]))
		spawnMeds = append(spawnMeds, median(spawn[i]))
		r.Rows = append(r.Rows, fmt.Sprintf("%s  native run_ms %s  compute_ms p50=%.4g", c, s, median(compute[i])))
	}
	r.Values["run_ms"] = geomean(meds)
	r.Values["run_c2f4_ms"] = geomean(everyOther(meds))
	r.Values["contraction_speedup"] = speedup(meds)
	r.Values["op_ms_p50"] = r.Values["run_ms"]
	r.Values["alt_ms_p50"] = r.Values["run_c2f4_ms"]
	r.Values["ops_per_s"] = perSecond(meds)
	r.Values["gogen.compute_ms"] = summarize(computeMeds).Mean
	r.Values["backend.spawn_ms"] = summarize(spawnMeds).Mean
	if p.tr != nil {
		acc.report(r)
		if err := nativeLayers(p, r, st, comps, computeMeds); err != nil {
			r.Attempted++
			r.fail(1, "%v", err)
		}
	}
	speed.report(r)
	r.finish()
	return r
}

var handSink float64 // keeps the timed hand kernel's result alive

// nativeLayers fills the two gogen metrics that need extra runs, which
// only the traced run pays for: ns per element (the VM counts the
// element-statements the native binary does not) and the ratio to the
// hand-written heat kernel.
func nativeLayers(p params, r *Result, st *backend.Store, comps []*compiled, computeMeds []float64) error {
	var ns float64
	var steps int64
	for i := 1; i < len(comps); i += 2 { // steps do not depend on the level
		_, _, res, err := runVM(comps[i], nil, 0)
		if err != nil {
			return err
		}
		steps += 2 * res.Steps
		ns += (computeMeds[i-1] + computeMeds[i]) * 1e6
	}
	r.Values["gogen.ns_per_elem"] = ns / float64(steps)

	n, stepCount := int64(heatN), int64(heatSteps)
	if p.smoke {
		n, stepCount = 32, 5
	}
	comp, err := driver.Compile(heatSource, driver.Options{
		Configs: map[string]int64{"n": n, "steps": stepCount}, Level: ladderEnds[1]})
	if err != nil {
		return fmt.Errorf("compile heat: %w", err)
	}
	art, _, err := st.BuildProgramBounds(context.Background(), comp.LIR, comp.Bounds)
	if err != nil {
		return fmt.Errorf("build heat: %w", err)
	}
	want := heatOutput(int(n), int(stepCount))
	var emitted, hand []float64
	for i := 0; i < 7; i++ {
		var out bytes.Buffer
		rs, err := art.Run(context.Background(), &out)
		r.Attempted++
		if err != nil {
			return fmt.Errorf("run heat: %w", err)
		}
		if out.String() != want {
			r.fail(1, "native heat: output %q, hand kernel %q", out.String(), want)
		}
		emitted = append(emitted, ms(rs.Compute))
		t0 := time.Now()
		handSink = handHeat(int(n), int(stepCount))
		hand = append(hand, ms(time.Since(t0)))
	}
	r.Values["gogen.vs_hand_ratio"] = median(emitted) / median(hand)
	r.Notes = append(r.Notes, fmt.Sprintf("heat n=%d steps=%d: emitted compute %.3f ms, hand-written %.3f ms",
		n, stepCount, median(emitted), median(hand)))
	return nil
}
