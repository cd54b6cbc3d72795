package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/vm"
)

// cell is one program × level × engine configuration.
type cell struct {
	prog  programs.Benchmark
	level core.Level
	dist  bool // compiled for p=2 with comm.DefaultOptions(2)
	n     int64
}

func (c cell) String() string {
	eng := "seq"
	if c.dist {
		eng = "p2"
	}
	return fmt.Sprintf("%-8s %-8s %-3s n=%d", c.prog.Name, c.level, eng, c.n)
}

func (c cell) options(h driver.Hooks) driver.Options {
	opt := driver.Options{Configs: map[string]int64{c.prog.SizeConfig: c.n}, Level: c.level, Hooks: h}
	if c.dist {
		co := comm.DefaultOptions(2)
		opt.Comm = &co
	}
	return opt
}

// benchPrograms is the program set: all six, or two under -smoke.
func benchPrograms(smoke bool) []programs.Benchmark {
	all := programs.All()
	if !smoke {
		return all
	}
	var out []programs.Benchmark
	for _, b := range all {
		if b.Name == "frac" || b.Name == "fibro" {
			out = append(out, b)
		}
	}
	return out
}

var ladderEnds = []core.Level{core.Baseline, core.C2F4}

// compiled is what one compile operation produced.
type compiled struct {
	comp  *driver.Compilation
	goSrc string // emitted Go; sequential cells only
	sig   countSig
}

// countSig is the count census of a compilation. Every timed compile
// must reproduce the census of the warm-up compile, whose program was
// run and checked against the committed transcript.
type countSig struct {
	nests, arrays, contracted, lirNodes, sites, proven, pairs, ordered, codeBytes int
}

func lirNodes(p *lir.Program) int {
	var walk func(ns []lir.Node) int
	walk = func(ns []lir.Node) int {
		n := len(ns)
		for _, x := range ns {
			switch x := x.(type) {
			case *lir.Nest:
				n += len(x.Body)
			case *lir.Loop:
				n += walk(x.Body)
			case *lir.While:
				n += walk(x.Body)
			case *lir.If:
				n += walk(x.Then) + walk(x.Else)
			}
		}
		return n
	}
	total := 0
	for _, pr := range p.Procs {
		total += walk(pr.Body)
	}
	return total
}

func censusOf(c *driver.Compilation, goSrc string) countSig {
	ac := core.CountStaticArrays(c.AIR, c.Plan)
	s := countSig{
		nests:      c.LIR.CountNests(),
		arrays:     ac.Before(),
		contracted: ac.ContractedCompiler + ac.ContractedUser,
		lirNodes:   lirNodes(c.LIR),
		codeBytes:  len(goSrc),
	}
	if c.Bounds != nil {
		s.sites, s.proven = len(c.Bounds.Sites), c.Bounds.NumProven
	}
	if c.Races != nil {
		s.pairs, s.ordered = len(c.Races.Pairs), c.Races.NumOrdered
	}
	return s
}

// compileOp is the compile workload's operation, and the set-up step
// of the run workloads: driver.Compile, plus gogen.EmitBounds on a
// sequential cell. Under a tracer the compile is a driver.compile span
// whose children are the pipeline phases.
func compileOp(c cell, tr *Tracer, op int) (*compiled, error) {
	sp := tr.Begin("driver.compile", -1, op)
	comp, err := driver.Compile(c.prog.Source, c.options(tr.Hooks(sp, op)))
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", c, err)
	}
	out := &compiled{comp: comp}
	if !c.dist {
		sp := tr.Begin("gogen.emit", -1, op)
		out.goSrc, err = gogen.EmitBounds(comp.LIR, comp.Bounds)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("emit %s: %w", c, err)
		}
	}
	out.sig = censusOf(comp, out.goSrc)
	return out, nil
}

// addCounts sums the census of a set of compilations into the count
// metrics.
func addCounts(r *Result, cs []*compiled) {
	for _, c := range cs {
		r.Values["core.nests"] += float64(c.sig.nests)
		r.Values["core.arrays_total"] += float64(c.sig.arrays)
		r.Values["core.arrays_contracted"] += float64(c.sig.contracted)
		r.Values["scalarize.lir_nodes"] += float64(c.sig.lirNodes)
		r.Values["absint.sites_total"] += float64(c.sig.sites)
		r.Values["absint.sites_proven"] += float64(c.sig.proven)
		r.Values["mhp.pairs"] += float64(c.sig.pairs)
		r.Values["mhp.pairs_ordered"] += float64(c.sig.ordered)
		r.Values["gogen.code_bytes"] += float64(c.sig.codeBytes)
	}
}

// runVM executes a compilation on the bytecode VM and returns its
// transcript. The two halves are separate spans: building the machine
// and running it.
func runVM(c *compiled, tr *Tracer, op int) (string, *vm.Machine, *vm.Result, error) {
	var out bytes.Buffer
	sp := tr.Begin("vm.new", -1, op)
	m, err := vm.New(c.comp.LIR, vm.Options{Out: &out, Bounds: c.comp.Bounds})
	tr.End(sp)
	if err != nil {
		return "", nil, nil, err
	}
	sp = tr.Begin("vm.run", -1, op)
	res, err := m.Run()
	tr.End(sp)
	return out.String(), m, res, err
}

// runDist executes a p=2 compilation on the goroutine SPMD interpreter.
func runDist(c *compiled, tr *Tracer, op int) (string, error) {
	var out bytes.Buffer
	sp := tr.Begin("distvm.run", -1, op)
	_, err := distvm.Run(c.comp.LIR, distvm.Options{Procs: 2, Out: &out})
	tr.End(sp)
	return out.String(), err
}

// checkRun executes a compiled cell on its interpreter and compares
// the transcript with the committed reference.
func checkRun(c cell, cc *compiled) error {
	var got string
	var err error
	if c.dist {
		got, err = runDist(cc, nil, 0)
	} else {
		got, _, _, err = runVM(cc, nil, 0)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c, err)
	}
	want, err := expected(c.prog.Name, c.n, c.dist)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: output %q, reference %q", c, got, want)
	}
	return nil
}

// batchTarget is how long one compile sample should last. A compile
// allocates a few megabytes, so at the runtime's minimum heap a
// collection cycle lands in every second or third operation and a
// single short compile is bimodal; a sample is therefore a batch of
// compiles long enough to take several cycles, timed as a whole.
const (
	batchTarget = 15 * time.Millisecond
	maxBatch    = 32
)

// runCompile is the compile workload: every program at both ends of
// the ladder, sequentially and for two processors, at DefaultSize.
// All the work is in the compiler's phases and none in any executor.
func runCompile(p params) *Result {
	r := newResult("compile", p)
	var cells []cell
	for _, b := range benchPrograms(p.smoke) {
		n := b.DefaultSize
		if p.smoke {
			n = interpSize(b, true)
		}
		for _, lvl := range ladderEnds {
			cells = append(cells, cell{b, lvl, false, n}, cell{b, lvl, true, n})
		}
	}
	rng := rand.New(rand.NewSource(p.seed))
	speed := &speedLog{}

	// Set-up is a warm-up pass; it is cheap, so it is repeated and the
	// median reported. The last pass's programs are run and checked.
	warm := make([]*compiled, len(cells))
	warmMS := make([]float64, len(cells))
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		pass := 0.0
		for _, i := range rng.Perm(len(cells)) {
			var err error
			d, f := speed.timed(func() { warm[i], err = compileOp(cells[i], nil, 0) })
			if err != nil {
				return r.abort(err)
			}
			warmMS[i] = ms(d)
			pass += d.Seconds() / f
		}
		setups = append(setups, pass)
		betweenPasses()
	}
	r.Values["setup_s"] = median(setups)
	for i, c := range cells {
		r.Attempted++
		if err := checkRun(c, warm[i]); err != nil {
			r.fail(1, "%v", err)
		}
	}
	addCounts(r, warm)
	batch := make([]int, len(cells))
	for i := range batch {
		batch[i] = int(ms(batchTarget)/warmMS[i]) + 1
		if batch[i] > maxBatch {
			batch[i] = maxBatch
		}
		if p.smoke {
			batch[i] = 1
		}
	}

	passes := p.scaled(11, 2)
	samples := make([][]float64, len(cells))
	acc := newLayerAcc(len(cells))
	for pass := 0; pass < passes; pass++ {
		for _, i := range rng.Perm(len(cells)) {
			reps := batch[i]
			marks := []int{p.tr.Len()}
			bad := 0
			d, f := speed.timed(func() {
				for k := 0; k < reps; k++ {
					cc, err := compileOp(cells[i], p.tr, (pass*len(cells)+i)*maxBatch+k)
					switch {
					case err != nil:
						bad++
						r.fail(1, "%v", err)
					case cc.sig != warm[i].sig:
						bad++
						r.fail(1, "%s: census %+v differs from the checked warm-up compile's %+v", cells[i], cc.sig, warm[i].sig)
					}
					marks = append(marks, p.tr.Len())
				}
			})
			r.Attempted += reps
			if bad > 0 {
				continue
			}
			samples[i] = append(samples[i], ms(d)/f/float64(reps))
			for k := 0; p.tr != nil && k < reps; k++ {
				acc.addSpans(i, p.tr.Range(marks[k], marks[k+1]), marks[k], f)
			}
		}
		betweenPasses()
	}

	var meds, distMeds []float64
	for i, c := range cells {
		s := summarize(samples[i])
		meds = append(meds, s.P50)
		if c.dist {
			distMeds = append(distMeds, s.P50)
		}
		r.Rows = append(r.Rows, fmt.Sprintf("%s  compile_ms %s", c, s))
	}
	r.Values["compile_ms"] = geomean(meds)
	r.Values["compile_dist_ms"] = geomean(distMeds)
	r.Values["op_ms_p50"] = r.Values["compile_ms"]
	r.Values["alt_ms_p50"] = r.Values["compile_dist_ms"]
	r.Values["ops_per_s"] = perSecond(meds)
	if p.tr != nil {
		acc.report(r)
		// The phases must account for the compile: what is left over is
		// the driver's own time between phases.
		total := 0.0
		for _, n := range acc.names() {
			if n != "gogen.emit" {
				total += acc.ms(n)
			}
		}
		r.Notes = append(r.Notes, fmt.Sprintf("driver.compile self time (inside the compile, outside every phase span): %.2f%% of the compile",
			100*acc.ms("driver.compile")/total))
	}
	speed.report(r)
	r.finish()
	return r
}
