// Command bench is the repository's benchmark: seven named workloads
// that each stress different layers of the ZA compiler, its three
// execution engines, the lazy library and the compile service, with
// every output checked against a committed reference or a hand-written
// kernel. See README.md for the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root is the contract the
// driver runs this against.
//
//	bash bench/run.sh [-workload name|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-out file.json] [-compare a.json b.json] [-smoke] [-freeze]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	main string // the named metric whose traced/untraced ratio is the tracing overhead
	run  func(p params) *Result
}

var workloads = []workload{
	{"compile", "24 compile cells (6 programs x ladder ends x sequential/p=2): all work is in the compiler phases, none in any executor; p=2 cells are where fusion time explodes",
		"compile_ms", runCompile},
	{"run-interp", "both LIR interpreters (vm, distvm p=2) on the same 12 program x level cells, compile excluded: the paper's contraction claim and the vm-distvm gap",
		"run_ms", runInterp},
	{"run-go", "the same 12 cells built natively at 8x size, where compute is most of the wall clock and the VM does nothing: emitted-loop quality, spawn and go build",
		"run_ms", runGo},
	{"lazy-small", "zpl Jacobi at n=32 on both backends: 8 KB arrays, so cost is per-Eval overhead only (canonicalise, cache lookup, seed/readback, exec and state files)",
		"vm_eval_us_p50", runLazy("lazy-small", 32, 200, 10000, 2800)},
	{"lazy-large", "the same solver at n=512: compute- and state-bandwidth-bound, so kernel speed shows here and per-Eval overhead does not",
		"vm_eval_us_p50", runLazy("lazy-large", 512, 20, 170, 170)},
	{"serve-1node", "one zpld with a disk tier, unique keys, one phase per tier: cold = full compile, disk = decode after restart, hot = memory hit plus HTTP",
		"hot_ms_p50", runServe1},
	{"serve-3node", "three clustered zpld: the peer tier, claim/lease and exactly-once compile path that serve-1node bypasses entirely",
		"hot_ms_p50", runServe3},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload performs one run. Untraced, it measures for p.seconds.
// Traced, it splits the time: an untraced half supplies the end-to-end
// numbers, a traced half the per-layer ones, and the gap between the
// two on the workload's main metric is the tracing overhead.
func runWorkload(w workload, p params, traceDir string) (*Result, error) {
	tmp, err := os.MkdirTemp("", "zplbench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	p.tmp = tmp
	start := time.Now()
	if traceDir == "" {
		r := w.run(p)
		r.Elapsed = time.Since(start).Seconds()
		return r, nil
	}
	p.seconds /= 2
	plain := w.run(p)
	p.tr = newTracer()
	traced := w.run(p)
	path, err := p.tr.Write(traceDir, w.name)
	if err != nil {
		return nil, err
	}
	// Layer values come from the traced half; the end-to-end rows are
	// overwritten with the untraced half's.
	out := traced
	out.Traced = true
	out.Attempted += plain.Attempted
	out.Failed += plain.Failed
	out.Fails = append(plain.Fails, out.Fails...)
	if base := plain.Values[w.main]; base > 0 {
		out.Values["bench.trace_overhead_pct"] = 100 * (traced.Values[w.main] - base) / base
	}
	for _, set := range [][]Metric{endToEnd, named} {
		for _, m := range set {
			if v, ok := plain.Values[m.Name]; ok {
				out.Values[m.Name] = v
			}
		}
	}
	for name, s := range plain.Timings {
		out.Timings[name] = s
	}
	out.Rows = plain.Rows
	out.finish()
	out.Elapsed = time.Since(start).Seconds()
	out.Notes = append(out.Notes, fmt.Sprintf("%d spans written to %s", p.tr.Len(), path))
	return out, nil
}

// print writes every metric the run produced, by name and with its
// unit, then the sample sets and the per-cell rows.
func (r *Result) print() {
	fmt.Printf("\n== %s  seed=%d seconds=%g traced=%v  attempted=%d failed=%d  elapsed=%.1fs\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.Elapsed)
	section := func(title string, set []Metric) {
		first := true
		for _, m := range set {
			v, ok := r.Values[m.Name]
			if !ok {
				continue
			}
			if first {
				fmt.Printf("-- %s\n", title)
				first = false
			}
			note := ""
			switch {
			case m.Bound > 0:
				note = fmt.Sprintf("  (%s is better, bound %g)", m.Better, m.Bound)
			case m.Moves != "":
				note = "  -> " + m.Moves
			}
			fmt.Printf("%-30s %14.6g %-5s%s\n", m.Name, v, m.Unit, note)
		}
	}
	section("end-to-end, gated by the driver", endToEnd)
	section("end-to-end, by name", named)
	section("per layer", perLayer)
	var names []string
	for n := range r.Timings {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Println("-- sample sets")
	}
	for _, n := range names {
		fmt.Printf("%-34s %s\n", n, r.Timings[n])
	}
	if len(r.Rows) > 0 {
		fmt.Println("-- per cell")
	}
	for _, row := range r.Rows {
		fmt.Println(row)
	}
	for _, n := range r.Notes {
		fmt.Println("note:", n)
	}
	for _, f := range r.Fails {
		fmt.Println("FAILED:", f)
	}
}

// contractLine is the driver's result line: with tracing off, every
// end-to-end metric; with tracing on, every per-layer metric (0 for a
// layer the workload does not enter).
func contractLine(rs []*Result, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	set := endToEnd
	if traced {
		set = tracedMetrics()
	}
	for _, r := range rs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range set {
			name := m.Name
			if len(rs) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = value{r.Values[m.Name], m.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// runFile is what -out writes and -compare reads: every run appended
// in turn, so one file can hold the repeats a spread is computed from.
type runFile struct {
	Runs []*Result `json:"runs"`
}

func readRuns(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRuns(path string, rs []*Result) error {
	f := &runFile{}
	if old, err := readRuns(path); err == nil {
		f = old
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, rs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSeconds is the run length BENCHMARK.json fixes; the workloads'
// counts are calibrated for it.
const runSeconds = 12

// manifestJSON renders BENCHMARK.json from the tables.
func manifestJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, x := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{x.Name, x.Unit, x.Better, x.Bound})
	}
	for _, x := range tracedMetrics() {
		m.PerLayer = append(m.PerLayer, layer{x.Name, x.Unit, x.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(out) + "\n"
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the cell shuffle and the request generator")
	seconds := flag.Float64("seconds", runSeconds, "how long the timed part should take (work is scaled from this)")
	trace := flag.String("trace", "0", "1 = also run with span recording and report the per-layer metrics")
	outPath := flag.String("out", "", "append the run(s) to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: old.json new.json")
	smoke := flag.Bool("smoke", false, "tiny sizes and counts (the unit tests' setting)")
	doFreeze := flag.Bool("freeze", false, "regenerate expected/ after checking that all engines agree")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()

	if *manifest {
		fmt.Print(manifestJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare old.json new.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *doFreeze {
		if err := freeze("."); err != nil {
			fmt.Fprintln(os.Stderr, "freeze:", err)
			return 1
		}
		return 0
	}
	traced, err := strconv.ParseBool(*trace) // the driver passes 0 or 1
	if err != nil || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bad arguments:", err, flag.Args())
		flag.Usage()
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	traceDir := ""
	if traced {
		traceDir = defaultTraceDir()
	}

	var results []*Result
	for _, w := range todo {
		r, err := runWorkload(w, params{seed: *seed, seconds: *seconds, smoke: *smoke}, traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, w.name+":", err)
			return 1
		}
		r.print()
		results = append(results, r)
	}
	if *outPath != "" {
		if err := appendRuns(*outPath, results); err != nil {
			fmt.Fprintln(os.Stderr, "out:", err)
			return 1
		}
	}
	fmt.Println()
	fmt.Println(contractLine(results, traced))
	for _, r := range results {
		if r.Failed > 0 || r.Attempted == 0 {
			return 1
		}
	}
	return 0
}

// defaultTraceDir is bench/out when run from the repository root (the
// way run.sh does) and out when run from inside bench/.
func defaultTraceDir() string {
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		return "bench/out"
	}
	return "out"
}
