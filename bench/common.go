package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// params is what one workload run is given.
type params struct {
	seed    int64
	seconds float64 // how long the timed part should take on the reference box
	smoke   bool    // tiny sizes and counts, for the unit tests
	tr      *Tracer // nil for the untraced run
	tmp     string  // scratch directory, removed by the caller
}

// scaled turns a count calibrated for a 10-second run into the count
// for this run, never below min. Work is a function of the arguments
// alone, so counts repeat exactly from run to run.
func (p params) scaled(perTenSeconds, min int) int {
	n := int(math.Round(float64(perTenSeconds) * p.seconds / 10))
	if n < min {
		n = min
	}
	return n
}

// mkdir makes a fresh directory under the run's scratch directory.
func (p params) mkdir(name string) (string, error) {
	return os.MkdirTemp(p.tmp, name+"-")
}

// Result is one workload run.
type Result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Elapsed   float64            `json:"elapsed_s"` // set-up and checks included
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"metrics"`
	Timings   map[string]Summary `json:"timings"`
	Rows      []string           `json:"-"` // per-cell lines, printed under the geomeans
	Notes     []string           `json:"notes,omitempty"`
	Fails     []string           `json:"fails,omitempty"` // the first few failure reasons
}

func newResult(workload string, p params) *Result {
	return &Result{Workload: workload, Seed: p.seed, Seconds: p.seconds,
		Values: map[string]float64{}, Timings: map[string]Summary{}}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *Result) fail(n int, format string, args ...interface{}) {
	r.Failed += n
	if len(r.Fails) < 8 {
		r.Fails = append(r.Fails, fmt.Sprintf(format, args...))
	}
}

// abort records a failure that stops the workload: whatever it had
// still to attempt counts as one failed operation.
func (r *Result) abort(err error) *Result {
	r.Attempted++
	r.fail(1, "aborted: %v", err)
	r.finish()
	return r
}

// timing stores a sample set under name and returns its summary.
func (r *Result) timing(name string, xs []float64) Summary {
	s := summarize(xs)
	r.Timings[name] = s
	return s
}

func (r *Result) finish() {
	if r.Attempted > 0 {
		r.Values["fail_ratio"] = float64(r.Failed) / float64(r.Attempted)
	}
	r.Values["bench.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupReps is how often a workload whose set-up takes under a second
// repeats it; setup_s is then the median.
const setupReps = 5

// betweenPasses settles the heap so one pass's garbage is not
// collected on the next pass's clock.
func betweenPasses() { runtime.GC() }

// layerAcc collects, per span name and per cell, a layer's self time
// in each traced operation. A layer's reported time is the mean over
// all cells of the per-cell median, so the layers of one operation add
// up to the operation (a cell that never enters a layer counts as 0).
type layerAcc struct {
	cells   int
	samples map[string][][]float64
}

func newLayerAcc(cells int) *layerAcc {
	return &layerAcc{cells: cells, samples: map[string][][]float64{}}
}

func (a *layerAcc) add(cell int, name string, millis float64) {
	if a.samples[name] == nil {
		a.samples[name] = make([][]float64, a.cells)
	}
	a.samples[name][cell] = append(a.samples[name][cell], millis)
}

// addSpans folds the self times of one operation's spans in, at
// reference speed (factor is the operation's speed factor).
func (a *layerAcc) addSpans(cell int, spans []Span, base int, factor float64) {
	for name, ns := range selfTimes(spans, base) {
		a.add(cell, name, float64(ns)/1e6/factor)
	}
}

func (a *layerAcc) ms(name string) float64 {
	sum := 0.0
	for _, xs := range a.samples[name] {
		if len(xs) > 0 {
			sum += median(xs)
		}
	}
	return sum / float64(a.cells)
}

func (a *layerAcc) names() []string {
	var out []string
	for n := range a.samples {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// spanMetric maps span names to the per-layer metric they feed.
var spanMetric = map[string]string{
	"parser.parse": "parser.parse_ms", "sema.check": "sema.check_ms", "lower.lower": "lower.lower_ms",
	"comm.insert": "comm.insert_ms", "core.asdg": "core.asdg_ms", "core.fusion": "core.fusion_ms",
	"core.contraction": "core.contraction_ms", "scalarize.scalarize": "scalarize.scalarize_ms",
	"absint.prove": "absint.prove_ms", "mhp.race": "mhp.race_ms", "gogen.emit": "gogen.emit_ms",
	"vm.new": "vm.new_ms", "vm.run": "vm.run_ms", "distvm.run": "distvm.run_ms",
}

// report copies the accumulated layer times into the result.
func (a *layerAcc) report(r *Result) {
	for span, metric := range spanMetric {
		if _, ok := a.samples[span]; ok {
			r.Values[metric] = a.ms(span)
		}
	}
}
