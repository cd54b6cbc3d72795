package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in changes speed under it: fixed
// work takes between 0.95 and 1.7 times its best time from one second
// to the next (CPU frequency states and a shared host), and stays off
// for seconds at a stretch, so no amount of repetition inside a
// ten-second run averages it out. Every timed sample is therefore
// bracketed by two runs of a fixed piece of work, the probe, and divided
// by how slow the probe was: times are reported at reference speed, the
// speed at which the probe takes its reference time. A sample a few
// milliseconds long sees the same machine state as the probes on either
// side of it.
//
// The probe has two parts because the slow states do not slow all code
// alike. A floating-point dependency chain leaves most of the core
// idle and barely notices a busy sibling thread or a thrashed cache;
// random loads from a 256 KB table notice it three times as much as
// the programs measured here do. Over five-second windows a compile, a
// VM run, a lazy Eval and a native run each follow the blend below more
// closely than either part (residual 3-4% against 4-6% for the chain
// alone, with 7-13% of raw drift).
//
// What this cannot remove is noise that hits the sample and not the
// probe (a pre-emption in mid-operation, a garbage collection); medians
// over many samples deal with that.

const (
	probeChainIters = 300_000
	probeTableIters = 40_000
	// The parts' durations on the reference box (2 cores, this sandbox)
	// in its usual state. They only fix the scale: on another machine
	// all times shift by one common factor.
	probeChainRefNS = 195e3
	probeTableRefNS = 74e3
	// The table part's weight in the geometric blend.
	probeTableShare = 0.25
)

// probeTable is read-only after start-up, so concurrent probes share it.
var probeTable = func() []uint64 {
	t := make([]uint64, 1<<15)
	x := uint64(1)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = x
	}
	return t
}()

// probeSink keeps the loops' results alive; atomic because the serve
// workloads' clients probe concurrently.
var probeSink atomic.Uint64

// probe runs the fixed work once and returns the speed factor: how many
// times slower than reference the machine is right now.
func probe() float64 {
	t0 := time.Now()
	s := 0.0
	for i := 0; i < probeChainIters; i++ {
		s += float64(i) * 1.0000001
	}
	t1 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	mask := uint64(len(probeTable) - 1)
	for i := 0; i < probeTableIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := probeTable[(x>>33)&mask]
		acc += v
		if v&1 == 0 {
			acc += x >> 7
		}
	}
	t2 := time.Now()
	probeSink.Store(math.Float64bits(s) ^ acc)
	chain := float64(t1.Sub(t0)) / probeChainRefNS
	table := float64(t2.Sub(t1)) / probeTableRefNS
	return math.Pow(chain, 1-probeTableShare) * math.Pow(table, probeTableShare)
}

// speedLog keeps every factor observed, for the run's report. It is
// safe for the concurrent clients of the serve workloads.
type speedLog struct {
	mu      sync.Mutex
	factors []float64
}

// timed runs f between two probes. It returns f's duration as measured
// and the speed factor to divide it by.
func (s *speedLog) timed(f func()) (time.Duration, float64) {
	a := probe()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b := probe()
	s.add(a, b)
	return d, (a + b) / 2
}

// len is the number of factors logged so far.
func (s *speedLog) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.factors)
}

// since returns the mean factor over the probes logged from index from
// on: the factor for a long stretch (set-up, a serve pass) that
// contains many probes.
func (s *speedLog) since(from int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.factors[from:]
	if len(fs) == 0 {
		return 1
	}
	sum := 0.0
	for _, f := range fs {
		sum += f
	}
	return sum / float64(len(fs))
}

// add logs factors probed elsewhere.
func (s *speedLog) add(fs ...float64) {
	s.mu.Lock()
	s.factors = append(s.factors, fs...)
	s.mu.Unlock()
}

// mark logs one probe; long untimed stretches call it at their natural
// checkpoints so that since has something to average.
func (s *speedLog) mark() { s.add(probe()) }

func (s *speedLog) report(r *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.factors) > 0 {
		sum := summarize(s.factors)
		r.Notes = append(r.Notes, "machine speed factor over the run (1 = reference, higher = slower): "+sum.String())
	}
}
