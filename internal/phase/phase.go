// Package phase accumulates per-phase latency distributions for the
// compilation pipeline. It is the substrate of the zpld service
// metrics: a request hands a pair of (PhaseStart, PhaseEnd) callbacks
// to driver.Options.Hooks and /metrics reads the aggregated histograms
// back out.
//
// A Collector is safe for concurrent use; the callback pair returned
// by StartEnd is not (each concurrent compilation gets its own pair,
// which is how the driver's per-request hooks work).
package phase

import (
	"sort"
	"sync"
	"time"
)

// NumBuckets is the number of exponential histogram buckets. Bucket i
// counts observations d with d <= Boundary(i); the last bucket is the
// overflow (+Inf) bucket.
const NumBuckets = 26

// Boundary returns the inclusive upper bound of bucket i: 1µs, 2µs,
// 4µs, ... doubling up to ~33s. Boundary(NumBuckets-1) is the +Inf
// overflow bucket.
func Boundary(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(1<<62 - 1)
	}
	return time.Microsecond << uint(i)
}

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	buckets [NumBuckets]int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < NumBuckets-1 && d > Boundary(i) {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	h.buckets[i]++
	h.mu.Unlock()
}

// Snapshot is a consistent copy of a histogram's state.
type Snapshot struct {
	Count   int64
	Sum     time.Duration
	Buckets [NumBuckets]int64 // per-bucket counts (not cumulative)
}

// Snapshot copies the histogram under its lock.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Snapshot{Count: h.count, Sum: h.sum, Buckets: h.buckets}
}

// Collector aggregates named histograms; names are created on demand.
type Collector struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{hists: map[string]*Histogram{}}
}

// Hist returns the histogram for name, creating it if needed.
func (c *Collector) Hist(name string) *Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		h = &Histogram{}
		c.hists[name] = h
	}
	return h
}

// Observe records one duration under name.
func (c *Collector) Observe(name string, d time.Duration) {
	c.Hist(name).Observe(d)
}

// Names returns the recorded phase names, sorted.
func (c *Collector) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.hists))
	for n := range c.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StartEnd returns a (PhaseStart, PhaseEnd) callback pair that times
// phases into the collector. The pair carries the open-phase state of
// one sequential compilation, so each concurrent compilation must call
// StartEnd for its own pair; the collector they feed is shared and
// concurrency-safe.
func (c *Collector) StartEnd() (start, end func(name string)) {
	open := map[string]time.Time{}
	start = func(name string) { open[name] = time.Now() }
	end = func(name string) {
		if t0, ok := open[name]; ok {
			delete(open, name)
			c.Observe(name, time.Since(t0))
		}
	}
	return start, end
}
