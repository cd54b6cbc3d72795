package phase

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0 (<= 1µs)
	h.Observe(3 * time.Microsecond)  // bucket 2 (<= 4µs)
	h.Observe(time.Hour)             // overflow bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Buckets[0] != 1 || s.Buckets[2] != 1 || s.Buckets[NumBuckets-1] != 1 {
		t.Errorf("bucket spread wrong: %v", s.Buckets)
	}
	if want := time.Hour + 3500*time.Nanosecond; s.Sum != want {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
}

func TestStartEndPairs(t *testing.T) {
	c := NewCollector()
	start, end := c.StartEnd()
	start("parse")
	end("parse")
	end("never-started") // must be a no-op, not a corrupt observation
	s := c.Hist("parse").Snapshot()
	if s.Count != 1 {
		t.Fatalf("parse count = %d, want 1", s.Count)
	}
	if c.Hist("never-started").Snapshot().Count != 0 {
		t.Error("unmatched end recorded an observation")
	}
}

// TestCollectorConcurrent exercises many compilations' worth of hook
// pairs feeding one collector; run with -race.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start, end := c.StartEnd()
			for j := 0; j < 100; j++ {
				start("sema")
				end("sema")
			}
		}()
	}
	wg.Wait()
	if n := c.Hist("sema").Snapshot().Count; n != 3200 {
		t.Errorf("count = %d, want 3200", n)
	}
	if names := c.Names(); len(names) != 1 || names[0] != "sema" {
		t.Errorf("names = %v", names)
	}
}
