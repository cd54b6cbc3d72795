package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {25, 20}, {50, 30}, {90, 46}, {100, 50}} {
		if got := percentile(s, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
	if got := percentileOf([]float64{50, 10, 30, 20, 40}, 50); got != 30 {
		t.Errorf("percentileOf must sort first, got %v", got)
	}
}

// The highest percentile reported must leave at least ten samples
// beyond it.
func TestHiPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9000, 99}, {10000, 99.9}} {
		if got := hiPercentile(c.n); got != c.want {
			t.Errorf("hiPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 101)
	for i := 100; i >= 0; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 101 || s.P25 != 25 || s.P50 != 50 || s.P75 != 75 || s.Mean != 50 {
		t.Errorf("summarize = %+v", s)
	}
	if s.HiPct != 90 || s.Hi != 90 {
		t.Errorf("highest percentile = p%v %v, want p90 90", s.HiPct, s.Hi)
	}
	if xs[0] != 100 {
		t.Error("summarize must not reorder its input")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if geomean(nil) != 0 || geomean([]float64{3, 0}) != 0 {
		t.Error("geomean of nothing, or of a non-positive value, should be 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// the rule the acceptance check for run-to-run spread is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([3,1,4,1,5,9,2,6], n=4) -> [1.25, 3.5, 5.75]
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		// statistics.quantiles([1,2], n=4) -> [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([10,20,40], n=4) -> [10.0, 20.0, 40.0]
		{[]float64{10, 20, 40}, 10, 20, 40},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one run has no spread")
	}
}
