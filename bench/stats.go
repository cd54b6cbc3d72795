package main

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes one timing's samples the way the choosing-metrics
// guide asks: sample count, median, quartiles, and the highest
// percentile that still has at least ten samples beyond it.
type Summary struct {
	N     int     `json:"n"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	HiPct float64 `json:"hi_pct"` // which percentile Hi is (0 when N < 20)
	Hi    float64 `json:"hi"`
	Mean  float64 `json:"mean"`
}

// percentile reads the p-th percentile (0..100) of an ascending slice
// by linear interpolation between the two nearest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// hiPercentile picks the highest reportable percentile for n samples:
// the largest of 50, 75, 90, 95, 99, 99.9 with at least ten samples
// beyond it, or 0 when even the median has fewer.
func hiPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 750, 900, 950, 990, 999} {
		if n*(1000-permille) >= 10*1000 {
			best = float64(permille) / 10
		}
	}
	return best
}

func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	out := Summary{
		N:    len(s),
		P25:  percentile(s, 25),
		P50:  percentile(s, 50),
		P75:  percentile(s, 75),
		Mean: sum / float64(len(s)),
	}
	if hp := hiPercentile(len(s)); hp > 0 {
		out.HiPct, out.Hi = hp, percentile(s, hp)
	}
	return out
}

func (s Summary) String() string {
	hi := ""
	if s.HiPct > 75 {
		hi = fmt.Sprintf(" p%g=%.4g", s.HiPct, s.Hi)
	}
	return fmt.Sprintf("n=%d p25=%.4g p50=%.4g p75=%.4g%s", s.N, s.P25, s.P50, s.P75, hi)
}

func median(xs []float64) float64 { return summarize(xs).P50 }

// percentileOf is percentile for an unsorted slice.
func percentileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// geomean is the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// run-to-run spread is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th quartile cut, 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // computed after the clamp, as Python does
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the run-to-run spread of a metric: the distance between
// the first and third quartile as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
