package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/job"
	"repro/internal/programs"
)

// Fig8Row reports, for one benchmark, how contraction scales the
// maximum problem size that fits a fixed memory budget (§5.3).
type Fig8Row struct {
	Benchmark string
	LB        int     // simultaneously live arrays before contraction
	LA        int     // after contraction
	C         float64 // predicted % problem-size scaling: 100*(lb-la)/la

	// Measured largest problem sizes (per-dimension) under the budget.
	MaxWithout int
	MaxWith    int
	// Percent change along one dimension and in total volume.
	DimPct float64
	VolPct float64
}

// Fig8Budget is the array-memory budget used for the measured columns.
// (The paper used whole T3E/SP-2 nodes; any fixed budget exhibits the
// same scaling law.)
const Fig8Budget = int64(64 << 20) // 64 MB

// RunFig8 computes predicted and measured problem-size scaling. The
// per-benchmark binary searches are independent and run on the
// harness worker pool.
func RunFig8(e *Env) ([]Fig8Row, error) {
	return parallelMap(e, programs.All(), func(b programs.Benchmark) (Fig8Row, error) {
		row := Fig8Row{Benchmark: b.Name}

		// lb and la: arrays allocated at baseline versus c2, counting
		// only full-size arrays (the paper's model assumes uniform
		// array sizes; our benchmarks follow it except for the 1-D
		// sweep carriers, which we exclude from the count).
		base, err := driver.Compile(b.Source, driver.Options{Level: core.Baseline})
		if err != nil {
			return Fig8Row{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		opt, err := driver.Compile(b.Source, driver.Options{Level: core.C2F3})
		if err != nil {
			return Fig8Row{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		row.LB = countMainArrays(base, b.Rank)
		row.LA = countMainArrays(opt, b.Rank)
		if row.LA > 0 {
			row.C = 100 * float64(row.LB-row.LA) / float64(row.LA)
		} else {
			// Every array contracted: the scaled problem size is
			// unbounded (EP's "constant amount of memory").
			row.C = math.Inf(1)
		}

		row.MaxWithout, err = maxProblemSize(b, core.Baseline)
		if err != nil {
			return Fig8Row{}, err
		}
		row.MaxWith, err = maxProblemSize(b, core.C2F3)
		if err != nil {
			return Fig8Row{}, err
		}
		if row.MaxWithout > 0 {
			d := float64(row.MaxWith)/float64(row.MaxWithout) - 1
			row.DimPct = 100 * d
			vol := 1.0
			for i := 0; i < b.Rank; i++ {
				vol *= float64(row.MaxWith) / float64(row.MaxWithout)
			}
			row.VolPct = 100 * (vol - 1)
		}
		return row, nil
	})
}

// countMainArrays counts allocated (non-contracted) arrays of the
// benchmark's full rank.
func countMainArrays(c *driver.Compilation, rank int) int {
	n := 0
	for _, a := range c.AIR.Arrays {
		if !a.Contracted && a.Declared.Rank() == rank {
			n++
		}
	}
	return n
}

// maxProblemSize binary-searches the largest per-dimension size whose
// allocated array footprint fits the budget. EP contracts everything;
// its optimized footprint is size-independent, so the search is capped.
func maxProblemSize(b programs.Benchmark, lvl core.Level) (int, error) {
	limit := 1 << 14
	if b.Rank == 1 {
		limit = 1 << 24
	}
	fits := func(n int) (bool, error) {
		c, err := driver.Compile(b.Source, driver.Options{
			Level:   lvl,
			Configs: map[string]int64{b.SizeConfig: int64(n)},
		})
		if err != nil {
			return false, fmt.Errorf("%s n=%d: %w", b.Name, n, err)
		}
		price, err := job.Price(c, job.RunSpec{})
		return price <= Fig8Budget, err
	}
	lo, hi := 8, limit
	ok, err := fits(lo)
	if err != nil || !ok {
		return 0, err
	}
	if ok, err = fits(hi); err != nil {
		return 0, err
	} else if ok {
		return hi, nil // unbounded within the cap (fully contracted)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// FormatFig8 renders the table.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: effect of contraction on maximum problem size (budget %d MB)\n\n", Fig8Budget>>20)
	fmt.Fprintf(&b, "%-10s %4s %4s %9s   %12s %12s %10s %10s\n",
		"app", "lb", "la", "C", "max w/o", "max w/", "dim", "volume")
	for _, r := range rows {
		c := fmt.Sprintf("%8.1f%%", r.C)
		if math.IsInf(r.C, 1) {
			c = "     inf "
		}
		fmt.Fprintf(&b, "%-10s %4d %4d %s   %12d %12d %9.1f%% %9.1f%%\n",
			r.Benchmark, r.LB, r.LA, c, r.MaxWithout, r.MaxWith, r.DimPct, r.VolPct)
	}
	b.WriteString("\nC = 100*(lb-la)/la predicts the per-dimension growth when all\narrays share the problem size (§5.3).\n")
	return b.String()
}
