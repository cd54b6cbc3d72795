package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
)

// Fig7Row is one benchmark's static array accounting.
type Fig7Row struct {
	Benchmark     string
	Before        int // static arrays without contraction
	BeforeTemp    int // of which compiler temporaries
	BeforeUser    int
	After         int // static arrays with contraction (c2)
	PctChange     float64
	PaperBefore   int // the original codes' counts, for reference
	PaperAfter    int
	PaperScalarEq int // arrays in the hand-written scalar versions
}

// paperFig7 records the published Fig. 7 numbers for side-by-side
// presentation (our benchmarks are scaled re-expressions; ratios are
// the comparison target).
var paperFig7 = map[string][3]int{
	"ep":      {22, 0, 1},
	"frac":    {8, 1, -1}, // scalar column unavailable in the text
	"sp":      {181, 56, 48},
	"tomcatv": {19, 7, 7},
	"simple":  {85, 32, 32},
	"fibro":   {49, 27, -1}, // ZPL-only: no scalar equivalent
}

// RunFig7 compiles every benchmark with and without contraction and
// counts static arrays.
func RunFig7(e *Env) ([]Fig7Row, error) {
	return eachCell(e, grid([]core.Level{core.C2F3}), func(cl cell) (Fig7Row, error) {
		b := cl.b
		c, err := driver.Compile(b.Source, cl.options(nil))
		if err != nil {
			return Fig7Row{}, err
		}
		counts := core.CountStaticArrays(c.AIR, c.Plan)
		row := Fig7Row{
			Benchmark:  b.Name,
			Before:     counts.Before(),
			BeforeTemp: counts.TotalCompiler,
			BeforeUser: counts.TotalUser,
			After:      counts.After(),
		}
		if row.Before > 0 {
			row.PctChange = 100 * float64(row.After-row.Before) / float64(row.Before)
		}
		if p, ok := paperFig7[b.Name]; ok {
			row.PaperBefore, row.PaperAfter, row.PaperScalarEq = p[0], p[1], p[2]
		}
		return row, nil
	})
}

// FormatFig7 renders the table.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: static arrays contracted (compiler/user split)\n\n")
	fmt.Fprintf(&b, "%-10s %18s %8s %9s   %18s\n",
		"app", "w/o contr. (c/u)", "with", "% change", "paper (w/o -> w/)")
	for _, r := range rows {
		paper := "-"
		if r.PaperBefore > 0 {
			paper = fmt.Sprintf("%d -> %d", r.PaperBefore, r.PaperAfter)
		}
		fmt.Fprintf(&b, "%-10s %10d (%d/%d) %8d %8.1f%%   %18s\n",
			r.Benchmark, r.Before, r.BeforeTemp, r.BeforeUser,
			r.After, r.PctChange, paper)
	}
	return b.String()
}
