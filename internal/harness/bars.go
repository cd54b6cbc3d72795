package harness

import (
	"fmt"
	"math"
	"strings"
)

// FormatMachineBars renders one machine's ladder as horizontal bar
// charts, the visual form of the paper's Figures 9–11. Each benchmark
// gets a group of bars (one per transformation) at the given processor
// count; negative bars extend left of the axis, as in the paper
// ("negative bars represent slowdown").
func (r *PerfResult) FormatMachineBars(mach string, procs int, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, p=%d: %% improvement over baseline\n\n", mach, procs)

	benches, _, levels := r.axes()
	for _, bench := range benches {
		// Scale each benchmark's group independently, as the paper's
		// per-benchmark graphs do (their y-axes differ).
		maxAbs := 1.0
		for _, lvl := range levels {
			if pt := r.Point(bench, procs, lvl); pt != nil {
				maxAbs = max(maxAbs, math.Abs(pt.Improvement[mach]))
			}
		}
		scale := float64(width) / maxAbs
		fmt.Fprintf(&b, "%s\n", bench)
		for _, lvl := range levels {
			pt := r.Point(bench, procs, lvl)
			if pt == nil {
				continue
			}
			v := pt.Improvement[mach]
			n := int(v * scale)
			var bar string
			if n >= 0 {
				bar = strings.Repeat(" ", width) + "|" + strings.Repeat("#", n)
			} else {
				bar = strings.Repeat(" ", width+n) + strings.Repeat("#", -n) + "|"
			}
			fmt.Fprintf(&b, "  %-7s %s %+.1f%%\n", lvl, bar, v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
