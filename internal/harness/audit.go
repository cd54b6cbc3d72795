package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/liveness"
	"repro/internal/remark"
)

// AuditRow is one (benchmark, level) audit of the optimizer's remarks:
// the remarks are re-derived from the final plan and cross-checked
// against it, so the row proves (or refutes, via Problems) that every
// negative decision carries a machine-readable explanation.
type AuditRow struct {
	Benchmark    string
	Level        core.Level
	UnfusedPairs int // edge-connected cluster pairs left unfused
	Uncontracted int // candidates and temporaries left uncontracted
	Remarks      int // total remarks recorded by the plan
	Problems     []string
}

// dependence-test IDs whose remarks must name a witness edge: the
// failure is a property of one concrete ASDG edge, so an explanation
// without the edge (variable, distance vector, dependence type) is
// unauditable.
var edgeTests = map[string]bool{
	remark.TestOrderingOnly:  true,
	remark.TestNullFlow:      true,
	remark.TestCarriedAnti:   true,
	remark.TestLoopStructure: true,
	remark.TestConfined:      true,
	remark.TestNullVector:    true,
}

// AuditRemarks compiles every built-in benchmark (the Fig. 7/8 suite)
// at each level and asserts the remark completeness property:
//
//   - every ASDG edge joining two distinct final clusters identifies a
//     fusible-candidate pair that was not fused; that pair has exactly
//     one not-fused remark, and no remark names a pair without such an
//     edge;
//   - every contraction candidate has exactly one contracted or
//     not-contracted remark, and every referenced compiler temporary
//     that ends up uncontracted has exactly one not-contracted remark
//     (from the contraction pass or the liveness pre-pass);
//   - every remark whose failed test is a dependence test names the
//     blocking edge with its variable, distance vector, and dependence
//     type.
func AuditRemarks(e *Env, levels []core.Level) ([]AuditRow, error) {
	return eachCell(e, grid(levels), func(c cell) (AuditRow, error) {
		comp, err := driver.Compile(c.b.Source, c.options(nil))
		if err != nil {
			return AuditRow{}, err
		}
		return auditOne(c.b.Name, c.lvl, comp), nil
	})
}

// AuditProblems counts the property violations across rows.
func AuditProblems(rows []AuditRow) int {
	n := 0
	for _, r := range rows {
		n += len(r.Problems)
	}
	return n
}

func auditOne(name string, lvl core.Level, c *driver.Compilation) AuditRow {
	remarks := c.Plan.Remarks()
	row := AuditRow{Benchmark: name, Level: lvl, Remarks: len(remarks)}
	problem := func(format string, args ...any) {
		row.Problems = append(row.Problems, fmt.Sprintf(format, args...))
	}

	// Index the plan's remarks by subject.
	type pairKey struct{ block, a, b int }
	notFused := map[pairKey]int{}
	notContracted := map[string]int{}
	contracted := map[string]int{}
	for _, r := range remarks {
		switch {
		case r.Kind == remark.NotFused && r.Pair != nil:
			notFused[pairKey{r.Block, r.Pair[0], r.Pair[1]}]++
		case r.Kind == remark.NotContracted:
			notContracted[r.Array]++
		case r.Kind == remark.Contracted:
			contracted[r.Array]++
		}
		if r.Negative() && edgeTests[r.Test] {
			switch {
			case r.Edge == nil:
				problem("%s remark for %s fails %s but names no blocking edge", r.Kind, r.Subject(), r.Test)
			case r.Edge.Var == "" || r.Edge.Vector == "" || r.Edge.Dep == "":
				problem("%s remark for %s has an incomplete edge witness (var=%q vector=%q dep=%q)",
					r.Kind, r.Subject(), r.Edge.Var, r.Edge.Vector, r.Edge.Dep)
			}
		}
	}

	// Re-derive the unfused pairs from the final partitions.
	expected := map[pairKey]bool{}
	for bi, bp := range c.Plan.Blocks {
		g, p := bp.Graph, bp.Part
		for ei := range g.Edges {
			e := &g.Edges[ei]
			a, cc := p.ClusterOf(e.From), p.ClusterOf(e.To)
			if a == cc {
				continue
			}
			if cc < a {
				a, cc = cc, a
			}
			expected[pairKey{bi, a, cc}] = true
		}
	}
	row.UnfusedPairs = len(expected)
	for k := range expected {
		switch n := notFused[k]; {
		case n == 0:
			problem("unfused pair {v%d, v%d} in block %d has no remark", k.a, k.b, k.block)
		case n > 1:
			problem("unfused pair {v%d, v%d} in block %d has %d remarks, want exactly 1", k.a, k.b, k.block, n)
		}
	}
	for k := range notFused {
		if !expected[k] {
			problem("not-fused remark for {v%d, v%d} in block %d matches no partition edge", k.a, k.b, k.block)
		}
	}

	// Re-derive the contraction subjects: every candidate, plus every
	// referenced compiler temporary (candidate or not).
	_, verdicts := liveness.Explain(c.AIR)
	for _, v := range verdicts {
		temp := false
		if a := c.AIR.Arrays[v.Array]; a != nil {
			temp = a.Temp
		}
		switch {
		case c.Plan.Contracted[v.Array]:
			if n := contracted[v.Array]; n != 1 {
				problem("contracted array %s has %d remarks, want exactly 1", v.Array, n)
			}
		case v.Candidate || temp:
			row.Uncontracted++
			if n := notContracted[v.Array]; n != 1 {
				problem("uncontracted %s has %d remarks, want exactly 1", v.Array, n)
			}
		}
	}
	return row
}

// FormatAudit renders the audit table, listing any violations under
// the offending row.
func FormatAudit(rows []AuditRow) string {
	var b strings.Builder
	b.WriteString("Remark audit: every unfused pair and uncontracted array explained\n\n")
	fmt.Fprintf(&b, "%-10s %-8s %13s %13s %8s %9s\n",
		"app", "level", "unfused pairs", "uncontracted", "remarks", "problems")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %13d %13d %8d %9d\n",
			r.Benchmark, r.Level, r.UnfusedPairs, r.Uncontracted, r.Remarks, len(r.Problems))
		for _, p := range r.Problems {
			fmt.Fprintf(&b, "    PROBLEM: %s\n", p)
		}
	}
	if n := AuditProblems(rows); n > 0 {
		fmt.Fprintf(&b, "\nAUDIT FAILED: %d problem(s)\n", n)
	} else {
		b.WriteString("\naudit clean: every negative decision carries a machine-readable explanation\n")
	}
	return b.String()
}
