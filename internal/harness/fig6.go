package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/scalarize"
)

// Fig6Cell is one compiler × fragment observation.
type Fig6Cell struct {
	Proper bool
	Note   string
}

// Fig6Result is the full Fig. 6 table.
type Fig6Result struct {
	Compilers []string
	Fragments []programs.Fragment
	Cells     [][]Fig6Cell // [compiler][fragment]
}

// RunFig6 evaluates every emulated compiler on every Fig. 5 fragment
// and reports whether it produced the proper fused/contracted code.
func RunFig6() (*Fig6Result, error) {
	ems := core.Emulations()
	frags := programs.Fragments()
	res := &Fig6Result{Fragments: frags}
	for _, em := range ems {
		res.Compilers = append(res.Compilers, em.Name)
		var row []Fig6Cell
		for _, fr := range frags {
			cell, err := evalFragment(fr, em)
			if err != nil {
				return nil, fmt.Errorf("fragment %d under %s: %w", fr.Num, em.Name, err)
			}
			row = append(row, cell)
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// evalFragment compiles one fragment under one emulation and checks
// the fragment's expectation.
func evalFragment(fr programs.Fragment, em core.Emulation) (Fig6Cell, error) {
	prog, plan, err := CompileEmulated(fr.Source, em, nil)
	if err != nil {
		return Fig6Cell{}, err
	}
	if _, err := scalarize.Scalarize(prog, plan); err != nil {
		return Fig6Cell{}, err
	}
	exp := fr.Expect

	if exp.FusePair[0] != "" {
		for _, bp := range plan.Blocks {
			var va, vb = -1, -1
			for v := 0; v < bp.Graph.N(); v++ {
				if s := bp.Graph.ArrayStmt(v); s != nil {
					if s.LHS == exp.FusePair[0] {
						va = v
					}
					if s.LHS == exp.FusePair[1] {
						vb = v
					}
				}
			}
			if va >= 0 && vb >= 0 {
				if bp.Part.ClusterOf(va) == bp.Part.ClusterOf(vb) {
					return Fig6Cell{Proper: true, Note: "fused"}, nil
				}
				return Fig6Cell{Note: "not fused"}, nil
			}
		}
		return Fig6Cell{}, fmt.Errorf("fragment statements not found")
	}

	if exp.ContractCompilerTemp {
		temps := 0
		for name, a := range prog.Arrays {
			if !a.Temp {
				continue
			}
			temps++
			if !plan.Contracted[name] {
				return Fig6Cell{Note: "temp kept"}, nil
			}
		}
		if temps == 0 {
			return Fig6Cell{}, fmt.Errorf("no compiler temp was generated")
		}
		return Fig6Cell{Proper: true, Note: "temp contracted"}, nil
	}

	for _, u := range exp.ContractUser {
		if !plan.Contracted[u] {
			return Fig6Cell{Note: u + " kept"}, nil
		}
	}
	return Fig6Cell{Proper: true, Note: "contracted"}, nil
}

// Format renders the table in the paper's layout: one row per
// compiler, a check mark per properly handled fragment.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 6: observed behavior of five array language compilers\n")
	b.WriteString("(check = proper fused/contracted code for the Fig. 5 fragment)\n\n")
	fmt.Fprintf(&b, "%-22s", "compiler")
	for _, fr := range r.Fragments {
		fmt.Fprintf(&b, " (%d)", fr.Num)
	}
	b.WriteString("\n")
	for i, name := range r.Compilers {
		fmt.Fprintf(&b, "%-22s", name)
		for j := range r.Fragments {
			mark := " . "
			if r.Cells[i][j].Proper {
				mark = " ✓ "
			}
			fmt.Fprintf(&b, " %s", mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Marks returns the set of properly handled fragment numbers per
// compiler, for tests.
func (r *Fig6Result) Marks(compiler string) map[int]bool {
	for i, name := range r.Compilers {
		if name == compiler {
			out := map[int]bool{}
			for j, c := range r.Cells[i] {
				if c.Proper {
					out[r.Fragments[j].Num] = true
				}
			}
			return out
		}
	}
	return nil
}
