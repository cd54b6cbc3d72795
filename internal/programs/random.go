package programs

import (
	"fmt"
	"math/rand"
	"strings"
)

// Random builds a random straight-line-plus-loop ZA program over a
// small pool of arrays: random element-wise statements with random
// neighbor offsets, interleaved reductions, all checksummed at the
// end. It is the input generator of the matrix's random cells
// (matrix.Quick; the native rows of internal/backend), the verifier,
// prover and race fuzz in internal/driver and the strip-width
// differential in internal/vm: one seed is one program everywhere.
func Random(r *rand.Rand) string {
	nArrays := 3 + r.Intn(4)
	var b strings.Builder
	b.WriteString("program quickgen;\nconfig n : integer = 8;\nregion R = [1..n, 1..n];\nregion I = [2..n-1, 2..n-1];\n")
	names := make([]string, nArrays)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	fmt.Fprintf(&b, "var %s : [R] double;\n", strings.Join(names, ", "))
	b.WriteString("var s, acc : double;\nproc main()\nbegin\n")
	for i, nm := range names {
		fmt.Fprintf(&b, "  [R] %s := index1 * 0.%d + index2 * 0.3;\n", nm, i+1)
	}
	b.WriteString("  acc := 0.0;\n")
	b.WriteString("  for it := 1 to 2 do\n")
	nStmts := 3 + r.Intn(6)
	regions := []string{"R", "I"}
	for i := 0; i < nStmts; i++ {
		target := names[r.Intn(nArrays)]
		reg := regions[r.Intn(2)]
		terms := make([]string, 1+r.Intn(3))
		for j := range terms {
			src := names[r.Intn(nArrays)]
			dx, dy := r.Intn(3)-1, r.Intn(3)-1
			if reg == "R" {
				// Keep offsets inside allocations trivially legal:
				// offsets allowed anywhere (halos are zero-filled),
				// but restrict to one-sided to vary dependences.
				dx, dy = r.Intn(2)-1, r.Intn(2)-1
			}
			if dx == 0 && dy == 0 {
				terms[j] = src
			} else {
				terms[j] = fmt.Sprintf("%s@(%d,%d)", src, dx, dy)
			}
		}
		fmt.Fprintf(&b, "    [%s] %s := (%s) * 0.4;\n", reg, target, strings.Join(terms, " + "))
		if r.Intn(4) == 0 {
			fmt.Fprintf(&b, "    s := +<< [I] %s;\n    acc := acc + s * 0.1;\n", names[r.Intn(nArrays)])
		}
	}
	b.WriteString("  end;\n")
	for _, nm := range names {
		fmt.Fprintf(&b, "  s := +<< [R] %s;\n  writeln(\"%s\", s);\n", nm, nm)
	}
	b.WriteString("  writeln(\"acc\", acc);\nend;\n")
	return b.String()
}

// Shrink greedily deletes statement lines from a failing random
// program while the failure (a non-empty string from failing) persists,
// so the logged reproducer is close to minimal.
func Shrink(src string, failing func(string) string) string {
	for {
		lines := strings.Split(src, "\n")
		shrunk := false
		for i, ln := range lines {
			trimmed := strings.TrimSpace(ln)
			// Only statement lines are candidates; structure lines
			// (program/region/var/for/end) must survive.
			if !strings.Contains(trimmed, ":=") && !strings.HasPrefix(trimmed, "writeln") {
				continue
			}
			cand := strings.Join(append(append([]string{}, lines[:i]...), lines[i+1:]...), "\n")
			if failing(cand) != "" {
				src = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return src
		}
	}
}
