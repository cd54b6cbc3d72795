package programs

import (
	"fmt"
	"strings"
)

// Chain is one block of n+1 array statements, [R] Ti := T(i-1) + 1.0,
// every Ti but the last a contraction candidate: the input that shows
// whether a compile phase is linear in block size.
func Chain(n int) string {
	names := make([]string, n+1)
	var body strings.Builder
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i)
		if i > 0 {
			fmt.Fprintf(&body, "  [R] T%d := T%d + 1.0;\n", i, i-1)
		}
	}
	return "program chain;\nconfig n : integer = 8;\nregion R = [1..n, 1..n];\nvar " + strings.Join(names, ", ") +
		" : [R] double;\nvar s : double;\nproc main()\nbegin\n  [R] T0 := index1 + index2;\n" + body.String() +
		fmt.Sprintf("  s := +<< [R] T%d;\n  writeln(\"s\", s);\nend;\n", n)
}
