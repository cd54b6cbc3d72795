// Package difftest is the truth anchor of the module's differential
// oracle: Reference, the §2.1 meaning of a program, and Close, the one
// comparator between transcripts. It imports no engine, no planner and
// no scalarizer, so nothing it judges is shared with what it judges.
// The matrix of programs × plans × engines that holds every engine to
// it is the sub-package matrix. Only test files import either
// (TestTestOnlyImports).
package difftest

import (
	"math"
	"strconv"
	"strings"
)

// Close reports whether two transcripts agree token for token, a
// numeric token within a relative 1e-9 of its counterpart (absolute
// below magnitude 1): fusion reorders a reduction's accumulation and a
// distributed run combines per-processor parts, neither of which is
// bitwise associative. It is symmetric in a and b.
func Close(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		fa, errA := strconv.ParseFloat(ta[i], 64)
		fb, errB := strconv.ParseFloat(tb[i], 64)
		if errA != nil || errB != nil || !CloseFloat(fa, fb) {
			return false
		}
	}
	return true
}

// CloseFloat is Close for two values.
func CloseFloat(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b) ||
		math.Abs(a-b) <= 1e-9*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}
