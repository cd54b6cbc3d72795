package vm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/vm"
)

// longSweepSrc is one arrayless reduction of 3.6e9 element-statements
// over region, under the default step budget: the run is one charge
// followed by seconds of sweeping, so only the sweep's own polls can
// stop it.
func longSweepSrc(op, region string) string {
	return "program longsweep;\nregion R = " + region + ";\nvar s : double;\n" +
		"proc main()\nbegin\n  s := " + op + " [R] index1;\n  writeln(s);\nend;\n"
}

// TestLongSweepStopsAtDeadline: a 50 ms deadline stops one long sweep
// within a second, whether its outermost loop runs rows, strips of a
// one-dimensional region, or split chunks.
func TestLongSweepStopsAtDeadline(t *testing.T) {
	cases := []struct {
		name, op, region string
		split            bool
	}{
		{"rows", "+<<", "[1..60000, 1..60000]", false},
		{"strips", "+<<", "[1..3600000000]", false},
		{"split", "max<<", "[1..60000, 1..60000]", true},
	}
	for _, tc := range cases {
		c, err := driver.Compile(longSweepSrc(tc.op, tc.region), driver.Options{Level: core.C2F4})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		atProcs(2, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			m, err := vm.New(c.LIR, vm.Options{Bounds: c.Bounds, Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			if got := vm.Splits(m) > 0; got != tc.split {
				t.Fatalf("%s: split %v, want %v", tc.name, got, tc.split)
			}
			start := time.Now()
			_, err = m.Run()
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s: the run stopped %v after starting, want within 1s", tc.name, d)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: Run = %v, want the deadline", tc.name, err)
			}
		})
	}
}
