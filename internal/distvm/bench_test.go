package distvm

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/vm"
)

// BenchmarkBarrier is one empty AllCombine on every processor: ns per
// round, 0 allocs. The waiting constants in comm.go were chosen on it.
func BenchmarkBarrier(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			m, ends := testMachine(procs, 30*time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			if err := errors.Join(runAll(m, ends, func(s *shard) error {
				for i := 0; i < b.N; i++ {
					if _, err := s.AllCombine(nil, nil); err != nil {
						return err
					}
				}
				return nil
			})...); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRun is the run-interp workload's twelve cells at its sizes,
// without the bench harness: the p=2 compilation on the sequential VM,
// on one shard and on two.
func BenchmarkRun(b *testing.B) {
	for _, bm := range programs.All() {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			prog := compileFor(b, bm, lvl, 2, 2*bm.DefaultSize)
			for _, procs := range []int{0, 1, 2} {
				name := fmt.Sprintf("%s/%s/p=%d", bm.Name, lvl, procs)
				if procs == 0 {
					name = fmt.Sprintf("%s/%s/vm", bm.Name, lvl)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var err error
						if procs == 0 {
							_, _, err = vm.Run(prog, vm.Options{Out: io.Discard})
						} else {
							_, err = Run(prog, Options{Procs: procs, Out: io.Discard})
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
