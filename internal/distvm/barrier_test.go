package distvm

// White-box tests of the combining barrier (comm.go): the shards of a
// program-less machine are driven through AllCombine directly.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBarrierRounds: many rounds at p below, at and above GOMAXPROCS,
// with one P (where a spin that never yields is a hang) and with two.
// Every processor must see every round's sum; the parts alternate
// between two buffers, which is the ownership rule of vm.Shard, so the
// race detector judges that rule here too.
func TestBarrierRounds(t *testing.T) {
	const rounds = 50000
	sum := func(acc, next []float64) { acc[0] += next[0] }
	for _, maxprocs := range []int{1, 2} {
		for _, procs := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/p=%d", maxprocs, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
				m, ends := testMachine(procs, 30*time.Second)
				if err := errors.Join(runAll(m, ends, func(s *shard) error {
					part, spare := make([]float64, 1), make([]float64, 1)
					for r := 1; r <= rounds; r++ {
						part, spare = spare, part
						part[0] = float64(r * (s.id + 1))
						all, err := s.AllCombine(part, sum)
						if err != nil {
							return err
						}
						if want := float64(r * procs * (procs + 1) / 2); all[0] != want {
							return fmt.Errorf("processor %d, round %d: sum %v, want %v", s.id, r, all[0], want)
						}
					}
					return nil
				})...); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFoldInProcessorOrder: processor 0 folds in processor order however
// the arrivals are ordered, which a fold that does not commute shows.
func TestFoldInProcessorOrder(t *testing.T) {
	const procs, rounds = 5, 2000
	horner := func(acc, next []float64) { acc[0] = acc[0]*31 + next[0] }
	m, ends := testMachine(procs, 30*time.Second)
	if err := errors.Join(runAll(m, ends, func(s *shard) error {
		rng := rand.New(rand.NewSource(int64(s.id)))
		part, spare := make([]float64, 1), make([]float64, 1)
		for r := 0; r < rounds; r++ {
			for n := rng.Intn(4); n > 0; n-- {
				runtime.Gosched() // arrive early or late, by turns
			}
			part, spare = spare, part
			part[0] = float64(r%7 + s.id)
			all, err := s.AllCombine(part, horner)
			if err != nil {
				return err
			}
			want := 0.0
			for q := 0; q < procs; q++ {
				want = want*31 + float64(r%7+q)
			}
			if all[0] != want {
				return fmt.Errorf("processor %d, round %d: folded to %v, want the processor-order %v", s.id, r, all[0], want)
			}
		}
		return nil
	})...); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolMismatch: divergent control flow is an error, not a hang.
// A processor that is a synchronisation ahead (it skipped one) and one
// that contributes a vector of another length are both named by
// processor 0, and the others unwind with errAborted.
func TestProtocolMismatch(t *testing.T) {
	for name, diverge := range map[string]func(s *shard) []float64{
		"is at sync #2, want #1":            func(s *shard) []float64 { s.syncSeq++; return make([]float64, 1) },
		"contributes 2 values to sync #1, ": func(s *shard) []float64 { return make([]float64, 2) },
	} {
		m, ends := testMachine(3, 30*time.Second)
		errs := runAll(m, ends, func(s *shard) error {
			part := make([]float64, 1)
			if s.id == 2 {
				part = diverge(s)
			}
			_, err := s.AllCombine(part, func(acc, next []float64) {})
			return err
		})
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "protocol mismatch: processor 2 "+name) {
			t.Errorf("processor 0: %v, want a protocol mismatch saying processor 2 %s", errs[0], name)
		}
		for p := 1; p < 3; p++ {
			if errs[p] != errAborted {
				t.Errorf("processor %d: %v, want errAborted", p, errs[p])
			}
		}
	}
}
