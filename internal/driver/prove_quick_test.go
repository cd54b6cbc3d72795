package driver_test

// Differential soundness fuzz for the bounds prover: on random
// programs across the optimization ladder every access site is proven,
// and the check.Bounds cross-validator (Options.Check, on in every
// matrix cell) re-derives the evidence, so each fuzz input doubles as a
// re-derivation test of the prover. A seeded one-element evidence fault
// must be caught, statically by that cross-check and dynamically by the
// wrong answer the VM's displaced accesses print.

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/difftest/matrix"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/soak"
	"repro/internal/vm"
)

// runProve compiles src at c2+f4 with the evidence of the fault-th
// proven site displaced by one element (0: none) and runs it on the VM.
func runProve(src string, fault int) (out string, total int, err error) {
	c, err := driver.Compile(src, driver.Options{Level: core.C2F4, Check: fault == 0, ProveFault: fault})
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	if _, _, err := c.Run(vm.Options{Out: &buf}); err != nil {
		return "", 0, err
	}
	return buf.String(), len(c.Bounds.Sites), nil
}

// TestQuickProveSoundness: for random programs at every ladder level,
// the prover proves every site and the cross-validator agrees.
func TestQuickProveSoundness(t *testing.T) {
	cfg := soak.Config(t, 20, 4)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	matrix.Quick(t, cfg, func(src string) []matrix.Cell {
		var cells []matrix.Cell
		for _, lvl := range []core.Level{core.Baseline, core.C1, core.C2F4} {
			c := random(src).At(lvl, matrix.VM)
			c.Proven = true
			cells = append(cells, c)
		}
		return cells
	})
}

// TestQuickProveFaultCaught: seeding a one-element evidence fault into
// a random program must be caught — statically by the bounds
// cross-check, and dynamically (for live sites) by the sound-vs-faulted
// differential. A site whose faulted output still matches is legal (a
// dead store); what is never legal is the static check missing it.
func TestQuickProveFaultCaught(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)

		// Static catch: Check must reject the faulted compilation.
		if _, err := driver.Compile(src, driver.Options{Level: core.C2F4, Check: true, ProveFault: 1}); err == nil {
			t.Logf("seed %d: check.Bounds missed the injected fault\n%s", seed, src)
			return false
		}

		// Dynamic catch: at least one faulted site must change the
		// output (random programs keep their arrays live through the
		// final checksums, so dead sites are rare).
		base, total, err := runProve(src, 0)
		if err != nil {
			t.Logf("seed %d: baseline failed: %v", seed, err)
			return false
		}
		if total == 0 {
			return true // fully contracted: no sites to fault
		}
		for site := 1; site <= total; site++ {
			faulted, _, err := runProve(src, site)
			if err != nil || faulted != base {
				return true
			}
		}
		t.Logf("seed %d: no injected fault changed the output across %d sites\n%s", seed, total, src)
		return false
	}
	cfg := soak.Config(t, 8, 5)
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
