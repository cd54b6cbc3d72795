package driver

// Differential soundness fuzz for the bounds prover: on random
// programs across the optimization ladder, bounds-check elimination
// must be invisible — the unchecked run never traps and its output is
// bit-identical (not merely close) to the fully checked run of the
// same compilation, since both execute the same plan and the same
// floating-point schedule. Every program is also pushed through the
// check.Bounds cross-validator (Options.Check), so each fuzz input
// doubles as a re-derivation test of the prover's evidence.

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/soak"
	"repro/internal/vm"
)

// runProve compiles src once and runs it both checked (prover result
// withheld from the VM) and unchecked (verdicts applied).
func runProve(src string, lvl core.Level, fault int) (checked, unchecked string, proven, total int, err error) {
	c, err := Compile(src, Options{Level: lvl, Check: fault == 0, ProveFault: fault})
	if err != nil {
		return "", "", 0, 0, err
	}
	var chk bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &chk}); err != nil {
		return "", "", 0, 0, err
	}
	var unchk bytes.Buffer
	if _, _, err := c.Run(vm.Options{Out: &unchk}); err != nil {
		return "", "", 0, 0, err
	}
	return chk.String(), unchk.String(), c.Bounds.NumProven, len(c.Bounds.Sites), nil
}

// TestQuickProveSoundness: for random programs at every ladder level,
// the prover proves every site, the cross-validator agrees, and
// unchecked execution is bit-identical to checked execution.
func TestQuickProveSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)
		for _, lvl := range []core.Level{core.Baseline, core.C1, core.C2F4} {
			checked, unchecked, proven, total, err := runProve(src, lvl, 0)
			if err != nil {
				t.Logf("%v failed (seed %d): %v\n%s", lvl, seed, err, src)
				return false
			}
			if proven != total {
				t.Logf("%v (seed %d): only %d/%d sites proven\n%s", lvl, seed, proven, total, src)
				return false
			}
			if checked != unchecked {
				t.Logf("%v (seed %d): unchecked output diverged\nchecked   %q\nunchecked %q\n%s",
					lvl, seed, checked, unchecked, src)
				return false
			}
		}
		return true
	}
	cfg := soak.Config(t, 20, 4)
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickProveFaultCaught: seeding a one-element evidence fault into
// a random program must be caught — statically by the bounds
// cross-check, and dynamically (for live sites) by the checked-vs-
// unchecked differential. A site whose faulted output still matches is
// legal (a dead store); what is never legal is the static check
// missing it.
func TestQuickProveFaultCaught(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := programs.Random(r)

		// Static catch: Check must reject the faulted compilation.
		if _, err := Compile(src, Options{Level: core.C2F4, Check: true, ProveFault: 1}); err == nil {
			t.Logf("seed %d: check.Bounds missed the injected fault\n%s", seed, src)
			return false
		}

		// Dynamic catch: at least one faulted site must change the
		// output (random programs keep their arrays live through the
		// final checksums, so dead sites are rare).
		base, _, _, total, err := runProve(src, core.C2F4, 0)
		if err != nil {
			t.Logf("seed %d: baseline failed: %v", seed, err)
			return false
		}
		if total == 0 {
			return true // fully contracted: no sites to fault
		}
		for site := 1; site <= total; site++ {
			_, faulted, _, _, err := runProve(src, core.C2F4, site)
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
