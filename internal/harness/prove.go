package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// ProveRow is one benchmark × level cell of the bounds-prover study:
// the prover's verdict census, the differential soundness check (both
// native emissions must be byte-identical to the VM), and the
// wall-clock cost of the eliminated checks.
type ProveRow struct {
	Benchmark string `json:"benchmark"`
	Level     string `json:"level"`

	Sites     int     `json:"sites"`
	Proven    int     `json:"proven"`
	Unknown   int     `json:"unknown"`
	Unsafe    int     `json:"unsafe"`
	ProvenPct float64 `json:"proven_pct"` // 100 when every site is proven (or there are none)

	Match bool `json:"match"` // always true: a divergence from the VM is an error, never a row

	NativeCheckedMS   float64 `json:"native_checked_ms"`
	NativeUncheckedMS float64 `json:"native_unchecked_ms"`
	NativeSpeedup     float64 `json:"native_speedup"`

	ScaffoldElided bool `json:"scaffold_elided"` // AllProven: no trap scaffold in the emission
}

// RunProve measures every benchmark at both ladder ends: the prover's
// coverage, the checked-vs-unchecked native differential against the
// VM, and the speedup check elimination buys. Any divergence is an
// error, not a row — an unsound proof invalidates the study.
func RunProve(e *Env) ([]ProveRow, error) {
	const nativeRuns = 5
	// The ladder ends: the unoptimized program and the full
	// fusion+contraction pipeline (the acceptance condition reads the
	// latter).
	ends := []core.Level{core.Baseline, core.C2F4}
	return eachCell(e, grid(ends), func(c cell) (ProveRow, error) {
		comp, err := e.compile(c.b.Source, c.options(e.configs(c.b)))
		if err != nil {
			return ProveRow{}, err
		}
		bounds := comp.Bounds
		if bounds == nil {
			return ProveRow{}, fmt.Errorf("compilation carries no bounds result")
		}
		// The same compilation with the prover's result withheld: the
		// emission keeps every check (and the trap scaffold), where
		// comp's proven sites go unchecked. The VM checks one slice
		// bound per strip whatever the verdict, so it has nothing to
		// time here: one run of it is the reference output.
		checked := *comp
		checked.Bounds = nil

		_, want, err := interpret(&checked)
		if err != nil {
			return ProveRow{}, fmt.Errorf("vm: %w", err)
		}
		_, natChkOut, natChk, err := e.native(&checked, nativeRuns)
		if err != nil {
			return ProveRow{}, fmt.Errorf("native checked: %w", err)
		}
		_, natUnchkOut, natUnchk, err := e.native(comp, nativeRuns)
		if err != nil {
			return ProveRow{}, fmt.Errorf("native unchecked: %w", err)
		}
		for _, got := range []struct{ engine, out string }{
			{"native checked", natChkOut}, {"native unchecked", natUnchkOut},
		} {
			if got.out != want {
				return ProveRow{}, fmt.Errorf("%s output diverges from the VM", got.engine)
			}
		}

		row := ProveRow{
			Benchmark: c.b.Name,
			Level:     c.lvl.String(),
			Sites:     len(bounds.Sites),
			Proven:    bounds.NumProven,
			Unknown:   bounds.NumUnknown,
			Unsafe:    bounds.NumUnsafe,
			ProvenPct: 100,
			Match:     true,

			NativeCheckedMS:   ms(natChk),
			NativeUncheckedMS: ms(natUnchk),
			NativeSpeedup:     float64(natChk) / float64(natUnchk),

			ScaffoldElided: bounds.AllProven(),
		}
		if len(bounds.Sites) > 0 {
			row.ProvenPct = float64(bounds.NumProven) / float64(len(bounds.Sites)) * 100
		}
		return row, nil
	})
}

// FormatProve renders the coverage and speedup table plus the summary
// line the acceptance check reads.
func FormatProve(rows []ProveRow) string {
	var b strings.Builder
	b.WriteString("Bounds prover: coverage and the cost of the eliminated checks\n")
	b.WriteString("(native, checked vs proof-carrying; both outputs asserted\n")
	b.WriteString("bit-identical to the VM cell by cell)\n\n")
	fmt.Fprintf(&b, "%-10s %-10s %6s %7s %8s %11s %11s %8s\n",
		"app", "level", "sites", "proven", "rate", "nat chk ms", "nat unchk", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10s %6d %7d %7.0f%% %11.4f %11.4f %7.2fx\n",
			r.Benchmark, r.Level, r.Sites, r.Proven, r.ProvenPct,
			r.NativeCheckedMS, r.NativeUncheckedMS, r.NativeSpeedup)
	}

	// Aggregates: worst-case coverage and the geometric-mean speedup of
	// elimination (cells with sites only; a fully contracted program
	// has nothing to eliminate).
	var nat []float64
	elided := 0
	for _, r := range rows {
		if r.ScaffoldElided {
			elided++
		}
		if r.Sites > 0 {
			nat = append(nat, r.NativeSpeedup)
		}
	}
	fmt.Fprintf(&b, "\nproven-site coverage: min %.0f%% across %d cells; trap scaffold elided in %d/%d\n",
		MinProvenRate(rows), len(rows), elided, len(rows))
	if len(nat) > 0 {
		fmt.Fprintf(&b, "check-elimination speedup (geomean over %d cells with sites): native %.2fx\n",
			len(nat), geomean(nat))
	}
	b.WriteString("every cell bit-identical: true\n")
	return b.String()
}

// MinProvenRate returns the worst per-cell proven percentage — the
// acceptance condition requires it ≥ 90 at full optimization.
func MinProvenRate(rows []ProveRow) float64 {
	min := 100.0
	for _, r := range rows {
		if r.ProvenPct < min {
			min = r.ProvenPct
		}
	}
	return min
}
