package harness

import (
	"fmt"
	"strings"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/programs"
	"repro/internal/vm"
)

// LatencyPoint is the favor-comm penalty at one message-startup cost.
type LatencyPoint struct {
	Alpha    float64
	Slowdown float64 // % slowdown of favor-comm versus favor-fusion
}

// RunLatencySensitivity probes the paper's closing conjecture — that
// integration matters even more on machines with cheap synchronization
// (SGI Origin class): as the message startup cost α falls, pipelining
// has less latency to hide, so sacrificing contraction to preserve
// overlap windows buys less and less while still paying the full
// memory-traffic price.
func RunLatencySensitivity(e *Env, bench string, procs int, alphas []float64) ([]LatencyPoint, error) {
	b, ok := programs.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	cfg := map[string]int64{b.SizeConfig: b.DefaultSize / 2}

	ff := comm.DefaultOptions(procs)
	fc := comm.DefaultOptions(procs)
	fc.Strategy = comm.FavorComm

	cf, err := driver.Compile(b.Source, driver.Options{Level: core.C2F3, Configs: cfg, Comm: &ff})
	if err != nil {
		return nil, err
	}
	cc, err := driver.Compile(b.Source, driver.Options{Level: core.C2F3, Configs: cfg, Comm: &fc})
	if err != nil {
		return nil, err
	}

	// Each α point replays both compilations on fresh tracers; the
	// points share only the (immutable) compilations, so the sweep
	// runs on the worker pool.
	return parallelMap(e, alphas, func(alpha float64) (LatencyPoint, error) {
		model := machine.Origin().WithCommAlpha(alpha)
		fuse := machine.NewCostTracer(model, procs)
		if _, _, err := vm.Run(cf.LIR, vm.Options{Tracer: fuse}); err != nil {
			return LatencyPoint{}, err
		}
		commT := machine.NewCostTracer(model, procs)
		if _, _, err := vm.Run(cc.LIR, vm.Options{Tracer: commT}); err != nil {
			return LatencyPoint{}, err
		}
		return LatencyPoint{
			Alpha:    alpha,
			Slowdown: (commT.Cycles/fuse.Cycles - 1) * 100,
		}, nil
	})
}

// FormatLatency renders the sensitivity sweep.
func FormatLatency(bench string, procs int, pts []LatencyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Latency sensitivity (%s, p=%d, Origin-class model):\n", bench, procs)
	b.WriteString("favor-comm slowdown versus favor-fusion as message startup α falls\n\n")
	fmt.Fprintf(&b, "%12s %14s\n", "alpha", "slowdown")
	for _, p := range pts {
		fmt.Fprintf(&b, "%12.0f %13.1f%%\n", p.Alpha, p.Slowdown)
	}
	b.WriteString("\nThe penalty for sacrificing contraction persists even as the\n")
	b.WriteString("latency pipelining could hide disappears — the paper's conjecture\n")
	b.WriteString("that array-level integration matters more, not less, on\n")
	b.WriteString("low-synchronization-cost machines (§5.5, conclusion).\n")
	return b.String()
}
