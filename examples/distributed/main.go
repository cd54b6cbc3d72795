// Distributed: run the heat benchmark on the distributed-memory
// interpreter — real block decomposition, real ghost-cell exchanges —
// and verify the result against the sequential VM element by element.
// Then show what §5.5 is about: how many contraction opportunities the
// favor-comm strategy forfeits, and what it costs on each machine.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/programs"
	"repro/internal/vm"
)

func main() {
	bench, _ := programs.ByName("tomcatv")
	cfg := map[string]int64{"n": 32}
	const procs = 4

	// Sequential reference.
	seq, err := driver.Compile(bench.Source, driver.Options{Level: core.C2F3, Configs: cfg})
	if err != nil {
		log.Fatal(err)
	}
	seqM, _, err := vm.Run(seq.LIR, vm.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Distributed compilation (communication inserted) and execution.
	co := comm.DefaultOptions(procs)
	dc, err := driver.Compile(bench.Source, driver.Options{Level: core.C2F3, Configs: cfg, Comm: &co})
	if err != nil {
		log.Fatal(err)
	}
	dm, err := distvm.Run(dc.LIR, distvm.Options{Procs: procs})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tomcatv on %d processors: %d exchanges inserted, %d eliminated\n",
		procs, dc.Comm.Inserted, dc.Comm.Eliminated)

	// Element-by-element comparison of a representative array.
	worst := 0.0
	seqX := seqM.ArrayData("X")
	distX := dm.Gather("X")
	for i := range seqX {
		if d := math.Abs(seqX[i] - distX[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("max |X_seq - X_dist| over %d elements: %g\n\n", len(seqX), worst)

	// The §5.5 trade: favor-comm forfeits contractions.
	cm := comm.DefaultOptions(procs)
	cm.Strategy = comm.FavorComm
	cc, err := driver.Compile(bench.Source, driver.Options{Level: core.C2F3, Configs: cfg, Comm: &cm})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contractions: favor-fusion %d, favor-comm %d (lost %d)\n",
		len(dc.Plan.Contracted), len(cc.Plan.Contracted),
		len(dc.Plan.Contracted)-len(cc.Plan.Contracted))

	for _, m := range machine.Models() {
		ff := cycles(dc, m, procs)
		fc := cycles(cc, m, procs)
		fmt.Printf("  %-14s favor-fusion %12.0f cycles, favor-comm %12.0f (%+.1f%%)\n",
			m.Name, ff, fc, (fc/ff-1)*100)
	}
}

func cycles(c *driver.Compilation, m machine.Model, procs int) float64 {
	tr := machine.NewCostTracer(m, procs)
	if _, _, err := vm.Run(c.LIR, vm.Options{Tracer: tr}); err != nil {
		log.Fatal(err)
	}
	return tr.Cycles
}
