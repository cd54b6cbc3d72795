package core

import (
	"repro/internal/air"
	"repro/internal/asdg"
)

// Emulation configures the engine to behave like one of the compilers
// probed in §5.1. The capabilities are the ones the paper infers from
// studying each compiler's output on the Fig. 5 fragments.
type Emulation struct {
	Name string
	// StatementFusion: fuses loops arising from *different* source
	// statements (PGI and IBM do not: "each array statement compiles
	// to a single loop nest").
	StatementFusion bool
	// FuseForLocality: performs fusion purely to exploit reuse.
	FuseForLocality bool
	// CrossStatementAnti: can fuse across statements when the fused
	// loop would carry an anti dependence (APR and Cray cannot).
	CrossStatementAnti bool
	// WithinStatementAnti: handles the carried anti dependence of a
	// single statement's own temporary (fragment 5) — a local matter
	// of loop direction that most compilers manage.
	WithinStatementAnti bool
	// ContractCompiler: eliminates compiler-introduced temporaries.
	ContractCompiler bool
	// ContractUser: eliminates user temporaries.
	ContractUser bool
	// Realign: weighs the temporary-alignment trade-off of fragment 8
	// (the Cray compiler "contracts the compiler temporary at the
	// expense of contracting the two user temporaries" — it does not).
	Realign bool
}

// Emulations returns the five §5.1 configurations: four commercial
// compilers plus this paper's ZPL engine.
func Emulations() []Emulation {
	return []Emulation{
		{
			Name:                "PGI HPF 2.1",
			WithinStatementAnti: true,
			ContractCompiler:    true,
		},
		{
			Name:                "IBM XLHPF 1.2",
			WithinStatementAnti: true,
			ContractCompiler:    true,
		},
		{
			Name:             "APR XHPF 2.0",
			StatementFusion:  true,
			FuseForLocality:  true,
			ContractCompiler: true,
		},
		{
			Name:                "Cray F90 2.0.1.0",
			StatementFusion:     true,
			FuseForLocality:     true,
			WithinStatementAnti: true,
			ContractCompiler:    true,
			ContractUser:        true,
		},
		{
			Name:                "ZPL 1.13 (this paper)",
			StatementFusion:     true,
			FuseForLocality:     true,
			CrossStatementAnti:  true,
			WithinStatementAnti: true,
			ContractCompiler:    true,
			ContractUser:        true,
			Realign:             true,
		},
	}
}

// ZPLEmulation returns the full-capability configuration.
func ZPLEmulation() Emulation { return Emulations()[len(Emulations())-1] }

// Emulate applies the emulated strategy to the whole program and
// returns its fusion/contraction plan.
func Emulate(prog *air.Program, em Emulation) *Plan {
	plan, _ := Walk(prog, C2F3, em.Realign, Config{}, func(_ int, g *asdg.Graph, candidates []string) (*Partition, map[string]bool, error) {
		var temps, users []string
		for _, x := range candidates {
			if a := prog.Arrays[x]; a != nil && a.Temp {
				temps = append(temps, x)
			} else {
				users = append(users, x)
			}
		}

		p := Trivial(g)
		p.NoCarriedAnti = !em.CrossStatementAnti
		contracted := map[string]bool{}

		if em.ContractCompiler {
			if em.StatementFusion && em.CrossStatementAnti {
				var c map[string]bool
				p, c = FusionForContraction(g, p, temps)
				for x := range c {
					contracted[x] = true
				}
			} else {
				// Local def–use pair contraction only: the shape a
				// scalarizer of single statements can manage.
				contractPairs(prog, g, p, temps, em.WithinStatementAnti, contracted)
			}
		}
		if em.ContractUser && em.StatementFusion {
			var c map[string]bool
			p, c = FusionForContraction(g, p, users)
			for x := range c {
				contracted[x] = true
			}
		}
		if em.FuseForLocality && em.StatementFusion {
			p = FusionForLocality(g, p, AllArrays(g))
		}
		return p, contracted, nil
	})
	return plan
}

// contractPairs fuses only adjacent def–use temporary pairs arising
// from a single source statement, honoring the within-statement anti
// dependence capability.
func contractPairs(prog *air.Program, g *asdg.Graph, p *Partition, temps []string,
	withinAnti bool, contracted map[string]bool) {
	isTemp := map[string]bool{}
	for _, t := range temps {
		isTemp[t] = true
	}
	for v := 0; v+1 < g.N(); v++ {
		def := g.ArrayStmt(v)
		use := g.ArrayStmt(v + 1)
		if def == nil || use == nil || !isTemp[def.LHS] {
			continue
		}
		ref, ok := use.RHS.(*air.RefExpr)
		if !ok || ref.Ref.Array != def.LHS || !ref.Ref.Off.IsZero() {
			continue
		}
		cs := map[int]bool{p.ClusterOf(v): true, p.ClusterOf(v + 1): true}
		if !ContractionOK(p, def.LHS, cs) {
			continue
		}
		// The pair's internal anti dependence (on the array both read
		// and written by the original statement) is local to one
		// source statement; allow it only with the capability.
		save := p.NoCarriedAnti
		p.NoCarriedAnti = !withinAnti
		ok = FusionOK(p, cs)
		p.NoCarriedAnti = save
		if !ok {
			continue
		}
		p.MergeSet(cs)
		contracted[def.LHS] = true
	}
}
