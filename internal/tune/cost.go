// Package tune is a plan-search engine over the ASDG: it explores the
// space of legal fusion partitions and contraction sets — exhaustively
// for small blocks, by beam search seeded with the §5.4 strategy
// ladder for large ones — and scores candidates with a pluggable cost
// model. Every candidate is proved legal by the same Theorem 1/2 and
// Definition 5/6 predicates the ladder uses; the search can therefore
// never propose a plan the verifier would reject.
//
// The motivation is the paper's open question of how far one-shot
// greedy fusion sits from optimal: Kennedy & McKinley showed weighted
// loop fusion is NP-hard, so the standard answer is bounded search
// plus cost models. When exhaustive enumeration completes on every
// block, the result is *proven* optimal under the model — "greedy is
// within X% of optimal" becomes a theorem about the model rather than
// an observation.
package tune

import (
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/machine"
)

// CostModel scores one block's plan candidate: lower is better. A
// model must be deterministic and must never reward removing a legal
// contraction (contracted references may not cost more than memory
// references), so that maximal contraction is always optimal for a
// fixed partition.
type CostModel interface {
	Name() string
	BlockScore(prog *air.Program, g *asdg.Graph, p *core.Partition,
		contracted map[string]bool) float64
}

// ParseModel builds the cost model a front end names — "cycle" or
// "cache" on one of job.Machine's machines; an unknown name is a usage
// error.
func ParseModel(model, mach string, procs int) (CostModel, error) {
	m, err := job.Machine(mach)
	if err != nil {
		return nil, err
	}
	switch model {
	case "cycle":
		return CycleModel{M: m, Procs: procs}, nil
	case "cache":
		return CacheModel{M: m, Procs: procs}, nil
	}
	return nil, job.Usagef("unknown cost {model} %q (want cycle or cache)", model)
}

// registerCycles is the charge for a reference to a contracted array:
// the value lives in a scalar register carried around the fused loop.
const registerCycles = 1

// loopStartCycles approximates loop-nest setup/teardown; fusing two
// nests saves one of these plus the per-iteration control overhead.
const loopStartCycles = 40

// stmtCycles is the flat charge for scalar/IO/call statements, which
// no plan can change.
const stmtCycles = 16

// CycleModel is the analytic static model: machine cycles from the
// machine.Model charge table, with stream references paying the
// miss-rate-weighted cost of one line fill per LineBytes/8 elements,
// references to arrays already touched in the same fused cluster
// paying an L1 hit (temporal reuse inside one loop body), and
// contracted references paying a register access. Communication pays
// the α + β·bytes message cost; per-processor iteration counts divide
// by the processor count.
type CycleModel struct {
	M     machine.Model
	Procs int
}

// Name identifies the model in reports and cache keys.
func (c CycleModel) Name() string { return "cycle:" + c.M.Name }

func (c CycleModel) div() float64 {
	if c.Procs > 1 {
		return float64(c.Procs)
	}
	return 1
}

// streamCost is the per-element cost of a fresh streaming reference:
// most accesses hit the line loaded by the miss every LineBytes/8
// elements; the miss fills from L2 when the array fits there, else
// from memory.
func (c CycleModel) streamCost(bytes float64) float64 {
	l1 := c.M.Caches[0]
	missRate := 8.0 / float64(l1.LineBytes)
	fill := c.M.MemCycles
	if len(c.M.Caches) > 1 && bytes <= float64(c.M.Caches[1].SizeBytes) {
		fill = c.M.HitCycles[1]
	}
	return (1-missRate)*c.M.HitCycles[0] + missRate*fill
}

// BlockScore implements CostModel.
func (c CycleModel) BlockScore(prog *air.Program, g *asdg.Graph,
	p *core.Partition, contracted map[string]bool) float64 {

	cycles := 0.0
	for _, cl := range p.TopoClusters() {
		members := p.Members(cl)
		seen := map[string]bool{}
		iters := 0.0
		fusible := false

		charge := func(x string, n float64) {
			switch {
			case contracted[x]:
				cycles += n * registerCycles
			case seen[x]:
				cycles += n * c.M.HitCycles[0]
			default:
				cycles += n * c.streamCost(arrayBytes(prog, x))
				seen[x] = true
			}
		}

		for _, v := range members {
			switch s := g.Stmts[v].(type) {
			case *air.ArrayStmt:
				n := float64(s.Region.Size()) / c.div()
				if n > iters {
					iters = n
				}
				fusible = true
				cycles += n * float64(countFlops(s.RHS)) * c.M.FlopCycles
				for _, r := range s.Reads() {
					charge(r.Array, n)
				}
				charge(s.LHS, n)
			case *air.ReduceStmt:
				n := float64(s.Region.Size()) / c.div()
				cycles += n * float64(countFlops(s.Body)+1) * c.M.FlopCycles
				for _, r := range air.Refs(s.Body) {
					charge(r.Array, n)
				}
				cycles += loopStartCycles + n
				cycles += c.reduceCycles()
			case *air.PartialReduceStmt:
				n := float64(s.Region.Size()) / c.div()
				cycles += n * float64(countFlops(s.Body)+1) * c.M.FlopCycles
				for _, r := range air.Refs(s.Body) {
					charge(r.Array, n)
				}
				charge(s.LHS, float64(s.Dest.Size())/c.div())
				cycles += loopStartCycles + n
			case *air.CommStmt:
				cycles += c.commCycles(s)
			default:
				cycles += stmtCycles
			}
		}
		if fusible {
			// One loop nest per cluster: startup plus per-iteration
			// control. This is the term fusion shrinks.
			cycles += loopStartCycles + iters
		}
	}
	return cycles
}

// reduceCycles is the log-tree global combine of a full reduction.
func (c CycleModel) reduceCycles() float64 {
	if c.Procs <= 1 {
		return 0
	}
	rounds := 0
	for p := 1; p < c.Procs; p *= 2 {
		rounds++
	}
	return float64(rounds) * (c.M.CommAlpha + 8.0/1024*c.M.CommBetaPerKB)
}

// commCycles statically prices one half of a pipelined exchange: a
// send pays the posting overhead, and a receive pays half of α + β·bytes
// for the halo surface of the consuming region in the offset's
// direction, the other half credited to the overlapped compute.
func (c CycleModel) commCycles(s *air.CommStmt) float64 {
	if c.Procs <= 1 {
		return 0
	}
	if s.Phase == air.CommSend {
		return c.M.CommAlpha * 0.25
	}
	elems := 1.0
	for d := 0; d < s.Region.Rank() && d < len(s.Off); d++ {
		if s.Off[d] != 0 {
			w := s.Off[d]
			if w < 0 {
				w = -w
			}
			elems *= float64(w)
		} else {
			elems *= float64(s.Region.Extent(d))
		}
	}
	return (elems*8/1024*c.M.CommBetaPerKB + c.M.CommAlpha) * 0.5
}

// CacheModel replays a bounded sketch of each cluster's reference
// stream through a simulated cachesim.Hierarchy and extrapolates: the
// same interference and reuse effects the measured machines show, at
// a cost bounded by MaxCells simulated iterations per cluster.
// Contracted references skip the hierarchy (register). Flop and
// communication charges are shared with CycleModel.
type CacheModel struct {
	M     machine.Model
	Procs int
	// MaxCells bounds simulated iterations per cluster; 0 means the
	// default of 2048.
	MaxCells int
}

// Name identifies the model in reports and cache keys.
func (c CacheModel) Name() string { return "cache:" + c.M.Name }

// BlockScore implements CostModel.
func (c CacheModel) BlockScore(prog *air.Program, g *asdg.Graph,
	p *core.Partition, contracted map[string]bool) float64 {

	cap := c.MaxCells
	if cap <= 0 {
		cap = 2048
	}
	cyc := CycleModel{M: c.M, Procs: c.Procs}
	hier, err := cachesim.NewHierarchy(c.M.Caches...)
	if err != nil {
		return cyc.BlockScore(prog, g, p, contracted)
	}

	// Row-major base addresses in sorted-name order; contracted
	// arrays are registers and get no address.
	base := map[string]int64{}
	cells := map[string]int64{}
	var names []string
	for name := range prog.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	next := int64(0)
	for _, name := range names {
		n := int64(arrayBytes(prog, name) / 8)
		if n == 0 {
			n = 1
		}
		base[name] = next
		cells[name] = n
		next += n * 8
	}
	addr := func(x string, i int64, off air.Offset) int64 {
		lin := i
		for _, o := range off {
			lin += int64(o)
		}
		n := cells[x]
		lin %= n
		if lin < 0 {
			lin += n
		}
		return base[x] + lin*8
	}

	cycles := 0.0
	for _, cl := range p.TopoClusters() {
		members := p.Members(cl)
		iters := int64(0)
		for _, v := range members {
			if s, ok := g.Stmts[v].(*air.ArrayStmt); ok {
				if n := int64(s.Region.Size()); n > iters {
					iters = n
				}
			}
		}
		if c.Procs > 1 {
			iters /= int64(c.Procs)
			if iters == 0 {
				iters = 1
			}
		}

		// Memory cycles come from the sketch replay, extrapolated;
		// everything else is charged analytically.
		sim := iters
		if sim > int64(cap) {
			sim = int64(cap)
		}
		mem := 0.0
		access := func(x string, i int64, off air.Offset) {
			if contracted[x] {
				mem += registerCycles
				return
			}
			level := hier.Access(addr(x, i, off))
			if level < len(c.M.HitCycles) {
				mem += c.M.HitCycles[level]
			} else {
				mem += c.M.MemCycles
			}
		}
		for i := int64(0); i < sim; i++ {
			for _, v := range members {
				switch s := g.Stmts[v].(type) {
				case *air.ArrayStmt:
					if int64(s.Region.Size()) <= i {
						continue
					}
					for _, r := range s.Reads() {
						access(r.Array, i, r.Off)
					}
					access(s.LHS, i, nil)
				case *air.ReduceStmt:
					for _, r := range air.Refs(s.Body) {
						access(r.Array, i, r.Off)
					}
				case *air.PartialReduceStmt:
					for _, r := range air.Refs(s.Body) {
						access(r.Array, i, r.Off)
					}
				}
			}
		}
		if sim > 0 {
			mem *= float64(iters) / float64(sim)
		}
		cycles += mem

		fusible := false
		for _, v := range members {
			switch s := g.Stmts[v].(type) {
			case *air.ArrayStmt:
				n := float64(s.Region.Size()) / cyc.div()
				cycles += n * float64(countFlops(s.RHS)) * c.M.FlopCycles
				fusible = true
			case *air.ReduceStmt:
				n := float64(s.Region.Size()) / cyc.div()
				cycles += n*float64(countFlops(s.Body)+1)*c.M.FlopCycles + loopStartCycles + n
				cycles += cyc.reduceCycles()
			case *air.PartialReduceStmt:
				n := float64(s.Region.Size()) / cyc.div()
				cycles += n*float64(countFlops(s.Body)+1)*c.M.FlopCycles + loopStartCycles + n
			case *air.CommStmt:
				cycles += cyc.commCycles(s)
			default:
				cycles += stmtCycles
			}
		}
		if fusible {
			cycles += loopStartCycles + float64(iters)
		}
	}
	return cycles
}

// countFlops counts arithmetic operations in an expression.
func countFlops(e air.Expr) int {
	n := 0
	air.Walk(e, func(x air.Expr) {
		switch x.(type) {
		case *air.BinExpr, *air.UnExpr:
			n++
		case *air.CallExpr:
			n += 8 // intrinsic call: a few flops' worth
		}
	})
	return n
}

// arrayBytes returns the allocation footprint of an array in bytes.
func arrayBytes(prog *air.Program, x string) float64 {
	a := prog.Arrays[x]
	if a == nil {
		return 0
	}
	r := a.Alloc
	if r == nil {
		r = a.Declared
	}
	if r == nil {
		return 0
	}
	return float64(r.Size()) * 8
}
