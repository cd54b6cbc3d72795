package core

import (
	"fmt"
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/liveness"
	"repro/internal/remark"
)

// Level is one of the incremental optimization strategies of §5.4.
type Level int

// The strategy ladder, in the paper's order.
const (
	// Baseline performs no fusion or contraction.
	Baseline Level = iota
	// F1 fuses to enable contraction of compiler arrays, without
	// performing the contraction.
	F1
	// C1 is F1 plus the contraction of compiler arrays.
	C1
	// F2 is C1 plus fusion to enable contraction of user arrays,
	// without contracting them.
	F2
	// F3 is C1 plus fusion for locality.
	F3
	// C2 is C1 plus fusion and contraction of user arrays.
	C2
	// C2F3 is C2 plus fusion for locality.
	C2F3
	// C2F4 is C2F3 plus all legal fusion by a greedy pairwise pass.
	C2F4
	// C2F4S is C2F3 plus spatial-locality-sensitive pairwise fusion
	// (only statements sharing operands merge) — the extension §5.4
	// leaves to future work.
	C2F4S
)

// External marks a plan that was supplied from outside the strategy
// ladder (ApplySpec): a serialized PlanSpec, e.g. one found by the
// zpltune search engine. It is not a ladder rung and never parses.
const External Level = -1

var levelNames = map[Level]string{
	Baseline: "baseline", F1: "f1", C1: "c1", F2: "f2",
	F3: "f3", C2: "c2", C2F3: "c2+f3", C2F4: "c2+f4", C2F4S: "c2+f4s",
	External: "external",
}

func (l Level) String() string {
	if s, ok := levelNames[l]; ok {
		return s
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Levels lists the paper's §5.4 ladder in order.
func Levels() []Level {
	return []Level{Baseline, F1, C1, F2, F3, C2, C2F3, C2F4}
}

// AllLevels is Levels plus this implementation's extensions.
func AllLevels() []Level {
	return append(Levels(), C2F4S)
}

// ParseLevel maps a strategy name ("c2", "c2+f3", "c2f3", ...) to its Level.
func ParseLevel(s string) (Level, error) {
	for _, l := range AllLevels() {
		if s == l.String() {
			return l, nil
		}
	}
	switch s {
	case "c2f3":
		return C2F3, nil
	case "c2f4":
		return C2F4, nil
	case "c2f4s":
		return C2F4S, nil
	}
	return Baseline, fmt.Errorf("unknown optimization level %q", s)
}

// ContractsTemps reports whether the level performs compiler-array
// contraction.
func (l Level) ContractsTemps() bool { return l >= C1 }

// ContractsUsers reports whether the level performs user-array
// contraction.
func (l Level) ContractsUsers() bool {
	return l == C2 || l == C2F3 || l == C2F4 || l == C2F4S
}

// FusesUsers reports whether the level fuses for user-array
// contraction (even if it does not contract).
func (l Level) FusesUsers() bool { return l == F2 || l.ContractsUsers() }

// BlockPlan is the fusion decision for one block.
type BlockPlan struct {
	Block      *air.Block
	Graph      *asdg.Graph
	Part       *Partition
	Contracted []string // arrays contracted in this block, sorted
	// Candidates is the block's liveness-approved contraction candidate
	// list, the input the decision was made from.
	Candidates []string
}

// Plan is the whole-program fusion/contraction decision. It keeps what
// the decision was made from (each block's graph and candidates, the
// liveness verdicts), and Remarks explains it from that when asked; a
// compilation nobody explains pays nothing for its remarks.
type Plan struct {
	Level      Level
	Blocks     []*BlockPlan
	Contracted map[string]bool
	// Realigned records whether the temporary-realignment pre-pass ran
	// before the ASDG was built. A PlanSpec extracted from this plan
	// must replay the same pre-pass, or its vertex indices would name a
	// differently-shaped graph.
	Realigned bool

	prog *air.Program
	live []liveness.Verdict // every referenced array's liveness verdict
	// note is the provenance remark of a supplied spec (ApplySpec with
	// a Note); its Kind is empty otherwise.
	note remark.Remark
}

// Remarks explains every decision of the plan, block by block: one
// record per fused cluster, per edge-connected unfused cluster pair,
// per (un)contracted candidate, and per liveness-excluded temporary;
// then a supplied spec's provenance. Each call renders them afresh from
// the final plan and leaves the plan untouched (it is shared through
// ccache), so concurrent calls are safe.
func (p *Plan) Remarks() []remark.Remark {
	var out []remark.Remark
	for bi, bp := range p.Blocks {
		out = append(out, p.explainBlock(bi, bp)...)
	}
	if p.note.Kind != "" {
		out = append(out, p.note)
	}
	return out
}

// BlockPlanFor returns the plan for block b, or nil.
func (p *Plan) BlockPlanFor(b *air.Block) *BlockPlan {
	for _, bp := range p.Blocks {
		if bp.Block == b {
			return bp
		}
	}
	return nil
}

// Config tunes a plan's walk for distributed compilation.
type Config struct {
	// DisableRealign suppresses the temporary-realignment pre-pass
	// (required when arrays are distributed: a realigned temporary
	// would itself need communication).
	DisableRealign bool
	// SegmentFn, when non-nil, labels a block's statements with
	// communication segments; fusion may not cross segment boundaries
	// (the FavorComm strategy of §5.5).
	SegmentFn func(stmts []air.Stmt) []int
	// PhaseStart/PhaseEnd observe the optimizer's internal phases for
	// metrics: "asdg" (dependence-graph construction), "fusion" (the
	// partitioning ladder), and "contraction" (contraction
	// bookkeeping), emitted once per statement block. Either may be
	// nil.
	PhaseStart func(name string)
	PhaseEnd   func(name string)
}

func (c Config) begin(name string) {
	if c.PhaseStart != nil {
		c.PhaseStart(name)
	}
}

func (c Config) done(name string) {
	if c.PhaseEnd != nil {
		c.PhaseEnd(name)
	}
}

// Chooser decides one block: on the block's ASDG it returns the fusion
// partition and the arrays it contracts, drawn from candidates (the
// block's liveness-approved contraction candidates). bi is the block's
// index in prog.AllBlocks(). An error stops the walk.
type Chooser func(bi int, g *asdg.Graph, candidates []string) (*Partition, map[string]bool, error)

// Walk is the one per-block planning loop of §4. It runs liveness once,
// then for each block: the temporary-realignment pre-pass when realign
// is set and cfg allows it, the ASDG with its communication segments
// (phase "asdg"), the caller's choice (phase "fusion"), and the
// contraction bookkeeping on the plan and on prog.Arrays (phase
// "contraction"). ApplyEx, ApplySpec, Emulate and the zpltune search
// differ only in their Chooser. It mutates prog only by realigning
// temporaries and marking contracted arrays; scalarization consumes the
// returned plan.
func Walk(prog *air.Program, level Level, realign bool, cfg Config, choose Chooser) (*Plan, error) {
	cands, live := liveness.Explain(prog)
	plan := &Plan{Level: level, Contracted: map[string]bool{}, prog: prog, live: live}
	realign = realign && !cfg.DisableRealign

	for bi, b := range prog.AllBlocks() {
		candidates := cands[b]
		if realign {
			RealignTemps(prog, b, candidates)
			plan.Realigned = true
		}
		cfg.begin("asdg")
		g := asdg.Build(b.Stmts)
		if cfg.SegmentFn != nil {
			g.Seg = cfg.SegmentFn(b.Stmts)
		}
		cfg.done("asdg")

		cfg.begin("fusion")
		p, contracted, err := choose(bi, g, candidates)
		cfg.done("fusion")
		if err != nil {
			return nil, err
		}

		cfg.begin("contraction")
		bp := &BlockPlan{Block: b, Graph: g, Part: p, Candidates: candidates}
		for x := range contracted {
			bp.Contracted = append(bp.Contracted, x)
			plan.Contracted[x] = true
			if a := prog.Arrays[x]; a != nil {
				a.Contracted = true
			}
		}
		sort.Strings(bp.Contracted)
		cfg.done("contraction")
		plan.Blocks = append(plan.Blocks, bp)
	}
	return plan, nil
}

// ApplyEx runs the strategy ladder on every block of the program.
func ApplyEx(prog *air.Program, level Level, cfg Config) *Plan {
	plan, _ := Walk(prog, level, level.FusesUsers(), cfg,
		func(_ int, g *asdg.Graph, candidates []string) (*Partition, map[string]bool, error) {
			p, contracted := LadderPartition(prog, g, level, candidates)
			return p, contracted, nil
		})
	return plan
}

// LadderPartition runs one rung of the §5.4 strategy ladder on a
// single block's graph, returning the fusion partition and the set of
// arrays the rung contracts. candidates is the block's liveness-
// approved contraction candidate list; the rungs below user
// contraction narrow it to compiler temporaries themselves. The
// External level (no ladder rung) degrades to the trivial partition.
//
// This is the ladder as one plan generator among several: ApplyEx
// calls it, and the zpltune search engine calls it to seed and score
// the heuristic plans it competes against.
func LadderPartition(prog *air.Program, g *asdg.Graph, level Level,
	candidates []string) (*Partition, map[string]bool) {

	var temps []string
	for _, x := range candidates {
		if a := prog.Arrays[x]; a != nil && a.Temp {
			temps = append(temps, x)
		}
	}

	var p *Partition
	contracted := map[string]bool{}
	switch level {
	case Baseline:
		p = Trivial(g)
	case F1:
		p, _ = FusionForContraction(g, nil, temps)
	case C1:
		p, contracted = FusionForContraction(g, nil, temps)
	case F2:
		var all map[string]bool
		p, all = FusionForContraction(g, nil, candidates)
		for x := range all {
			if a := prog.Arrays[x]; a != nil && a.Temp {
				contracted[x] = true
			}
		}
	case F3:
		p, contracted = FusionForContraction(g, nil, temps)
		p = FusionForLocality(g, p, AllArrays(g))
	case C2:
		p, contracted = FusionForContraction(g, nil, candidates)
	case C2F3:
		p, contracted = FusionForContraction(g, nil, candidates)
		p = FusionForLocality(g, p, AllArrays(g))
	case C2F4:
		p, contracted = FusionForContraction(g, nil, candidates)
		p = FusionForLocality(g, p, AllArrays(g))
		p = GreedyPairwise(p)
	case C2F4S:
		p, contracted = FusionForContraction(g, nil, candidates)
		p = FusionForLocality(g, p, AllArrays(g))
		p = GreedyPairwiseShared(p, 1)
	default:
		p = Trivial(g)
	}
	return p, contracted
}

// StaticArrayCounts reports, for Fig. 7, the number of static arrays
// before contraction and after, split into compiler/user arrays.
// Arrays that are never referenced by any statement are ignored.
type StaticArrayCounts struct {
	TotalCompiler      int
	TotalUser          int
	ContractedCompiler int
	ContractedUser     int
}

// Before returns the static array count prior to contraction.
func (c StaticArrayCounts) Before() int { return c.TotalCompiler + c.TotalUser }

// After returns the static array count remaining after contraction.
func (c StaticArrayCounts) After() int {
	return c.Before() - c.ContractedCompiler - c.ContractedUser
}

// CountStaticArrays tallies the program's arrays and the plan's
// contraction decisions.
func CountStaticArrays(prog *air.Program, plan *Plan) StaticArrayCounts {
	var counts StaticArrayCounts
	for name, a := range prog.Arrays {
		if a.Temp {
			counts.TotalCompiler++
			if plan.Contracted[name] {
				counts.ContractedCompiler++
			}
		} else {
			counts.TotalUser++
			if plan.Contracted[name] {
				counts.ContractedUser++
			}
		}
	}
	return counts
}
