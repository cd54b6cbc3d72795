package tune

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/sema"
)

// CompileError marks a failure of the source itself (parse, sema,
// lower) as opposed to a failure of the search: job.Classify maps it
// to exit code 3 / HTTP 422.
type CompileError = job.CompileError

// Options configures one tuning run.
type Options struct {
	// Level is the ladder heuristic the search competes against
	// (the headline comparison); default C2F4, the strongest rung.
	Level core.Level
	// Model scores candidates; nil means the analytic cycle model on
	// the Cray T3E.
	Model CostModel
	// Configs overrides config constants (problem size).
	Configs map[string]int64
	// Comm, when non-nil with Procs > 1, tunes the distributed
	// compilation: communication is inserted before planning, exactly
	// as the driver would, and the FavorComm segment constraint is
	// enforced on every candidate.
	Comm *comm.Options
	// Search bounds the per-block search.
	Search SearchOptions
	// Measure additionally compiles and runs the top-K candidate
	// plans and picks the winner by wall clock (single-process only).
	Measure bool
	// Backend selects the measured-mode execution engine: the VM
	// (default) or the native backend (BackendGo), which builds each
	// candidate through the artifact store and times the binary — so
	// the measurement reflects the engine the user will actually run.
	Backend driver.Backend
	// TopK is the measured-mode candidate count (default 3; the
	// tuned plan and the comparison heuristic are always included).
	TopK int
}

func (o Options) model() CostModel {
	if o.Model != nil {
		return o.Model
	}
	return CycleModel{M: machine.T3E(), Procs: o.procs()}
}

func (o Options) procs() int {
	if o.Comm != nil && o.Comm.Procs > 1 {
		return o.Comm.Procs
	}
	return 1
}

// BlockStats reports one block's search outcome.
type BlockStats struct {
	Block          int     `json:"block"`
	Stmts          int     `json:"stmts"`
	Fusible        int     `json:"fusible"`
	States         int     `json:"states"`
	Method         string  `json:"method"` // exhaustive | beam
	Exhaustive     bool    `json:"exhaustive"`
	HeuristicScore float64 `json:"heuristic_score"`
	TunedScore     float64 `json:"tuned_score"`
}

// Measured is one measured-mode candidate execution.
type Measured struct {
	Name       string  `json:"name"` // "tuned" or a ladder level
	ModelScore float64 `json:"model_score"`
	WallMS     float64 `json:"wall_ms"`
	Steps      int64   `json:"steps"`
}

// Result is the outcome of one tuning run.
type Result struct {
	Spec           *core.PlanSpec `json:"spec"`
	Model          string         `json:"model"`
	HeuristicLevel string         `json:"heuristic_level"`
	HeuristicScore float64        `json:"heuristic_score"`
	TunedScore     float64        `json:"tuned_score"`
	// Proven is true when every block was searched exhaustively: the
	// tuned plan is optimal under the model, so the heuristic's gap
	// to it is a gap to the true optimum.
	Proven         bool               `json:"proven"`
	ImprovementPct float64            `json:"improvement_pct"`
	Winner         string             `json:"winner"` // tuned | tie
	LevelScores    map[string]float64 `json:"level_scores"`
	Blocks         []BlockStats       `json:"blocks"`
	Measured       []Measured         `json:"measured,omitempty"`
	// MeasuredBackend names the engine the measured-mode wall clocks
	// timed ("vm" or "go"); empty without Measure.
	MeasuredBackend string `json:"measured_backend,omitempty"`
}

// frontEnd is the driver's pipeline up to the planning phase (front
// half, then communication insertion for distributed tuning), with a
// failure of the source typed as a compile error. A program the cost
// models cannot count (countable) is one too.
func frontEnd(ctx context.Context, src string, configs map[string]int64, commOpt *comm.Options) (*air.Program, core.Config, error) {
	prog, _, err := driver.FrontEnd(ctx, src, configs, driver.Hooks{})
	if err == nil {
		err = countable(prog)
	}
	if err != nil {
		return nil, core.Config{}, &CompileError{Err: err}
	}
	_, cfg := driver.Distribute(prog, commOpt, driver.Hooks{})
	return prog, cfg, nil
}

// countable refuses a program whose array storage (each array's Alloc,
// else Declared: the bounds arrayBytes prices, summed by
// sema.AddStorage) or some statement region's Points exceeds an int64.
// The models multiply sizes unchecked, so such a program would be ranked
// on wrapped numbers. It runs before communication is inserted: a
// communication statement's region is its consumer's.
func countable(prog *air.Program) error {
	var total int64
	for _, a := range prog.Arrays {
		r := a.Alloc
		if r == nil {
			r = a.Declared
		}
		var err error
		if total, err = sema.AddStorage(total, r); err != nil {
			return sema.ErrStorage
		}
	}
	for _, blk := range prog.AllBlocks() {
		for _, s := range blk.Stmts {
			sw, ok := s.(air.Sweep)
			if !ok {
				continue
			}
			_, dst := sw.Writes()
			for _, r := range []*sema.Region{sw.Over(), dst} {
				if r == nil {
					continue // a full reduction writes no region
				}
				if _, err := r.Points(); err != nil {
					return fmt.Errorf("statement region %s has more than 2^63-1 points", r)
				}
			}
		}
	}
	return nil
}

// Tune searches for the best legal fusion/contraction plan of the
// program and compares it to the strategy ladder. The returned spec
// always scores no worse than the comparison heuristic: the beam
// search is seeded with every ladder partition, and exhaustive
// enumeration covers the whole legal space.
func Tune(ctx context.Context, src string, opt Options) (*Result, error) {
	model := opt.model()
	prog, cfg, err := frontEnd(ctx, src, opt.Configs, opt.Comm)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	realign := opt.Level.FusesUsers() && !cfg.DisableRealign

	res := &Result{
		Spec:           &core.PlanSpec{Version: core.SpecVersion, Realign: realign},
		Model:          model.Name(),
		HeuristicLevel: opt.Level.String(),
		Proven:         true,
		LevelScores:    map[string]float64{},
	}

	// The compiler's own walk, with the search as its chooser: each
	// block's heuristic score, searched plan, spec and stats.
	_, err = core.Walk(prog, core.External, realign, cfg, func(bi int, g *asdg.Graph, candidates []string) (*core.Partition, map[string]bool, error) {
		heurP, heurC := core.LadderPartition(prog, g, opt.Level, candidates)
		heurScore := model.BlockScore(prog, g, heurP, heurC)

		bs, err := searchBlock(ctx, prog, g, candidates, model, opt.Search)
		if err != nil {
			return nil, nil, err
		}
		if bs.Score > heurScore {
			// Defensive: the search is seeded with the ladder, so this
			// cannot happen; if it ever did, fall back to the heuristic
			// partition with maximal contraction.
			bs.Part = heurP
			bs.Contracted = maximalContraction(heurP, candidates)
			bs.Score = model.BlockScore(prog, g, heurP, bs.Contracted)
			bs.Proven = false
		}

		bspec := core.BlockSpec{Block: bi}
		for _, c := range bs.Part.Clusters() {
			if ms := bs.Part.Members(c); len(ms) >= 2 {
				bspec.Clusters = append(bspec.Clusters, ms)
			}
		}
		for x := range bs.Contracted {
			bspec.Contract = append(bspec.Contract, x)
		}
		sort.Strings(bspec.Contract)
		res.Spec.Blocks = append(res.Spec.Blocks, bspec)

		fus := 0
		for v := 0; v < g.N(); v++ {
			if g.IsFusible(v) {
				fus++
			}
		}
		res.Blocks = append(res.Blocks, BlockStats{
			Block: bi, Stmts: g.N(), Fusible: fus,
			States: bs.States, Method: bs.Method, Exhaustive: bs.Proven,
			HeuristicScore: heurScore, TunedScore: bs.Score,
		})
		res.HeuristicScore += heurScore
		res.TunedScore += bs.Score
		res.Proven = res.Proven && bs.Proven
		return bs.Part, bs.Contracted, nil
	})
	if err != nil {
		return nil, err
	}

	if res.HeuristicScore > 0 {
		res.ImprovementPct = (res.HeuristicScore - res.TunedScore) / res.HeuristicScore * 100
	}
	if res.TunedScore < res.HeuristicScore {
		res.Winner = "tuned"
	} else {
		res.Winner = "tie"
	}
	method := "beam"
	if res.Proven {
		method = "exhaustive"
	}
	res.Spec.Note = fmt.Sprintf("plan chosen by %s search, model %s, score %.0f vs %s %.0f (%+.1f%%)",
		method, model.Name(), res.TunedScore, res.HeuristicLevel,
		res.HeuristicScore, -res.ImprovementPct)

	// Score every ladder rung for the comparison table, each through
	// its own fresh front end (realignment mutates the AIR).
	for _, lvl := range core.AllLevels() {
		s, err := scoreLevel(ctx, src, opt, lvl, model)
		if err != nil {
			return nil, err
		}
		res.LevelScores[lvl.String()] = s
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}

	if opt.Measure {
		if err := measure(ctx, src, opt, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scoreLevel compiles the program fresh at one ladder level and sums
// the model score over its blocks.
func scoreLevel(ctx context.Context, src string, opt Options, lvl core.Level, model CostModel) (float64, error) {
	prog, cfg, err := frontEnd(ctx, src, opt.Configs, opt.Comm)
	if err != nil {
		return 0, err
	}
	plan := core.ApplyEx(prog, lvl, cfg)
	total := 0.0
	for _, bp := range plan.Blocks {
		contracted := map[string]bool{}
		for _, x := range bp.Contracted {
			contracted[x] = true
		}
		total += model.BlockScore(prog, bp.Graph, bp.Part, contracted)
	}
	return total, nil
}

// measure runs the top-K candidates (the tuned plan plus the
// best-scoring ladder rungs) on the selected backend and records
// wall-clock times; the fastest becomes the winner. With the native
// backend job.Run builds each candidate through the artifact store
// first, so only execution — not the toolchain — is timed.
func measure(ctx context.Context, src string, opt Options, res *Result) error {
	if opt.procs() > 1 {
		return fmt.Errorf("measured mode requires a single process")
	}
	topK := opt.TopK
	if topK <= 0 {
		topK = 3
	}

	type cand struct {
		name  string
		score float64
		dopt  driver.Options
	}
	cands := []cand{{
		name: "tuned", score: res.TunedScore,
		dopt: driver.Options{Configs: opt.Configs, Plan: res.Spec},
	}, {
		name: res.HeuristicLevel, score: res.HeuristicScore,
		dopt: driver.Options{Configs: opt.Configs, Level: opt.Level},
	}}
	var rest []cand
	for _, lvl := range core.AllLevels() {
		if lvl == opt.Level {
			continue
		}
		rest = append(rest, cand{
			name: lvl.String(), score: res.LevelScores[lvl.String()],
			dopt: driver.Options{Configs: opt.Configs, Level: lvl},
		})
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].score < rest[j].score })
	cands = append(cands, rest...)
	if len(cands) > topK {
		cands = cands[:topK]
	}

	res.MeasuredBackend = string(opt.Backend)
	if res.MeasuredBackend == "" {
		res.MeasuredBackend = string(driver.BackendVM)
	}
	bestMS := -1.0
	for _, c := range cands {
		c.dopt.Backend = opt.Backend
		comp, err := driver.CompileCtx(ctx, src, c.dopt)
		if err != nil {
			return fmt.Errorf("measured mode: compiling %s: %w", c.name, err)
		}
		r, err := job.Run(ctx, comp, job.RunSpec{Backend: opt.Backend}, io.Discard, nil)
		if err != nil {
			return fmt.Errorf("measured mode: running %s: %w", c.name, err)
		}
		ms := float64(r.Wall.Microseconds()) / 1000
		res.Measured = append(res.Measured, Measured{
			Name: c.name, ModelScore: c.score, WallMS: ms, Steps: r.Steps,
		})
		if bestMS < 0 || ms < bestMS {
			bestMS = ms
			res.Winner = c.name
		}
	}
	return nil
}
