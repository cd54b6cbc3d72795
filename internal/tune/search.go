package tune

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/core"
)

// SearchOptions bounds the per-block plan search.
type SearchOptions struct {
	// Beam is the beam width of the fallback search (default 8).
	Beam int
	// ExhaustiveVertices is the largest fusible-vertex count for
	// which exhaustive set-partition enumeration is attempted
	// (default 12). Above it, beam search runs directly.
	ExhaustiveVertices int
	// MaxStates aborts exhaustive enumeration after this many
	// recursion states and falls back to beam search (default 200000),
	// bounding the Bell-number blowup.
	MaxStates int
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Beam <= 0 {
		o.Beam = 8
	}
	if o.ExhaustiveVertices <= 0 {
		o.ExhaustiveVertices = 12
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 200000
	}
	return o
}

// BlockSearch is the outcome of searching one block.
type BlockSearch struct {
	Part       *core.Partition
	Contracted map[string]bool
	Score      float64
	// Proven is true when exhaustive enumeration completed: the
	// partition is optimal under the model over the entire legal
	// plan space of the block.
	Proven bool
	// States counts enumeration/beam states explored.
	States int
	// Method is "exhaustive" or "beam".
	Method string
}

// maximalContraction contracts every candidate the partition permits:
// for a fixed partition, contraction only removes memory traffic
// (models must honor this), so the maximal legal set is optimal.
func maximalContraction(p *core.Partition, candidates []string) map[string]bool {
	out := map[string]bool{}
	for _, x := range candidates {
		cs := p.ClustersReferencing(x)
		if len(cs) == 1 && core.ContractionOK(p, x, cs) {
			out[x] = true
		}
	}
	return out
}

// searchBlock finds the best legal plan for one block: exhaustive
// when the fusible-vertex count permits, beam search otherwise (or
// when the state budget aborts enumeration).
func searchBlock(ctx context.Context, prog *air.Program, g *asdg.Graph,
	candidates []string, model CostModel, opts SearchOptions) (*BlockSearch, error) {

	opts = opts.withDefaults()
	var fusible []int
	for v := 0; v < g.N(); v++ {
		if g.IsFusible(v) {
			fusible = append(fusible, v)
		}
	}
	if len(fusible) <= opts.ExhaustiveVertices {
		res, complete, err := exhaustive(ctx, prog, g, fusible, candidates, model, opts)
		if err != nil {
			return nil, err
		}
		if complete {
			return res, nil
		}
	}
	return beamSearch(ctx, prog, g, candidates, model, opts)
}

// exhaustive enumerates every set partition of the block's fusible
// vertices in restricted-growth order, pruning a branch as soon as a
// group fails core.FusionOK merged from singletons, and checking
// condensation acyclicity at each leaf. FusionOK's conditions are
// cluster-internal and monotone — adding a vertex only adds
// constraints — which is what makes pruning a partial group sound.
// complete is false when the state budget ran out — the caller falls
// back to beam search.
func exhaustive(ctx context.Context, prog *air.Program, g *asdg.Graph,
	fusible []int, candidates []string, model CostModel,
	opts SearchOptions) (*BlockSearch, bool, error) {

	best := &BlockSearch{Score: -1, Proven: true, Method: "exhaustive"}
	states := 0
	var groups [][]int
	var ctxErr error
	singletons := core.Trivial(g)
	legal := func(group []int) bool {
		cs := make(map[int]bool, len(group))
		for _, v := range group {
			cs[v] = true
		}
		return core.FusionOK(singletons, cs)
	}

	var assign func(i int) bool // false = budget exhausted / cancelled
	assign = func(i int) bool {
		states++
		if states%1024 == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return false
			}
		}
		if states > opts.MaxStates {
			return false
		}
		if i == len(fusible) {
			clusters := make([][]int, len(groups))
			for gi, ms := range groups {
				clusters[gi] = append([]int(nil), ms...)
			}
			p, err := core.FromClusters(g, clusters)
			if err != nil || !p.Acyclic() {
				return true
			}
			contracted := maximalContraction(p, candidates)
			score := model.BlockScore(prog, g, p, contracted)
			if best.Part == nil || score < best.Score {
				best.Part, best.Contracted, best.Score = p, contracted, score
			}
			return true
		}
		v := fusible[i]
		for gi := range groups {
			groups[gi] = append(groups[gi], v)
			if legal(groups[gi]) {
				if !assign(i + 1) {
					return false
				}
			}
			groups[gi] = groups[gi][:len(groups[gi])-1]
		}
		groups = append(groups, []int{v})
		ok := assign(i + 1)
		groups = groups[:len(groups)-1]
		return ok
	}
	complete := assign(0)
	best.States = states
	if ctxErr != nil {
		return nil, false, ctxErr
	}
	if !complete || best.Part == nil {
		return nil, false, nil
	}
	return best, true, nil
}

// partSig is a canonical signature of a partition for deduplication.
func partSig(p *core.Partition) string {
	n := p.G.N()
	sig := make([]byte, 0, n*3)
	for v := 0; v < n; v++ {
		sig = append(sig, byte(p.ClusterOf(v)), byte(p.ClusterOf(v)>>8), ',')
	}
	return string(sig)
}

// beamSearch explores merges from a seed population: the trivial
// partition plus every §5.4 ladder partition (so the tuned score can
// never exceed any heuristic's), expanding each beam state by every
// legal cluster-pair merge (closed under Grow), and keeping the
// best-scoring `Beam` distinct states per round. Merges strictly
// shrink the cluster count, so the search terminates in at most N
// rounds.
func beamSearch(ctx context.Context, prog *air.Program, g *asdg.Graph,
	candidates []string, model CostModel, opts SearchOptions) (*BlockSearch, error) {

	opts = opts.withDefaults()
	type state struct {
		p          *core.Partition
		contracted map[string]bool
		score      float64
	}
	mk := func(p *core.Partition) state {
		c := maximalContraction(p, candidates)
		return state{p: p, contracted: c, score: model.BlockScore(prog, g, p, c)}
	}

	seenSig := map[string]bool{}
	var beam []state
	admit := func(s state) bool {
		sig := partSig(s.p)
		if seenSig[sig] {
			return false
		}
		seenSig[sig] = true
		beam = append(beam, s)
		return true
	}
	admit(mk(core.Trivial(g)))
	for _, lvl := range core.AllLevels() {
		p, _ := core.LadderPartition(prog, g, lvl, candidates)
		admit(mk(p))
	}
	sort.SliceStable(beam, func(i, j int) bool { return beam[i].score < beam[j].score })
	if len(beam) > opts.Beam {
		beam = beam[:opts.Beam]
	}
	best := beam[0]
	states := len(beam)

	for round := 0; round < g.N()+1; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []state
		grew := false
		for _, s := range beam {
			cl := s.p.Clusters()
			for i := 0; i < len(cl); i++ {
				for j := i + 1; j < len(cl); j++ {
					cs := map[int]bool{cl[i]: true, cl[j]: true}
					for d := range s.p.Grow(cs) {
						cs[d] = true
					}
					if !core.FusionOK(s.p, cs) {
						continue
					}
					q := s.p.Clone()
					q.MergeSet(cs)
					sig := partSig(q)
					if seenSig[sig] {
						continue
					}
					seenSig[sig] = true
					ns := mk(q)
					states++
					next = append(next, ns)
					grew = true
					if ns.score < best.score {
						best = ns
					}
				}
			}
		}
		if !grew {
			break
		}
		pool := append(beam, next...)
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].score < pool[j].score })
		if len(pool) > opts.Beam {
			pool = pool[:opts.Beam]
		}
		beam = pool
	}
	return &BlockSearch{
		Part: best.p, Contracted: best.contracted, Score: best.score,
		States: states, Method: "beam",
	}, nil
}

// String renders the outcome for logs.
func (b *BlockSearch) String() string {
	return fmt.Sprintf("%s search: score %.0f, %d states, %d clusters",
		b.Method, b.Score, b.States, b.Part.NumClusters())
}
