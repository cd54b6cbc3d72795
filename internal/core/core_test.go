package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/comm"
	"repro/internal/dep"
	"repro/internal/liveness"
	"repro/internal/lower"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/source"
)

func off(vs ...int) air.Offset { return air.Offset(vs) }

func reg2(m, n int) *sema.Region {
	return &sema.Region{Lo: []int{1, 1}, Hi: []int{m, n}}
}

func arrStmt(r *sema.Region, lhs string, reads ...air.Ref) *air.ArrayStmt {
	var rhs air.Expr
	for _, rd := range reads {
		ref := &air.RefExpr{Ref: rd}
		if rhs == nil {
			rhs = ref
		} else {
			rhs = &air.BinExpr{Op: air.OpAdd, X: rhs, Y: ref}
		}
	}
	if rhs == nil {
		rhs = &air.ConstExpr{Val: 1}
	}
	return &air.ArrayStmt{Region: r, LHS: lhs, RHS: rhs}
}

func ref(a string, vs ...int) air.Ref { return air.Ref{Array: a, Off: air.Offset(vs)} }

// ---------------------------------------------------------------------------
// FIND-LOOP-STRUCTURE

func TestFindLoopStructureUnconstrained(t *testing.T) {
	p, ok := FindLoopStructure(2, nil)
	if !ok || p[0] != 1 || p[1] != 2 {
		t.Errorf("unconstrained structure = %v, %v; want (1,2)", p, ok)
	}
}

func TestFindLoopStructureFig2(t *testing.T) {
	// Statements 1 and 3 of Fig. 2: vectors (-1,0) and (1,-1).
	// The paper derives loop structure (-2,-1).
	p, ok := FindLoopStructure(2, []air.Offset{off(-1, 0), off(1, -1)})
	if !ok {
		t.Fatal("no structure found for Fig. 2 example")
	}
	if p[0] != -2 || p[1] != -1 {
		t.Errorf("structure = %v, want (-2,-1)", p)
	}
	if !dep.Preserves(p, []air.Offset{off(-1, 0), off(1, -1)}) {
		t.Error("found structure does not preserve its inputs")
	}
}

func TestFindLoopStructureReversal(t *testing.T) {
	p, ok := FindLoopStructure(2, []air.Offset{off(-1, 0)})
	if !ok || p[0] != -1 || p[1] != 2 {
		t.Errorf("structure = %v (ok=%v), want (-1,2)", p, ok)
	}
}

func TestFindLoopStructureInterchange(t *testing.T) {
	// (0,-1),(1,-1): dimension 1 carries the second vector with
	// direction +1; dimension 2 then needs reversal.
	p, ok := FindLoopStructure(2, []air.Offset{off(0, -1), off(1, -1)})
	if !ok || p[0] != 1 || p[1] != -2 {
		t.Errorf("structure = %v (ok=%v), want (1,-2)", p, ok)
	}
}

func TestFindLoopStructureNoSolution(t *testing.T) {
	if p, ok := FindLoopStructure(2, []air.Offset{off(1, -1), off(-1, 1)}); ok {
		t.Errorf("expected NOSOLUTION, got %v", p)
	}
}

func TestFindLoopStructureSpatialPreference(t *testing.T) {
	// With no constraints in either dimension the inner loop must get
	// the higher dimension (row-major spatial locality).
	p, _ := FindLoopStructure(3, []air.Offset{off(0, 0, 0)})
	if p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Errorf("structure = %v, want (1,2,3)", p)
	}
}

// FindLoopStructure must legalize every vector set it accepts.
func TestFindLoopStructureAlwaysLegal(t *testing.T) {
	sets := [][]air.Offset{
		{off(0, 1)}, {off(2, -3)}, {off(-1, -1)}, {off(0, -2), off(0, -1)},
		{off(1, 1), off(1, -1)}, {off(-2, 0), off(-1, 5)},
	}
	for _, vs := range sets {
		p, ok := FindLoopStructure(2, vs)
		if !ok {
			continue
		}
		if !p.Valid() {
			t.Errorf("invalid structure %v for %v", p, vs)
		}
		if !dep.Preserves(p, vs) {
			t.Errorf("structure %v does not preserve %v", p, vs)
		}
	}
}

// ---------------------------------------------------------------------------
// Fusion for contraction

func plan(t *testing.T, stmts []air.Stmt, candidates []string) (*Partition, map[string]bool) {
	t.Helper()
	g := asdg.Build(stmts)
	p, contracted := FusionForContraction(g, nil, candidates)
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	return p, contracted
}

func TestContractTempPair(t *testing.T) {
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "_t1", ref("B", 0, 0)),
		arrStmt(r, "A", ref("_t1", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"_t1"})
	if !contracted["_t1"] {
		t.Error("_t1 not contracted")
	}
	if p.ClusterOf(0) != p.ClusterOf(1) {
		t.Error("def and use not fused")
	}
}

func TestFragment7(t *testing.T) {
	// B = A + A + C(0:n-1,:); C = B — fusing carries an anti
	// dependence on C with u = (-1,0); B contracts.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0), ref("A", 0, 0), ref("C", -1, 0)),
		arrStmt(r, "C", ref("B", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"B"})
	if !contracted["B"] {
		t.Error("B not contracted despite anti dependence being legalizable")
	}
	ls, ok := p.LoopStructureFor(p.ClusterOf(0))
	if !ok {
		t.Fatal("no loop structure")
	}
	if ls[0] != -1 {
		t.Errorf("outer loop = %d, want -1 (reversed dim 1)", ls[0])
	}
}

func TestNonNullFlowPreventsContraction(t *testing.T) {
	// B := A; C := B@(-1,0) — flow on B has u = (1,0) != 0, so B is
	// not contractible and the statements must not fuse for it.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "C", ref("B", -1, 0)),
	}
	_, contracted := plan(t, stmts, []string{"B"})
	if contracted["B"] {
		t.Error("B contracted despite non-null flow dependence")
	}
}

func TestDifferentRegionsPreventFusion(t *testing.T) {
	r1 := reg2(8, 8)
	r2 := reg2(4, 4)
	stmts := []air.Stmt{
		arrStmt(r1, "B", ref("A", 0, 0)),
		arrStmt(r2, "C", ref("B", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"B"})
	if contracted["B"] {
		t.Error("B contracted across non-conformable statements")
	}
	if p.ClusterOf(0) == p.ClusterOf(1) {
		t.Error("statements with different regions fused")
	}
}

func TestGrowPullsInMiddleCluster(t *testing.T) {
	// s0 writes T and X; s1 consumes X and produces Y; s2 consumes T
	// and Y. Fusing {s0, s2} for T must pull in s1 (it lies on the
	// would-be cycle), and the three-way fusion is legal, so T
	// contracts.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "Y", ref("T", 0, 0)), // also reads T to create path
		arrStmt(r, "Z", ref("T", 0, 0), ref("Y", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"T"})
	if !contracted["T"] {
		t.Error("T not contracted")
	}
	if p.NumClusters() != 1 {
		t.Errorf("expected single cluster, got %s", p)
	}
}

func TestGrowBlockedByUnfusibleMiddle(t *testing.T) {
	// The middle statement on the cycle is a barrier (writeln), so
	// the fusion — and therefore contraction — must fail.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		&air.WritelnStmt{Args: []air.WriteArg{{Str: "x"}}},
		arrStmt(r, "B", ref("T", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"T"})
	if contracted["T"] {
		t.Error("T contracted across a barrier")
	}
	if p.NumClusters() != 3 {
		t.Errorf("expected trivial partition, got %s", p)
	}
}

func TestWeightOrdering(t *testing.T) {
	big := reg2(16, 16)
	stmts := []air.Stmt{
		arrStmt(big, "T", ref("A", 0, 0)),
		arrStmt(big, "B", ref("T", 0, 0)),
		arrStmt(big, "U", ref("B", 0, 0)),
	}
	g := asdg.Build(stmts)
	// T: 2 refs × 256; U: 1 ref... B: 2 refs + write... order check.
	names := ByDecreasingWeight(g, []string{"U", "T", "B"})
	if names[0] != "B" {
		t.Errorf("heaviest = %s, want B (3 references)", names[0])
	}
	if w := weights(g)["T"]; w != 2*256 {
		t.Errorf("w(T) = %d, want 512", w)
	}
}

// TestStmtWeightsMatchGraph holds the realignment pre-pass's weights,
// read off the statements, to the graph's on every benchmark block
// (reductions and communication statements included).
func TestStmtWeightsMatchGraph(t *testing.T) {
	for _, b := range programs.All() {
		var errs source.ErrorList
		prog := lower.Lower(lowerBench(t, b.Name), &errs)
		if errs.HasErrors() {
			t.Fatal(errs.Err())
		}
		comm.Insert(prog, comm.DefaultOptions(2))
		for bi, blk := range prog.AllBlocks() {
			if got, want := stmtWeights(blk.Stmts), weights(asdg.Build(blk.Stmts)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s block %d: statement weights %v, graph weights %v", b.Name, bi, got, want)
			}
		}
	}
}

func TestReduceFusesWithProducer(t *testing.T) {
	// X := A*A; s := +<< X — fusing the reduction lets X contract.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "X", ref("A", 0, 0)),
		&air.ReduceStmt{Target: "s", Op: air.ReduceSum, Region: r,
			Body: &air.RefExpr{Ref: ref("X", 0, 0)}},
	}
	p, contracted := plan(t, stmts, []string{"X"})
	if !contracted["X"] {
		t.Error("X not contracted into the reduction")
	}
	if p.ClusterOf(0) != p.ClusterOf(1) {
		t.Error("producer and reduction not fused")
	}
}

func TestCommPreventsContraction(t *testing.T) {
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "X", ref("A", 0, 0)),
		&air.CommStmt{Array: "X", Off: off(0, 1), Region: r, Phase: air.CommRecv, MsgID: 1},
		arrStmt(r, "B", ref("X", 0, 1)),
	}
	_, contracted := plan(t, stmts, []string{"X"})
	if contracted["X"] {
		t.Error("communicated array contracted")
	}
}

// ---------------------------------------------------------------------------
// Fusion for locality and greedy pairwise

func TestFusionForLocality(t *testing.T) {
	// Fragment (1): B=A+A; C=A*A — no dependences; locality fusion
	// merges both statements because they share A.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0), ref("A", 0, 0)),
		arrStmt(r, "C", ref("A", 0, 0), ref("A", 0, 0)),
	}
	g := asdg.Build(stmts)
	p := FusionForLocality(g, nil, AllArrays(g))
	if p.ClusterOf(0) != p.ClusterOf(1) {
		t.Error("independent statements sharing A not fused for locality")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGreedyPairwiseFusesIndependents(t *testing.T) {
	// Two statements with no shared arrays: locality fusion has no
	// reason to fuse them, greedy pairwise (f4) fuses anything legal.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "D", ref("C", 0, 0)),
	}
	g := asdg.Build(stmts)
	p := FusionForLocality(g, nil, AllArrays(g))
	if p.NumClusters() != 2 {
		t.Fatalf("locality fusion should not fuse disjoint statements: %s", p)
	}
	p = GreedyPairwise(p)
	if p.NumClusters() != 1 {
		t.Errorf("greedy pairwise should fuse disjoint statements: %s", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Realignment (fragment 8)

func TestRealignFragment8(t *testing.T) {
	r := reg2(8, 8)
	prog := &air.Program{Name: "frag8", Arrays: map[string]*air.ArrayInfo{
		"A":   {Name: "A", Declared: r, Alloc: r},
		"B":   {Name: "B", Declared: r, Alloc: r},
		"T1":  {Name: "T1", Declared: r, Alloc: r},
		"T2":  {Name: "T2", Declared: r, Alloc: r},
		"_t1": {Name: "_t1", Declared: r, Alloc: r, Temp: true},
	}, Scalars: map[string]*air.ScalarInfo{}, Procs: map[string]*air.Proc{}}
	stmts := []air.Stmt{
		arrStmt(r, "T1", ref("B", 0, 0)),
		arrStmt(r, "T2", ref("B", 0, 0)),
		arrStmt(r, "_t1", ref("A", 1, 0), ref("T1", 1, 0), ref("T2", 1, 0)),
		arrStmt(r, "A", ref("_t1", 0, 0)),
	}
	b := &air.Block{Stmts: stmts}
	RealignTemps(prog, b, []string{"T1", "T2", "_t1"})

	def := b.Stmts[2].(*air.ArrayStmt)
	if def.Region.Lo[0] != 2 || def.Region.Hi[0] != 9 {
		t.Fatalf("temp not realigned: region %s", def.Region)
	}
	for _, rd := range def.Reads() {
		if !rd.Off.IsZero() {
			t.Errorf("read %s not realigned to zero offset", rd)
		}
	}
	use := b.Stmts[3].(*air.ArrayStmt)
	if u := use.Reads()[0]; !u.Off.Equal(off(1, 0)) {
		t.Errorf("use offset = %v, want (1,0)", u.Off)
	}

	// After realignment, fusion-for-contraction contracts T1 and T2
	// but sacrifices the compiler temporary — the paper's trade-off.
	g := asdg.Build(b.Stmts)
	p, contracted := FusionForContraction(g, nil, []string{"T1", "T2", "_t1"})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !contracted["T1"] || !contracted["T2"] {
		t.Errorf("user temps not contracted: %v", contracted)
	}
	if contracted["_t1"] {
		t.Error("compiler temp contracted despite realignment")
	}
}

func TestRealignKeepsDefaultForFragment5(t *testing.T) {
	// A = A(0:n-1,:)+A(0:n-1,:): the only uniformly-offset read is the
	// written array itself, so the alignment must stay put and the
	// compiler temp remain contractible.
	r := reg2(8, 8)
	prog := &air.Program{Name: "frag5", Arrays: map[string]*air.ArrayInfo{
		"A":   {Name: "A", Declared: r, Alloc: r},
		"_t1": {Name: "_t1", Declared: r, Alloc: r, Temp: true},
	}, Scalars: map[string]*air.ScalarInfo{}, Procs: map[string]*air.Proc{}}
	stmts := []air.Stmt{
		arrStmt(r, "_t1", ref("A", -1, 0), ref("A", -1, 0)),
		arrStmt(r, "A", ref("_t1", 0, 0)),
	}
	b := &air.Block{Stmts: stmts}
	RealignTemps(prog, b, []string{"_t1"})
	def := b.Stmts[0].(*air.ArrayStmt)
	if def.Region.Lo[0] != 1 {
		t.Fatalf("fragment 5 temp was realigned: %s", def.Region)
	}
	g := asdg.Build(b.Stmts)
	p, contracted := FusionForContraction(g, nil, []string{"_t1"})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !contracted["_t1"] {
		t.Error("compiler temp for fragment 5 not contracted")
	}
	// The fused loop must reverse dimension 1 to honor the anti
	// dependence on A.
	ls, ok := p.LoopStructureFor(p.ClusterOf(0))
	if !ok || ls[0] != -1 {
		t.Errorf("loop structure = %v, want (-1,2)", ls)
	}
}

func TestGreedyPairwiseSharedRefusesDisjoint(t *testing.T) {
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "D", ref("C", 0, 0)), // disjoint from the first
		arrStmt(r, "E", ref("A", 0, 0)), // shares A with the first
	}
	g := asdg.Build(stmts)
	p := GreedyPairwiseShared(Trivial(g), 1)
	if p.ClusterOf(0) != p.ClusterOf(2) {
		t.Error("statements sharing A not fused")
	}
	if p.ClusterOf(0) == p.ClusterOf(1) {
		t.Error("disjoint statements fused by the spatial variant")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLevelParsingExtensions(t *testing.T) {
	for _, name := range []string{"c2+f4s", "c2f4s"} {
		lvl, err := ParseLevel(name)
		if err != nil || lvl != C2F4S {
			t.Errorf("ParseLevel(%q) = %v, %v", name, lvl, err)
		}
	}
	if len(AllLevels()) != len(Levels())+1 {
		t.Error("AllLevels must extend Levels by c2+f4s")
	}
	if !C2F4S.ContractsUsers() || !C2F4S.FusesUsers() {
		t.Error("c2+f4s capability flags wrong")
	}
}

// ---------------------------------------------------------------------------
// The partitioner against its definition.
//
// The production partitioner maintains a cluster condensation, memoises
// failed pairs and pre-filters by class. The references below do none
// of that: they execute Fig. 3's GROW, Definition 5 and the f4 rescan
// literally, on nothing but the rep vector and the ASDG's edges — the
// code the optimized paths replaced. Identical merge results on the
// benchmarks and on random graphs are what "a complexity fix, not a
// heuristic change" means.

// refGrow is GROW with the condensation rebuilt from every edge.
func refGrow(p *Partition, c map[int]bool) map[int]bool {
	succ, pred := map[int][]int{}, map[int][]int{}
	for _, e := range p.G.Edges {
		if a, b := p.rep[e.From], p.rep[e.To]; a != b {
			succ[a] = append(succ[a], b)
			pred[b] = append(pred[b], a)
		}
	}
	reach := func(adj map[int][]int) map[int]bool {
		seen := map[int]bool{}
		var stack []int
		for s := range c {
			stack = append(stack, s)
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return seen
	}
	down, up := reach(succ), reach(pred)
	out := map[int]bool{}
	for v := range down {
		if up[v] && !c[v] {
			out[v] = true
		}
	}
	return out
}

// refFusionOK is FUSION-PARTITION? as Definition 5 reads, plus the
// segment rule, over the vertices of the clusters in cs.
func refFusionOK(p *Partition, cs map[int]bool) bool {
	if len(cs) < 2 {
		return true
	}
	g := p.G
	first := -1
	for v, r := range p.rep {
		if !cs[r] {
			continue
		}
		if !g.IsFusible(v) {
			return false
		}
		if first < 0 {
			first = v
		}
		if !Translates(g.StmtRegion(first), g.StmtRegion(v)) || g.Seg != nil && g.Seg[v] != g.Seg[first] {
			return false
		}
	}
	vectors, flowsNull, ok := p.IntraVectors(cs)
	if !ok || !flowsNull {
		return false
	}
	_, found := FindLoopStructure(g.StmtRegion(first).Rank(), vectors)
	return found
}

// refGreedy is the f4 rescan as first written: after every merge start
// over from the first pair, test every pair again. minShared > 0 is
// the spatial variant, its reference sets recomputed per pair.
func refGreedy(p *Partition, minShared int) *Partition {
	refs := func(c int) map[string]bool {
		out := map[string]bool{}
		for _, v := range p.Members(c) {
			switch s := p.G.Stmts[v].(type) {
			case *air.ArrayStmt:
				out[s.LHS] = true
				for _, r := range s.Reads() {
					out[r.Array] = true
				}
			case *air.ReduceStmt:
				for _, r := range air.Refs(s.Body) {
					out[r.Array] = true
				}
			}
		}
		return out
	}
	for {
		merged := false
		cl := p.Clusters()
		for i := 0; i < len(cl) && !merged; i++ {
			for j := i + 1; j < len(cl) && !merged; j++ {
				if minShared > 0 {
					shared, rj := 0, refs(cl[j])
					for x := range refs(cl[i]) {
						if rj[x] {
							shared++
						}
					}
					if shared < minShared {
						continue
					}
				}
				c := map[int]bool{cl[i]: true, cl[j]: true}
				for d := range refGrow(p, c) {
					c[d] = true
				}
				if refFusionOK(p, c) {
					p.MergeSet(c)
					merged = true
				}
			}
		}
		if !merged {
			return p
		}
	}
}

// randomGraph builds the ASDG of a random block: array statements over
// two conformable regions and one that is not, neighbour offsets,
// reductions, and unfusible statements (communication, scalar
// assignments, a writeln barrier); half the graphs carry segment
// labels.
func randomGraph(r *rand.Rand) *asdg.Graph {
	regions := []*sema.Region{
		reg2(8, 8),
		{Lo: []int{2, 2}, Hi: []int{9, 9}},
		reg2(6, 8),
	}
	array := func() string { return fmt.Sprintf("A%d", r.Intn(6)) }
	reads := func() []air.Ref {
		out := make([]air.Ref, 1+r.Intn(3))
		for i := range out {
			out[i] = ref(array(), r.Intn(3)-1, r.Intn(3)-1)
		}
		return out
	}
	var stmts []air.Stmt
	for n := 4 + r.Intn(12); len(stmts) < n; {
		reg := regions[r.Intn(len(regions))]
		switch k := r.Intn(20); {
		case k < 15:
			stmts = append(stmts, arrStmt(reg, array(), reads()...))
		case k < 17:
			stmts = append(stmts, &air.ReduceStmt{Target: "s", Region: reg, Body: arrStmt(reg, "", reads()...).RHS})
		case k < 18:
			stmts = append(stmts, &air.CommStmt{Array: array(), Off: off(0, 1), Region: reg, Phase: air.CommRecv, MsgID: 1})
		case k < 19:
			stmts = append(stmts, &air.ScalarStmt{LHS: "s", RHS: &air.ConstExpr{Val: 1}})
		default:
			stmts = append(stmts, &air.WritelnStmt{Args: []air.WriteArg{{Str: "x"}}})
		}
	}
	g := asdg.Build(stmts)
	if r.Intn(2) == 0 {
		g.Seg = make([]int, len(stmts))
		for v := 1; v < len(stmts); v++ {
			g.Seg[v] = g.Seg[v-1]
			if r.Intn(5) == 0 {
				g.Seg[v]++
			}
		}
	}
	return g
}

// sameGreedy runs the production and the reference greedy from copies
// of start and requires the same clusters.
func sameGreedy(t *testing.T, what string, start *Partition) {
	t.Helper()
	for _, minShared := range []int{0, 1, 2} {
		got, want := greedyPairs(start.Clone(), minShared), refGreedy(start.Clone(), minShared)
		if !reflect.DeepEqual(got.rep, want.rep) {
			t.Errorf("%s, minShared %d:\n got  %s\n want %s", what, minShared, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s, minShared %d: %v", what, minShared, err)
		}
	}
}

func TestGreedyMatchesReferenceOnBenchmarks(t *testing.T) {
	for _, b := range programs.All() {
		for _, mode := range []string{"seq", "p2", "p2 favor-comm"} {
			var errs source.ErrorList
			prog := lower.Lower(lowerBench(t, b.Name), &errs)
			if errs.HasErrors() {
				t.Fatal(errs.Err())
			}
			if mode != "seq" {
				comm.Insert(prog, comm.DefaultOptions(2))
			}
			cands := liveness.Candidates(prog)
			for bi, blk := range prog.AllBlocks() {
				g := asdg.Build(blk.Stmts)
				if mode == "p2 favor-comm" {
					g.Seg = comm.Segments(blk.Stmts)
				}
				what := fmt.Sprintf("%s %s block %d", b.Name, mode, bi)
				sameGreedy(t, what+" from trivial", Trivial(g))
				p, _ := FusionForContraction(g, nil, cands[blk])
				sameGreedy(t, what+" from c2+f3", FusionForLocality(g, p, AllArrays(g)))
			}
		}
	}
}

func TestGreedyMatchesReferenceOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		g := randomGraph(r)
		start := Trivial(g)
		start.NoCarriedAnti = i%3 == 0
		what := fmt.Sprintf("graph %d (anti %v, seg %v)", i, start.NoCarriedAnti, g.Seg != nil)
		sameGreedy(t, what, start)
		if t.Failed() {
			t.Fatalf("%s:\n%s", what, g)
		}
	}
}

// randomSet picks k distinct clusters of p.
func randomSet(r *rand.Rand, p *Partition, k int) map[int]bool {
	cl := p.Clusters()
	cs := map[int]bool{}
	for _, i := range r.Perm(len(cl))[:min(k, len(cl))] {
		cs[cl[i]] = true
	}
	return cs
}

// TestCondensationTracksMerges drives random legal merge sequences and
// after every merge compares what the partition maintains with what
// the definitions give: GROW and FUSION-PARTITION? on random sets, and
// the member and adjacency lists against a fresh condensation of rep.
func TestCondensationTracksMerges(t *testing.T) {
	lists := func(p *Partition) string { return fmt.Sprint(p.members, p.succ, p.pred, p.count) }
	r := rand.New(rand.NewSource(61))
	merges := 0
	for i := 0; i < 200; i++ {
		g := randomGraph(r)
		p := Trivial(g)
		p.NoCarriedAnti = i%4 == 0
		for try := 0; try < 2*g.N(); try++ {
			cs := randomSet(r, p, 2)
			for d := range p.Grow(cs) {
				cs[d] = true
			}
			if refFusionOK(p, cs) {
				p.MergeSet(cs)
				merges++
			}
			fresh := &Partition{G: g, rep: append([]int(nil), p.rep...)}
			fresh.condense()
			if got, want := lists(p), lists(fresh); got != want {
				t.Fatalf("graph %d: condensation after merging %v:\n got  %s\n want %s\n%s", i, cs, got, want, g)
			}
			if got, want := lists(p.Clone()), lists(p); got != want {
				t.Fatalf("graph %d: clone differs:\n got  %s\n want %s", i, got, want)
			}
			for k := 1; k <= 3; k++ {
				cs := randomSet(r, p, k)
				if got, want := p.Grow(cs), refGrow(p, cs); !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d: Grow(%v) = %v, want %v\n%s\n%s", i, cs, got, want, p, g)
				}
				if got, want := FusionOK(p, cs), refFusionOK(p, cs); got != want {
					t.Fatalf("graph %d: FusionOK(%v) = %v, want %v\n%s\n%s", i, cs, got, want, p, g)
				}
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
	if merges < 200 {
		t.Errorf("only %d merges exercised", merges)
	}
}

// TestFusionAntiMonotone checks the property the failed-pair memo and
// the class pre-filter rest on: a cluster set that fails
// FUSION-PARTITION? fails with any clusters added, before and after
// merges (which only ever add vertices to a closure).
func TestFusionAntiMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	failing := 0
	for i := 0; i < 300; i++ {
		g := randomGraph(r)
		p := Trivial(g)
		p.NoCarriedAnti = i%3 == 0
		if i%2 == 0 {
			p = GreedyPairwiseShared(p, 2) // some multi-statement clusters
		}
		for try := 0; try < 20; try++ {
			cs := randomSet(r, p, 2+r.Intn(2))
			if FusionOK(p, cs) {
				continue
			}
			failing++
			for c := range randomSet(r, p, 1+r.Intn(3)) {
				cs[c] = true
			}
			if FusionOK(p, cs) || refFusionOK(p, cs) {
				t.Fatalf("graph %d: superset %v of a failing set passes\n%s\n%s", i, cs, p, g)
			}
		}
	}
	if failing < 1000 {
		t.Errorf("only %d failing sets exercised", failing)
	}
}

// TestGrowSteadyStateAllocs: once the partition's scratch has grown,
// GROW allocates its result map and nothing else.
func TestGrowSteadyStateAllocs(t *testing.T) {
	// A chain T → Y → Z: GROW({T, Z}) = {Y}.
	r := reg2(8, 8)
	p := Trivial(asdg.Build([]air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "Y", ref("T", 0, 0)),
		arrStmt(r, "Z", ref("Y", 0, 0)),
	}))
	ends := map[int]bool{0: true, 2: true}
	if got := p.Grow(ends); !reflect.DeepEqual(got, map[int]bool{1: true}) {
		t.Fatalf("Grow = %v, want {1}", got)
	}
	var sink map[int]bool
	result := testing.AllocsPerRun(100, func() {
		sink = map[int]bool{}
		sink[1] = true
	})
	if got := testing.AllocsPerRun(100, func() { sink = p.Grow(ends) }); got > result {
		t.Errorf("Grow allocates %.0f times, its result alone %.0f", got, result)
	}
}

// TestNonRepresentativeKeys: any member vertex names its cluster.
func TestNonRepresentativeKeys(t *testing.T) {
	r := reg2(8, 8)
	g := asdg.Build([]air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "C", ref("B", 0, 0)),
		arrStmt(r, "D", ref("C", 0, 0)),
	})
	p := Trivial(g)
	p.MergeSet(map[int]bool{0: true, 1: true})
	if ls, ok := p.LoopStructureFor(1); ls != nil || !ok {
		t.Errorf("LoopStructureFor(non-representative) = %v, %v; want nil, true", ls, ok)
	}
	p.MergeSet(map[int]bool{1: true, 2: true}) // 1 names cluster {0, 1}
	if p.NumClusters() != 1 || p.ClusterOf(2) != 0 {
		t.Errorf("MergeSet through a member vertex: %s", p)
	}
}
