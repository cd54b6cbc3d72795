package vm_test

// The strip-width differential. A sweep is legal strip-wise at every
// width (see the comment on sweeps in compile.go), so nothing a program
// can observe may depend on the width: here every case runs at width 1
// (the element-at-a-time order a traced machine uses), at 3 (strips
// that end mid-row, guards that clip at a strip edge, extents that do
// not divide) and at the production width, and the transcripts, the
// bits of every array and scalar and the step counts must agree.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/air"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/vm"
)

var widths = []int{1, 3, vm.StripWidth}

// outcome is everything a run lets a caller observe.
type outcome struct {
	out     string
	steps   int64
	scalars map[string]float64
	arrays  map[string][]float64
}

func observe(c *driver.Compilation, m *vm.Machine, out string, steps int64) outcome {
	o := outcome{out: out, steps: steps, scalars: m.Scalars(), arrays: map[string][]float64{}}
	for name, info := range c.LIR.Source.Arrays {
		if !info.Contracted {
			o.arrays[name] = m.ArrayData(name)
		}
	}
	return o
}

// diff describes the first difference between two outcomes, or "".
func (o outcome) diff(p outcome) string {
	if o.out != p.out {
		return fmt.Sprintf("transcript %q vs %q", o.out, p.out)
	}
	if o.steps != p.steps {
		return fmt.Sprintf("steps %d vs %d", o.steps, p.steps)
	}
	if len(o.scalars) != len(p.scalars) || len(o.arrays) != len(p.arrays) {
		return "different sets of scalars or arrays"
	}
	for name, v := range o.scalars {
		if w, ok := p.scalars[name]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Sprintf("scalar %s = %v vs %v", name, v, w)
		}
	}
	for name, a := range o.arrays {
		b := p.arrays[name]
		if len(a) != len(b) {
			return fmt.Sprintf("array %s has %d vs %d elements", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return fmt.Sprintf("%s[%d] = %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	return ""
}

// runAt executes a compilation on a whole-program machine at a width.
func runAt(t *testing.T, c *driver.Compilation, width int) outcome {
	t.Helper()
	var out bytes.Buffer
	m, err := vm.NewWidth(c.LIR, vm.Options{Out: &out, Bounds: c.Bounds}, nil, width)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("width %d: %v", width, err)
	}
	return observe(c, m, out.String(), res.Steps)
}

// sameAtEveryWidth runs c at every width, fails on any difference and
// returns the common outcome.
func sameAtEveryWidth(t *testing.T, id string, c *driver.Compilation) outcome {
	t.Helper()
	first := runAt(t, c, widths[0])
	for _, w := range widths[1:] {
		if d := first.diff(runAt(t, c, w)); d != "" {
			t.Errorf("%s: width %d vs width %d: %s", id, widths[0], w, d)
		}
	}
	return first
}

func mustCompile(t *testing.T, src string, opt driver.Options) *driver.Compilation {
	t.Helper()
	c, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWidthBenchmarks: every benchmark at every level. ep (rank 1,
// n = 300) and one rank-2 cell at n = 140 cross a strip boundary at the
// production width too.
func TestWidthBenchmarks(t *testing.T) {
	for _, b := range programs.All() {
		n := int64(11)
		if b.Rank == 1 {
			n = 300
		}
		for _, lvl := range core.AllLevels() {
			c := mustCompile(t, b.Source, driver.Options{Level: lvl, Configs: map[string]int64{b.SizeConfig: n}})
			sameAtEveryWidth(t, fmt.Sprintf("%s/%s", b.Name, lvl), c)
		}
	}
	b, _ := programs.ByName("tomcatv")
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		c := mustCompile(t, b.Source, driver.Options{Level: lvl, Configs: map[string]int64{b.SizeConfig: 140}})
		sameAtEveryWidth(t, fmt.Sprintf("tomcatv n=140/%s", lvl), c)
	}
}

// TestWidthRandomPrograms draws from the corpus the driver's property
// tests use: guarded statements over an interior region fused with
// whole-region ones, one-sided offsets, reductions inside loops.
func TestWidthRandomPrograms(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 20
	}
	for seed := 1; seed <= seeds; seed++ {
		src := programs.Random(rand.New(rand.NewSource(int64(seed))))
		for _, opt := range []driver.Options{
			{Level: core.Baseline},
			{Level: core.C2F4},
			{Level: core.C2F3, ScalarReplace: true, Configs: map[string]int64{"n": 10}},
		} {
			c := mustCompile(t, src, opt)
			sameAtEveryWidth(t, fmt.Sprintf("seed %d/%s/scalarrep=%t", seed, opt.Level, opt.ScalarReplace), c)
		}
	}
}

// TestWidthEdges: the hand-written cases, over extents that are 1,
// shorter than every width above 1, and not a multiple of 3.
func TestWidthEdges(t *testing.T) {
	sizes := []map[string]int64{{"m": 5, "n": 7}, {"m": 4, "n": 4}, {"m": 3, "n": 140}, {"m": 9, "n": 5}}
	for _, cfg := range sizes {
		for _, lvl := range []core.Level{core.Baseline, core.C2, core.C2F4} {
			for _, sr := range []bool{false, true} {
				id := fmt.Sprintf("edges %v/%s/scalarrep=%t", cfg, lvl, sr)
				c := mustCompile(t, programs.EdgeSrc, driver.Options{Level: lvl, Configs: cfg, ScalarReplace: sr})
				descending, preloads := false, 0
				for _, nest := range lir.Nests(c.LIR.Main.Body) {
					descending = descending || nest.Order[len(nest.Order)-1] < 0
					preloads += len(nest.Preloads)
				}
				if (!descending && lvl != core.Baseline) || (sr && preloads == 0) {
					t.Errorf("%s: descending innermost loop %t, %d preloads; the case is vacuous", id, descending, preloads)
				}
				for _, nest := range lir.Nests(c.LIR.Main.Body) {
					for _, s := range nest.Body {
						if b, ok := s.RHS.(*air.BinExpr); ok && s.IsReduce {
							if k, ok := b.Y.(*air.ConstExpr); ok && k.Val == 77 {
								s.RHS = &air.ConstExpr{Val: 0.1}
							}
						}
					}
				}
				want := 0.0
				for i := int64(0); i < cfg["m"]*cfg["n"]; i++ {
					want += 0.1
				}
				if got := sameAtEveryWidth(t, id, c).scalars["u"]; got != want {
					t.Errorf("%s: u = %v, want 0.1 folded %d times = %v", id, got, cfg["m"]*cfg["n"], want)
				}
			}
		}
	}
	for _, cfg := range sizes {
		c := mustCompile(t, programs.GuardSrc, driver.Options{Level: core.C2F4, Configs: cfg})
		clips, rows, regs := false, false, false
		for _, nest := range lir.Nests(c.LIR.Main.Body) {
			for _, s := range nest.Body {
				if s.Guard != nil {
					rows = rows || s.Guard.Extent(0) != nest.Region.Extent(0)
					clips = clips || s.Guard.Extent(1) != nest.Region.Extent(1)
					regs = regs || s.Contracted
				}
			}
		}
		if !clips || !rows || !regs {
			t.Errorf("guards %v: clipping guard %t, row guard %t, guarded register %t; the case is vacuous", cfg, clips, rows, regs)
		}
		sameAtEveryWidth(t, fmt.Sprintf("guards %v", cfg), c)
	}
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		sameAtEveryWidth(t, fmt.Sprintf("cube/%s", lvl), mustCompile(t, programs.Rank3Src, driver.Options{Level: lvl}))
		sameAtEveryWidth(t, fmt.Sprintf("logic/%s", lvl), mustCompile(t, logicSrc, driver.Options{Level: lvl}))
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "rowsums.za"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 2, 8, 131} {
		sameAtEveryWidth(t, fmt.Sprintf("rowsums n=%d", n), mustCompile(t, string(src), driver.Options{Configs: map[string]int64{"n": n}}))
	}
}

// selfRead is LIR no front end emits (lowering snapshots a statement's
// own left-hand side): over [1..4, 1..7], three nests that initialise
// A, B and C, then A := A@(0,1)*2 + B with an ascending innermost loop
// and C := C@(0,-1)*0.5 - B with a descending one, each legal in its
// direction under array semantics.
func selfRead() *lir.Program {
	R := func(lo, hi int) *sema.Region { return &sema.Region{Lo: []int{1, lo}, Hi: []int{4, hi}} }
	bin := func(op air.Op, x, y air.Expr) air.Expr { return &air.BinExpr{Op: op, X: x, Y: y} }
	k := func(v float64) air.Expr { return &air.ConstExpr{Val: v} }
	ref := func(a string, off int) air.Expr { return &air.RefExpr{Ref: air.Ref{Array: a, Off: air.Offset{0, off}}} }
	i, j := &air.IndexExpr{Dim: 1}, &air.IndexExpr{Dim: 2}
	nest := func(r *sema.Region, dir int, lhs string, rhs air.Expr) *lir.Nest {
		return &lir.Nest{Region: r, Order: dep.LoopStructure{1, 2 * dir}, Body: []*lir.NestStmt{{LHS: lhs, RHS: rhs}}}
	}
	arrays := map[string]*air.ArrayInfo{}
	for _, n := range []string{"A", "B", "C"} {
		arrays[n] = &air.ArrayInfo{Name: n, Declared: R(1, 7), Alloc: R(1, 7)}
	}
	return &lir.Program{
		Name:   "selfread",
		Source: &air.Program{Arrays: arrays, Scalars: map[string]*air.ScalarInfo{}},
		Procs: map[string]*lir.Proc{"main": {Name: "main", Body: []lir.Node{
			nest(R(1, 7), 1, "A", bin(air.OpAdd, bin(air.OpMul, i, k(10)), j)),
			nest(R(1, 7), 1, "B", bin(air.OpSub, bin(air.OpMul, j, k(0.5)), i)),
			nest(R(1, 7), 1, "C", bin(air.OpSub, i, bin(air.OpMul, j, k(0.25)))),
			nest(R(1, 6), 1, "A", bin(air.OpAdd, bin(air.OpMul, ref("A", 1), k(2)), ref("B", 0))),
			nest(R(2, 7), -1, "C", bin(air.OpSub, bin(air.OpMul, ref("C", -1), k(0.5)), ref("B", 0))),
		}}},
	}
}

// regSrc is programs.GuardSrc with the contracted T1, whose guard clips
// the strip, computed by a right-hand side that releases four scratch
// buffers before its root operator: a register taken after it compiles
// would be one of them, seen at another offset of the strip.
var regSrc = strings.Replace(programs.GuardSrc, "T1 := B;", "T1 := (B * B + B * 2.0) * (B - B * B) + (B * 3.0 - B * 0.5);", 1)

// TestWidthDirectWrites: a statement's root operator writes straight
// into its destination only where no load of the statement can view it.
// Neither self-reading statement of selfRead does, and their arrays are
// the element-wise values of array semantics at every width; the three
// initialisations do. regSrc's contracted statement writes its register
// directly, and agrees at every width and with the baseline, which has
// no register.
func TestWidthDirectWrites(t *testing.T) {
	m, err := vm.New(selfRead(), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := vm.DirectWrites(m); got != 3 {
		t.Errorf("selfread: %d direct writes, want the three initialisations'", got)
	}
	const rows, cols = 4, 7
	a, cc := make([]float64, rows*cols), make([]float64, rows*cols)
	for i := 1; i <= rows; i++ {
		for j := 1; j <= cols; j++ {
			a[(i-1)*cols+j-1] = float64(float64(i)*10.0) + float64(j)
			cc[(i-1)*cols+j-1] = float64(i) - float64(float64(j)*0.25)
		}
	}
	wantA, wantC := slices.Clone(a), slices.Clone(cc)
	for i := 1; i <= rows; i++ {
		for j := 1; j <= cols; j++ {
			p, b := (i-1)*cols+j-1, float64(float64(j)*0.5)-float64(i)
			if j < cols {
				wantA[p] = float64(a[p+1]*2.0) + b
			}
			if j > 1 {
				wantC[p] = float64(cc[p-1]*0.5) - b
			}
		}
	}
	got := sameAtEveryWidth(t, "selfread", &driver.Compilation{LIR: selfRead()})
	if !slices.Equal(got.arrays["A"], wantA) || !slices.Equal(got.arrays["C"], wantC) {
		t.Errorf("selfread: A = %v, C = %v; want %v, %v", got.arrays["A"], got.arrays["C"], wantA, wantC)
	}

	c := mustCompile(t, regSrc, driver.Options{Level: core.C2F4})
	clipped := false
	for _, nest := range lir.Nests(c.LIR.Main.Body) {
		for _, s := range nest.Body {
			_, op := s.RHS.(*air.BinExpr)
			inner := len(nest.Region.Lo) - 1
			clipped = clipped || s.Contracted && op && s.Guard != nil && s.Guard.Extent(inner) != nest.Region.Extent(inner)
		}
	}
	if !clipped {
		t.Fatal("regSrc at c2+f4 has no contracted operator statement under a clipping guard; the case is vacuous")
	}
	got = sameAtEveryWidth(t, "regSrc/c2+f4", c)
	want := runAt(t, mustCompile(t, regSrc, driver.Options{Level: core.Baseline}), vm.StripWidth)
	if !slices.Equal(got.arrays["A"], want.arrays["A"]) {
		t.Errorf("regSrc: A = %v at c2+f4, %v at baseline", got.arrays["A"], want.arrays["A"])
	}
}

// TestWidthLoopStructures imposes every signed permutation of the two
// loops on the nests of programs.PermSrc and programs.GuardSrc (whose
// fused nest has only null distances too): descending and strided
// innermost loops, with guards and reductions inside them. Widths must
// agree under each structure; across structures only the arrays are
// compared, because a reduction's bits follow the traversal.
func TestWidthLoopStructures(t *testing.T) {
	for _, order := range []dep.LoopStructure{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}, {2, 1}, {2, -1}, {-2, 1}, {-2, -1}} {
		for name, src := range map[string]string{"perm": programs.PermSrc, "guards": programs.GuardSrc} {
			for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
				c := mustCompile(t, src, driver.Options{Level: lvl})
				for _, nest := range lir.Nests(c.LIR.Main.Body) {
					nest.Order = order
				}
				id := fmt.Sprintf("%s %v/%s", name, order, lvl)
				got := sameAtEveryWidth(t, id, c)
				want := runAt(t, mustCompile(t, src, driver.Options{Level: lvl}), vm.StripWidth)
				want.out, want.scalars, got.out, got.scalars = "", nil, "", nil
				if d := want.diff(got); d != "" {
					t.Errorf("%s: arrays differ from the compiler's own structure: %s", id, d)
				}
			}
		}
	}
}

// faultedRead reports whether the compilation's seeded fault sits on a
// read of an array that the read's nest does not write.
func faultedRead(c *driver.Compilation) bool {
	for _, nest := range lir.Nests(c.LIR.Main.Body) {
		written, found := map[string]bool{}, ""
		for _, s := range nest.Body {
			if !s.IsReduce && !s.Contracted {
				written[s.LHS] = true
			}
			air.Walk(s.RHS, func(e air.Expr) {
				if r, ok := e.(*air.RefExpr); ok {
					if site := c.Bounds.Read(r); site != nil && site.Faulted {
						found = r.Ref.Array
					}
				}
			})
		}
		if found != "" {
			return !written[found]
		}
	}
	return false
}

// TestWidthFaultShift: a seeded evidence fault displaces its site
// element by element at every width. Where the displaced access cannot
// meet a store of the same sweep (a read of an array its nest only
// reads) the wrong answer is the same wrong answer at every width;
// elsewhere the miscompile has broken the dependences the legality
// argument rests on, and all that is asked is that every width still
// runs inside the storage.
func TestWidthFaultShift(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.za"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
		opt := driver.Options{Level: lvl, Configs: map[string]int64{"n": 10, "steps": 2}}
		clean := mustCompile(t, string(src), opt)
		want := sameAtEveryWidth(t, "heat", clean)
		compared, visible := 0, 0
		for site := 1; site <= len(clean.Bounds.Sites); site++ {
			opt.ProveFault = site
			c := mustCompile(t, string(src), opt)
			if !faultedRead(c) {
				for _, w := range widths {
					runAt(t, c, w)
				}
				continue
			}
			compared++
			if sameAtEveryWidth(t, fmt.Sprintf("heat/%s/provefault=%d", lvl, site), c).out != want.out {
				visible++
			}
		}
		if compared == 0 || visible == 0 {
			t.Errorf("%s: %d faulted reads compared across widths, %d changed the output", lvl, compared, visible)
		}
	}
}

// rowBlocks is a Shard for processor rank of procs that owns a block of
// the first dimension's indices 1..rows and keeps whole-allocation
// storage, so programs need no Comm nodes. All-combines meet at a
// barrier shared by the group and fold in processor order.
type rowBlocks struct {
	rank, procs, rows int
	prog              *lir.Program
	group             *combiner
}

func (s rowBlocks) Local(array string) *sema.Region { return s.prog.Source.Arrays[array].Alloc }

func (s rowBlocks) Portion(r *sema.Region) *sema.Region {
	per := (s.rows + s.procs - 1) / s.procs
	lo, hi := max(r.Lo[0], 1+s.rank*per), min(r.Hi[0], (s.rank+1)*per)
	if lo > hi {
		return nil
	}
	p := &sema.Region{Lo: append([]int(nil), r.Lo...), Hi: append([]int(nil), r.Hi...)}
	p.Lo[0], p.Hi[0] = lo, hi
	return p
}

func (rowBlocks) Comm(*lir.Comm, []float64) (func() error, error) {
	return func() error { return nil }, nil
}

func (s rowBlocks) AllCombine(part []float64, fold func(acc, next []float64)) ([]float64, error) {
	return s.group.combine(s.rank, part, fold), nil
}

// combiner is a reusable all-reduce barrier for a fixed group.
type combiner struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parts   [][]float64
	arrived int
	round   int
	result  []float64
}

func newCombiner(procs int) *combiner {
	c := &combiner{parts: make([][]float64, procs)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *combiner) combine(rank int, part []float64, fold func(acc, next []float64)) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parts[rank] = part
	c.arrived++
	if c.arrived == len(c.parts) {
		acc := c.parts[0]
		for _, next := range c.parts[1:] {
			fold(acc, next)
		}
		c.result, c.arrived = acc, 0
		c.round++
		c.cond.Broadcast()
		return acc
	}
	for round := c.round; round == c.round; {
		c.cond.Wait()
	}
	return c.result
}

// runShards executes c as procs shard machines at a width and returns
// each processor's outcome.
func runShards(t *testing.T, c *driver.Compilation, procs, rows, width int) []outcome {
	t.Helper()
	group := newCombiner(procs)
	outs := make([]outcome, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for rank := 0; rank < procs; rank++ {
		var out bytes.Buffer
		sh := rowBlocks{rank: rank, procs: procs, rows: rows, prog: c.LIR, group: group}
		m, err := vm.NewWidth(c.LIR, vm.Options{Out: &out}, sh, width)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(rank int, out *bytes.Buffer) {
			defer wg.Done()
			res, err := m.Run()
			if err != nil {
				errs[rank] = err
				return
			}
			outs[rank] = observe(c, m, out.String(), res.Steps)
		}(rank, &out)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("p=%d width %d: processor %d: %v", procs, width, rank, err)
		}
	}
	return outs
}

// TestWidthShards: shard machines — owned portions, the all-combine of
// full reductions, the dense-buffer partial reduction — at p = 1, 2 and
// 4 over the four rows programs.GuardSrc sweeps when m = 3, so that the last
// processor of four owns no part of any sweep over R.
// Every processor's outcome must be the same at every width, and p = 1
// must be the whole-program machine.
func TestWidthShards(t *testing.T) {
	cfg := map[string]int64{"m": 3, "n": 7}
	for _, src := range []string{programs.EdgeSrc, programs.PermSrc, programs.GuardSrc, programs.BuiltinSrc()} {
		for _, lvl := range []core.Level{core.Baseline, core.C2F4} {
			c := mustCompile(t, src, driver.Options{Level: lvl, Configs: cfg})
			for _, procs := range []int{1, 2, 4} {
				first := runShards(t, c, procs, 4, widths[0])
				for _, w := range widths[1:] {
					for rank, o := range runShards(t, c, procs, 4, w) {
						if d := first[rank].diff(o); d != "" {
							t.Errorf("%s p=%d processor %d: width %d vs width %d: %s", lvl, procs, rank, widths[0], w, d)
						}
					}
				}
				if procs == 1 {
					if d := first[0].diff(runAt(t, c, vm.StripWidth)); d != "" {
						t.Errorf("%s: one shard vs the whole-program machine: %s", lvl, d)
					}
				}
			}
		}
	}
}
