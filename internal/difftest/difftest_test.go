package difftest_test

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/air"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/difftest/matrix"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/job"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/soak"
	"repro/internal/vm"
)

func TestClose(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{"s 1 2", "s 1 2", true},
		{"s 1", "s 1.0000000000001", true},
		{"s 1", "s 1.00001", false},
		{"-2.5e+12", "-2.5000000000001e+12", true}, // relative, not 1e-9 absolute
		{"-2.5e+12", "-2.50001e+12", false},
		{"1e-12", "-1e-12", true}, // absolute below magnitude 1
		{"NaN", "NaN", true},
		{"acc 1", "sum 1", false}, // a string token must match exactly
		{"s 1", "s x", false},
		{"s 1", "s 1 1", false},
		{"", "", true},
	} {
		if got := difftest.Close(tc.a, tc.b); got != tc.want {
			t.Errorf("Close(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := difftest.Close(tc.b, tc.a); got != tc.want {
			t.Errorf("Close(%q, %q) = %v, want %v (asymmetric)", tc.b, tc.a, got, tc.want)
		}
	}
}

// TestReferenceIsParallel: an array statement that reads the array it
// writes sees only old values, with no temporary to lean on — the AIR
// is built here, as lowering never emits it.
func TestReferenceIsParallel(t *testing.T) {
	reg := &sema.Region{Lo: []int{1}, Hi: []int{4}}
	a := func(off int) air.Expr { return &air.RefExpr{Ref: air.Ref{Array: "A", Off: air.Offset{off}}} }
	prog := &air.Program{
		Arrays:  map[string]*air.ArrayInfo{"A": {Name: "A", Declared: reg, Alloc: &sema.Region{Lo: []int{0}, Hi: []int{4}}}},
		Scalars: map[string]*air.ScalarInfo{"s": {Name: "s"}},
		Main: &air.Proc{Name: "main", Body: []air.Node{&air.Block{Stmts: []air.Stmt{
			&air.ArrayStmt{Region: reg, LHS: "A", RHS: &air.IndexExpr{Dim: 1}},
			&air.ArrayStmt{Region: reg, LHS: "A", RHS: &air.BinExpr{Op: air.OpAdd, X: a(-1), Y: a(0)}},
			&air.ReduceStmt{Target: "s", Region: reg, Body: a(0)},
			&air.WritelnStmt{Args: []air.WriteArg{{Str: "s"}, {Expr: &air.ScalarExpr{Name: "s"}}}},
		}}}},
	}
	var out bytes.Buffer
	if err := difftest.Reference(prog, &out); err != nil {
		t.Fatal(err)
	}
	// 1,3,5,7 from old values; storing as it goes would give 1,3,6,10.
	if out.String() != "s 16\n" {
		t.Errorf("transcript %q, want \"s 16\\n\"", out.String())
	}
}

// TestMatrix is the part of the matrix no engine's package owns: the
// whole static corpus on the two VM engines against Reference, at the
// ladder ends and the golden plans (-full: every level, and the
// benchmarks distributed over 2, 4 and 8 processors).
func TestMatrix(t *testing.T) {
	var cells []matrix.Cell
	for _, p := range append(matrix.Testdata(t), matrix.Edges(t)...) {
		for _, lvl := range matrix.Ladder(core.Baseline, core.C2F4) {
			cells = append(cells, p.At(lvl, matrix.Traced))
		}
	}
	for _, p := range matrix.Benchmarks() {
		for _, lvl := range matrix.Ladder(core.Baseline, core.C2F4) {
			c := p.At(lvl, matrix.Traced)
			if matrix.Full() {
				c.Procs = []int{2, 4, 8}
			}
			cells = append(cells, c)
		}
		// A golden plan is a sequential one: comm insertion reshapes
		// the blocks it names.
		c := p.At(core.Baseline, matrix.Traced)
		c.Name, c.Opt.Plan = "plan/"+p.Name, matrix.GoldenPlan(t, p.Name)
		cells = append(cells, c)
	}
	// A statement that reuses a halo received for a wider one: the
	// receive is its dependence at every level and processor count.
	halo, err := os.ReadFile(filepath.Join("..", "..", "testdata", "provers", "halo_race.za"))
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range core.AllLevels() {
		c := matrix.Program{Name: "halo_race.za", Src: string(halo)}.At(lvl, matrix.Traced)
		c.Procs = []int{2, 4, 8}
		cells = append(cells, c)
	}
	matrix.Run(t, cells...)
}

// TestQuickLadder holds random programs at every ladder level to
// Reference (make soak draws the seeds from the clock).
func TestQuickLadder(t *testing.T) {
	cfg := soak.Config(t, 10, 12)
	if testing.Short() {
		cfg.MaxCount = 2
	}
	matrix.Quick(t, cfg, func(src string) []matrix.Cell {
		var cells []matrix.Cell
		for _, lvl := range core.AllLevels() {
			cells = append(cells, matrix.Program{Name: "random", Src: src}.At(lvl, matrix.VM))
		}
		return cells
	})
}

// TestQuickPrice holds job.Price to what the engines allocate on random
// programs at a random ladder level: the VM's footprint, and distvm's at
// p = 2 and 4 on the program compiled for that processor count (make
// soak draws the seeds from the clock).
func TestQuickPrice(t *testing.T) {
	levels := core.AllLevels()
	mismatch := func(src string, lvl core.Level) error {
		c, err := driver.Compile(src, driver.Options{Level: lvl})
		if err != nil {
			return err
		}
		m, err := vm.New(c.LIR, vm.Options{})
		if err != nil {
			return err
		}
		if price, err := job.Price(c, job.RunSpec{}); err != nil || price != m.MemoryFootprint() {
			return fmt.Errorf("vm allocates %d bytes, priced %d (%v)", m.MemoryFootprint(), price, err)
		}
		for _, p := range []int{2, 4} {
			co, err := job.CommOptions(p, "")
			if err != nil {
				return err
			}
			c, err := driver.Compile(src, driver.Options{Level: lvl, Comm: co})
			if err != nil {
				return err
			}
			dm, err := distvm.Run(c.LIR, distvm.Options{Procs: p})
			if err != nil {
				return err
			}
			if price, err := job.Price(c, job.RunSpec{Dist: true, Procs: p}); err != nil || price != dm.MemoryFootprint() {
				return fmt.Errorf("p=%d: distvm allocates %d bytes, priced %d (%v)", p, dm.MemoryFootprint(), price, err)
			}
		}
		return nil
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src, lvl := programs.Random(r), levels[r.Intn(len(levels))]
		if err := mismatch(src, lvl); err != nil {
			t.Logf("seed %d at %v: %v\n%s", seed, lvl, err, src)
			return false
		}
		return true
	}
	if err := quick.Check(f, soak.Config(t, 10, 13)); err != nil {
		t.Error(err)
	}
}

// TestReferenceCatchesInheritedMiscompile seeds a fault into the
// scalarized program, which every engine then runs: the engines agree
// with one another, so only Reference can report it, and it reports
// every engine of the cell. The two native engines are -full's, with
// the rest of the native builds beyond the tier-1 cut.
func TestReferenceCatchesInheritedMiscompile(t *testing.T) {
	var c matrix.Cell
	for _, p := range matrix.Benchmarks() {
		if p.Name == "tomcatv" {
			c = p.At(core.C2F4, matrix.Traced)
		}
	}
	cols := []string{"vm", "vm-traced"}
	if matrix.Full() && backend.Available() {
		c.Engines |= matrix.Go | matrix.GoProved
		cols = append(cols, "go", "go-proved")
	}
	seeded := false
	c.Edit = func(comp *driver.Compilation) {
		for _, nest := range lir.Nests(comp.LIR.Main.Body) {
			for _, s := range nest.Body {
				air.Walk(s.RHS, func(e air.Expr) {
					if b, ok := e.(*air.BinExpr); ok && b.Op == air.OpAdd && !seeded {
						b.Op, seeded = air.OpSub, true
					}
				})
			}
		}
	}
	_, bad := matrix.Diff(c)
	if !seeded {
		t.Fatal("no + in any nest of tomcatv: the case is vacuous")
	}
	for _, col := range cols {
		want := c.Name + " " + col + ": transcript differs from Reference"
		found := false
		for _, b := range bad {
			found = found || strings.HasPrefix(b, want)
		}
		if !found {
			t.Errorf("no finding %q in %q", want, bad)
		}
	}
	for _, b := range bad {
		if strings.Contains(b, "differs from vm") || strings.Contains(b, "steps") {
			t.Errorf("the engines disagree with one another: %s", b)
		}
	}
}

// TestTestOnlyImports: no file of the module outside the oracle but a
// test imports the oracle, the seed source or the process counter, so
// none can reach a shipped binary.
func TestTestOnlyImports(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			_, mod := os.Stat(filepath.Join(path, "go.mod"))
			if d.Name() == "testdata" || d.Name()[0] == '.' || path == filepath.Join(root, "internal", "difftest") || mod == nil {
				return filepath.SkipDir // not the module's packages (bench/ is a module of its own), or the oracle itself
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "repro/internal/difftest") || p == "repro/internal/soak" || p == "repro/internal/proctest" {
				t.Errorf("%s imports %s, which only tests may", strings.TrimPrefix(path, root+"/"), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Errorf("parsed %d files; the walk is not seeing the module", files)
	}
}
