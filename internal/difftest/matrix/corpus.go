package matrix

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
)

// Program is one source of the corpus at the sizes it runs at.
type Program struct {
	Name    string
	Src     string
	Configs map[string]int64
}

// At is the program at one ladder level on the engines es, named
// program/level.
func (p Program) At(lvl core.Level, es Engine) Cell {
	return Cell{Name: p.Name + "/" + lvl.String(), Src: p.Src, Opt: driver.Options{Level: lvl, Configs: p.Configs}, Engines: es}
}

// root is the module's directory, found from this file's, so the
// corpus reads the same files from whichever package's tests use it.
func root() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "..")
}

// read returns a file of the module's testdata directory.
func read(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root(), "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// Testdata is every testdata/*.za program, named by its file.
func Testdata(t testing.TB) []Program {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root(), "testdata", "*.za"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	var out []Program
	for _, f := range files {
		out = append(out, Program{Name: filepath.Base(f), Src: read(t, filepath.Base(f))})
	}
	return out
}

// Benchmarks is the six benchmarks at the size every native cell runs
// them at: n = 20, and 512 for the rank-1 one.
func Benchmarks() []Program {
	var out []Program
	for _, b := range programs.All() {
		n := int64(20)
		if b.Rank == 1 {
			n = 512
		}
		out = append(out, Program{Name: b.Name, Src: b.Source, Configs: map[string]int64{b.SizeConfig: n}})
	}
	return out
}

// Edges is the hand-written edge-nest programs (internal/programs) and
// rowsums.za: the loop shapes the benchmarks do not reach.
func Edges(t testing.TB) []Program {
	t.Helper()
	return []Program{
		{Name: "edges", Src: programs.EdgeSrc}, {Name: "guards", Src: programs.GuardSrc},
		{Name: "perm", Src: programs.PermSrc}, {Name: "cube", Src: programs.Rank3Src},
		{Name: "rowsums", Src: read(t, "rowsums.za")}, {Name: "builtins", Src: programs.BuiltinSrc()},
	}
}

// GoldenPlan is a benchmark's committed tuned plan,
// testdata/plans/<name>-c2+f4s.json, for the external-plan path.
func GoldenPlan(t testing.TB, name string) *core.PlanSpec {
	t.Helper()
	spec, err := core.ParseSpec([]byte(read(t, filepath.Join("plans", name+"-c2+f4s.json"))))
	if err != nil {
		t.Fatalf("golden plan %s: %v", name, err)
	}
	return spec
}

// Ladder is the levels a row runs: its tier-1 cut, or with -full every
// level.
func Ladder(cut ...core.Level) []core.Level {
	if *full {
		return core.AllLevels()
	}
	return cut
}
