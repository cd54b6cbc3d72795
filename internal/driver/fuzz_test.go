package driver

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/programs"
	"repro/internal/source"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzCompile from compileSeeds")

// FuzzCompile: zpld compiles source text from the network. Whatever the
// bytes, the front end (parse, sema, lower) returns without a panic, and
// a rejection is a source.ErrorList every entry of which points into
// the source.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		_, _, err := FrontEnd(context.Background(), src, nil, Hooks{})
		if err == nil {
			return
		}
		var list *source.ErrorList
		if !errors.As(err, &list) {
			t.Fatalf("error is a %T, not a source.ErrorList: %v", err, err)
		}
		for _, d := range list.Diags {
			if !d.Pos.IsValid() {
				t.Fatalf("diagnostic without a position: %s", d)
			}
		}
	})
}

// compileSeeds is the committed corpus: the repository's ZA programs,
// the built-in benchmarks, and inputs a hostile client would send.
func compileSeeds(t *testing.T) map[string]string {
	seeds := map[string]string{
		"deep-parens": "program p;\nvar s : double;\nproc main()\nbegin\n  s := " +
			strings.Repeat("(", 2000) + "1.0" + strings.Repeat(")", 2000) + ";\nend;\n",
		"unterminated-region": "program p;\nregion R = [1..8, 1..",
		"config-overflow": "program p;\nconfig n : integer = 99999999999999999999999;\n" +
			"region R = [1..n];\nvar A : [R] double;\nproc main()\nbegin\n  [R] A := 1.0;\nend;\n",
	}
	files, err := filepath.Glob("../../testdata/*.za")
	if err != nil || len(files) == 0 {
		t.Fatalf("no ZA programs under testdata (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds["za-"+strings.TrimSuffix(filepath.Base(path), ".za")] = string(src)
	}
	for _, b := range programs.All() {
		seeds["bench-"+b.Name] = b.Source
	}
	return seeds
}

const compileFuzzDir = "testdata/fuzz/FuzzCompile"

// TestFuzzCorpusCurrent keeps the committed seeds equal to compileSeeds
// (go test ./internal/driver -run TestFuzzCorpusCurrent -update rewrites
// them). Other files in the directory — a fuzzer's findings — are left
// alone, and run with the seeds.
func TestFuzzCorpusCurrent(t *testing.T) {
	if *update {
		if err := os.MkdirAll(compileFuzzDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range compileSeeds(t) {
		want := []byte("go test fuzz v1\nstring(" + strconv.Quote(src) + ")\n")
		path := filepath.Join(compileFuzzDir, name)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || !bytes.Equal(have, want) {
			t.Errorf("seed %s is missing or stale (%v); regenerate with -update", name, err)
		}
	}
}
