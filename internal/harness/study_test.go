package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var (
	update = flag.Bool("update", false, "rewrite results/ from the regenerated outputs instead of comparing")
	full   = flag.Bool("full", false, "also regenerate the ladder study (fig9, fig10, fig11, headline; ~15 s)")
)

const resultsDir = "../../results"

// outputIDs is the file stems a study's declaration says Run returns.
func outputIDs(s Study) []string {
	if s.Outputs == nil {
		return []string{s.ID}
	}
	return s.Outputs
}

// TestResultsGolden regenerates every output through the Studies
// table, exactly as cmd/experiments does, and compares it byte for byte
// with the committed results/ file; a top-level file under results/
// that no study declares fails it too, so the directory cannot hold an
// unpinned table (results/bench/, a directory, is the benchmark's). A
// deliberate change to a table is committed with
//
//	go test ./internal/harness -run TestResultsGolden -full -update
//
// The ladder study runs only under -full (make results-check).
func TestResultsGolden(t *testing.T) {
	env := &Env{}
	declared := map[string]bool{}
	for _, s := range Studies {
		for _, id := range outputIDs(s) {
			declared[id] = true
		}
	}
	committed, err := os.ReadDir(resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range committed {
		ext := filepath.Ext(f.Name())
		if !f.IsDir() && (ext == ".txt" || ext == ".json") && !declared[strings.TrimSuffix(f.Name(), ext)] {
			t.Errorf("results/%s is an output of no study in the Studies table: delete it", f.Name())
		}
	}
	for _, s := range Studies {
		if s.ID == "ladder" && !*full {
			continue
		}
		t.Run(s.ID, func(t *testing.T) {
			outs, err := s.Run(env)
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, o := range outs {
				ids = append(ids, o.ID)
			}
			if !slices.Equal(ids, outputIDs(s)) {
				t.Errorf("Run returned outputs %v, the declaration says %v", ids, outputIDs(s))
			}
			dir := resultsDir
			if !*update {
				dir = t.TempDir()
			}
			for _, o := range outs {
				if o.Gate != nil {
					t.Errorf("%s: acceptance gate failed: %v", o.ID, o.Gate)
				}
				if err := o.Write(dir); err != nil {
					t.Fatal(err)
				}
			}
			if *update {
				return
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				got, err := os.ReadFile(filepath.Join(dir, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join(resultsDir, f.Name()))
				if err != nil {
					t.Errorf("%v (commit it with -update)", err)
				} else if !bytes.Equal(got, want) {
					t.Errorf("results/%s is stale (accept with -update); regenerated:\n%s", f.Name(), got)
				}
			}
		})
	}
}

// TestExperimentsDocStudyList keeps EXPERIMENTS.md's "Running
// everything" block identical to the Studies table: regenerate the
// block between the markers from the "want" this test prints when it
// fails.
func TestExperimentsDocStudyList(t *testing.T) {
	var want strings.Builder
	line := func(args, doc string) {
		fmt.Fprintf(&want, "%-42s # %s\n", strings.TrimSpace("go run ./cmd/experiments "+args), doc)
	}
	line("", "every study below, tables and bar charts to stdout")
	line("-out results", "also write results/<id>.txt (and .json where a study has rows)")
	for _, s := range Studies {
		doc := s.Doc
		if s.Outputs != nil {
			doc += " (or -run " + strings.Join(s.Outputs, "|") + ")"
		}
		line("-run "+s.ID, doc)
	}
	fmt.Fprintf(&want, "%-42s # %s\n", "go test -bench=. -benchmem", "testing.B versions + engine benches")

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- studies: begin -->\n```sh\n", "```\n<!-- studies: end -->"
	_, rest, ok := strings.Cut(string(doc), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("EXPERIMENTS.md has no %q … %q block", begin, end)
	}
	if got != want.String() {
		t.Errorf("EXPERIMENTS.md study list is stale; want:\n%s", want.String())
	}
}
