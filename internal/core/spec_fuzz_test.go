package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzParseSpec from specSeeds")

// FuzzParseSpec: a plan spec file is an untrusted input (zplc, zplrun
// and zpltune read it; ccache.KeyOf hashes every plan). Whatever
// ParseSpec accepts hashes and marshals without a panic, and the
// marshalled spec parses again to the same hash.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		h := s.Hash()
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("Marshal's output does not parse: %v\n%s", err, out)
		}
		if h2 := again.Hash(); h2 != h {
			t.Fatalf("hash %s, after Marshal and ParseSpec %s:\n%s", h, h2, out)
		}
	})
}

// specSeeds is the committed corpus.
func specSeeds() map[string]string {
	return map[string]string{
		"minimal": `{"version":1,"blocks":[]}`,
		// Unsorted members, clusters and contraction list, a note: one
		// canonical form.
		"unsorted": `{"version":1,"realign":true,"note":"beam search, width 8","blocks":[{"block":2,"clusters":[[4,3],[2,0,1]],"contract":["b","a"]},{"block":0,"contract":["t"]}]}`,
		// The empty cluster Hash used to index.
		"empty-cluster": `{"version":1,"note":"x","blocks":[{"block":1,"clusters":[[],[0,1]]}]}`,
		// Legal JSON that ApplySpec, not ParseSpec, rejects.
		"duplicates":    `{"version":1,"blocks":[{"block":0,"clusters":[[0,1],[0,2]]},{"block":0,"contract":["x","x"]},{"block":-3,"clusters":[[-1,5]]}]}`,
		"empty-block":   `{"version":0,"blocks":[{"block":7},{"block":1,"clusters":[[9]]}]}`,
		"escaped-names": `{"version":1,"note":"<\u00e9>","blocks":[{"block":0,"contract":["a\"b","\u2028",""]}]}`,
		"unknown-field": `{"version":1,"blocks":[],"surprise":true}`,
		"future":        `{"version":2,"blocks":[]}`,
	}
}

const specFuzzDir = "testdata/fuzz/FuzzParseSpec"

// TestFuzzCorpusCurrent keeps the committed seeds equal to specSeeds
// (go test ./internal/core -run TestFuzzCorpusCurrent -update rewrites
// them). Other files in the directory — a fuzzer's findings — are left
// alone, and run with the seeds.
func TestFuzzCorpusCurrent(t *testing.T) {
	if *update {
		if err := os.MkdirAll(specFuzzDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, raw := range specSeeds() {
		want := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(raw) + ")\n")
		path := filepath.Join(specFuzzDir, name)
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
