// End-to-end tests of the command-line tools: build each binary with
// the host toolchain and drive it over the testdata programs.
package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/difftest"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the directory buildTools built the CLIs into.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildTools compiles the CLIs once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "zpl-bins")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		for _, tool := range []string{"zplc", "zplrun", "zplcheck", "zpllint", "zpltune", "experiments", "zpld", "zplload"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
			var errb bytes.Buffer
			cmd.Stderr = &errb
			if err := cmd.Run(); err != nil {
				buildErr = err
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, tool string, args ...string) (string, string, error) {
	t.Helper()
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

func TestZplcPlan(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-O", "c2", "-emit", "plan", "testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"program quickstart at c2", "contracted: 3", "loop nests after fusion: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
}

func TestZplcEmitForms(t *testing.T) {
	for form, marker := range map[string]string{
		"ast": "program quickstart;",
		"air": "array B :",
		"c":   "/* program quickstart (scalarized) */",
		"go":  "package main",
	} {
		out, _, err := runTool(t, "zplc", "-O", "c2+f3", "-emit", form, "testdata/quickstart.za")
		if err != nil {
			t.Fatalf("-emit %s: %v", form, err)
		}
		if !strings.Contains(out, marker) {
			t.Errorf("-emit %s missing %q", form, marker)
		}
	}
}

func TestZplcConfigOverride(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-emit", "c", "-config", "n=16", "testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "i1 <= 16") {
		t.Errorf("config override ignored:\n%s", out)
	}
}

func TestZplcDistributedPlan(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-p", "4", "-O", "c2+f3", "testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "communication:") {
		t.Errorf("no communication summary:\n%s", out)
	}
}

func TestZplcErrors(t *testing.T) {
	if _, _, err := runTool(t, "zplc", "nonexistent.za"); err == nil {
		t.Error("missing file accepted")
	}
	if _, _, err := runTool(t, "zplc", "-O", "bogus", "testdata/heat.za"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestZplrunExecutes(t *testing.T) {
	base, _, err := runTool(t, "zplrun", "-O", "baseline", "testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := runTool(t, "zplrun", "-O", "c2+f3", "testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	if base != opt || !strings.Contains(base, "heat =") {
		t.Errorf("outputs differ or missing: %q vs %q", base, opt)
	}
}

func TestZplrunMachineModel(t *testing.T) {
	_, stderr, err := runTool(t, "zplrun", "-bench", "ep",
		"-config", "n=1024", "-machine", "t3e", "-O", "c2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Cray T3E", "cycles", "miss"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("machine report missing %q:\n%s", want, stderr)
		}
	}
}

func TestExperimentsFig6(t *testing.T) {
	out, _, err := runTool(t, "experiments", "-run", "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ZPL 1.13 (this paper)") {
		t.Errorf("fig6 table malformed:\n%s", out)
	}
}

func TestZplcFig2Example(t *testing.T) {
	// The Figure 2 program: the engine must find the (-2,-1)-style
	// reversed loop structure when fusing statements 1 and 3.
	out, _, err := runTool(t, "zplc", "-O", "c2+f4", "-emit", "plan", "testdata/fig2.za")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "loop structure") {
		t.Errorf("no loop structures reported:\n%s", out)
	}
}

func TestZplrunDistributed(t *testing.T) {
	seq, _, err := runTool(t, "zplrun", "-bench", "fibro", "-config", "n=16", "-O", "c2+f3")
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := runTool(t, "zplrun", "-bench", "fibro", "-config", "n=16",
		"-O", "c2+f3", "-p", "4", "-dist")
	if err != nil {
		t.Fatal(err)
	}
	if !difftest.Close(seq, dist) {
		t.Errorf("distributed CLI output %q != sequential %q", dist, seq)
	}
	if _, _, err := runTool(t, "zplrun", "-bench", "fibro", "-dist"); err == nil {
		t.Error("-dist without -p accepted")
	}
}

// TestZplrunFlagConflicts: flag combinations that used to be silently
// half-ignored must be rejected with a diagnostic naming the conflict.
func TestZplrunFlagConflicts(t *testing.T) {
	// -machine with -dist: the model was constructed and then never
	// consulted on the distributed path.
	_, stderr, err := runTool(t, "zplrun", "-bench", "fibro", "-config", "n=16",
		"-p", "4", "-dist", "-machine", "t3e")
	if err == nil {
		t.Error("-machine with -dist accepted")
	}
	if !strings.Contains(stderr, "-machine") || !strings.Contains(stderr, "-dist") {
		t.Errorf("conflict diagnostic does not name both flags: %q", stderr)
	}

	// -bench with a positional file: the file was silently dropped.
	_, stderr, err = runTool(t, "zplrun", "-bench", "fibro", "-config", "n=16",
		"testdata/heat.za")
	if err == nil {
		t.Error("-bench with positional file accepted")
	}
	if !strings.Contains(stderr, "-bench") || !strings.Contains(stderr, "heat.za") {
		t.Errorf("conflict diagnostic does not name the sources: %q", stderr)
	}

	// The valid single-source forms still work.
	if _, _, err := runTool(t, "zplrun", "-bench", "fibro", "-config", "n=16"); err != nil {
		t.Errorf("-bench alone rejected: %v", err)
	}
	if _, _, err := runTool(t, "zplrun", "testdata/heat.za"); err != nil {
		t.Errorf("file alone rejected: %v", err)
	}
}

// TestExperimentsJobsFlag: the worker-pool width is a real flag and a
// parallel run produces the same table as a serial one.
func TestExperimentsJobsFlag(t *testing.T) {
	serial, _, err := runTool(t, "experiments", "-run", "fig8", "-jobs", "1")
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := runTool(t, "experiments", "-run", "fig8", "-jobs", "4")
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("-jobs changed the result:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if _, _, err := runTool(t, "experiments", "-run", "fig6", "-jobs", "0"); err != nil {
		t.Errorf("-jobs 0 (default width) rejected: %v", err)
	}
}

// TestZplcFig2ASDG checks the Fig. 2(d) dependence graph end to end:
// the exact (variable, unconstrained distance vector, kind) labels the
// paper derives.
func TestZplcFig2ASDG(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-O", "baseline", "-emit", "asdg", "testdata/fig2.za")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(A, (0,1), flow)",
		"(A, (1,-1), flow)",
		"(B, (-1,0), anti)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ASDG missing the paper's label %q:\n%s", want, out)
		}
	}
}

func TestZplrunPartialReductions(t *testing.T) {
	out, _, err := runTool(t, "zplrun", "-O", "c2+f3", "testdata/rowsums.za")
	if err != nil {
		t.Fatal(err)
	}
	// n=8: rows sum to 80i+36, total = 80*36+288 = 3168;
	// column max = 80+j, total = 8*80 + 36 = 676.
	if !strings.Contains(out, "3168") || !strings.Contains(out, "676") {
		t.Errorf("partial reduction totals wrong: %q", out)
	}
}

// TestZplcCheckFlag: a clean program must still compile (exit 0) when
// the inline verifier runs between every phase, sequential and
// distributed.
func TestZplcCheckFlag(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-check", "-O", "c2+f3", "testdata/heat.za")
	if err != nil {
		t.Fatalf("-check rejected a clean program: %v", err)
	}
	if !strings.Contains(out, "program heat") {
		t.Errorf("plan output missing under -check:\n%s", out)
	}
	if _, _, err := runTool(t, "zplc", "-check", "-p", "4", "-O", "c2+f3", "testdata/heat.za"); err != nil {
		t.Errorf("-check -p 4 rejected a clean program: %v", err)
	}
	if _, _, err := runTool(t, "zplrun", "-check", "-O", "c2+f3", "testdata/heat.za"); err != nil {
		t.Errorf("zplrun -check rejected a clean program: %v", err)
	}
}

// TestZplcCheckFault: each verifier pass must catch its seeded bug and
// drive the nonzero exit path with a diagnostic naming the pass.
func TestZplcCheckFault(t *testing.T) {
	passes := []string{
		"air-wellformed", "asdg-crosscheck", "fusion-legality",
		"contraction-safety", "comm-schedule",
	}
	for _, pass := range passes {
		_, stderr, err := runTool(t, "zplc", "-O", "c2", "-checkfault", pass, "testdata/fig2.za")
		if err == nil {
			t.Errorf("-checkfault %s exited 0", pass)
		}
		if !strings.Contains(stderr, "["+pass+"]") {
			t.Errorf("-checkfault %s diagnostic does not name the pass:\n%s", pass, stderr)
		}
	}
	// The distributed comm fault drops a real receive.
	_, stderr, err := runTool(t, "zplc", "-p", "4", "-O", "c2+f3",
		"-checkfault", "comm-schedule", "testdata/heat.za")
	if err == nil {
		t.Error("distributed -checkfault comm-schedule exited 0")
	}
	if !strings.Contains(stderr, "halo") {
		t.Errorf("dropped receive not reported as a halo gap:\n%s", stderr)
	}
	// Unknown pass names are usage errors, not silent no-ops.
	if _, _, err := runTool(t, "zplc", "-checkfault", "bogus", "testdata/fig2.za"); err == nil {
		t.Error("-checkfault bogus accepted")
	}
}

// TestZplcheckCLI: the standalone verifier over the testdata corpus.
func TestZplcheckCLI(t *testing.T) {
	files, err := filepath.Glob("testdata/*.za")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	out, _, err := runTool(t, "zplcheck", files...)
	if err != nil {
		t.Fatalf("zplcheck found problems in testdata:\n%s", out)
	}
	if !strings.Contains(out, "0 with findings") {
		t.Errorf("summary missing:\n%s", out)
	}
	out, _, err = runTool(t, "zplcheck", "-bench", "all", "-O", "all", "-p", "4")
	if err != nil {
		t.Fatalf("zplcheck found problems in the benchmarks:\n%s", out)
	}
	if _, _, err := runTool(t, "zplcheck", "-bench", "bogus"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, _, err := runTool(t, "zplcheck"); err == nil {
		t.Error("no inputs accepted")
	}
}

func TestZplcScalarReplacement(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-O", "c2+f3", "-scalarrep", "-emit", "c", "testdata/heat.za")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scalar replacement") {
		t.Errorf("no scalar replacement installed:\n%s", out)
	}
}

// exitCode extracts the process exit status from runTool's error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("not an exit error: %v", err)
	}
	return ee.ExitCode()
}

// TestZplrunExitCodes: compile errors, runtime errors, usage errors
// and timeouts each get a distinct exit code so scripts can tell them
// apart (0 ok, 1 runtime, 2 usage, 3 compile, 4 timeout).
func TestZplrunExitCodes(t *testing.T) {
	// Usage error: conflicting sources.
	_, _, err := runTool(t, "zplrun", "-bench", "fibro", "testdata/heat.za")
	if c := exitCode(t, err); c != 2 {
		t.Errorf("usage error exit = %d, want 2", c)
	}

	// Compile error: garbage source.
	bad := filepath.Join(t.TempDir(), "bad.za")
	if err := os.WriteFile(bad, []byte("program junk; not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runTool(t, "zplrun", bad)
	if c := exitCode(t, err); c != 3 {
		t.Errorf("compile error exit = %d, want 3 (stderr %q)", c, stderr)
	}
	if !strings.Contains(stderr, "compile error") {
		t.Errorf("compile diagnostic missing: %q", stderr)
	}

	// Compile error: array storage past an int64 of bytes, refused
	// before anything is allocated.
	_, stderr, err = runTool(t, "zplrun", "-bench", "frac", "-config", "n=4294967296")
	if c := exitCode(t, err); c != 3 || !strings.Contains(stderr, "exceeds") {
		t.Errorf("overflowing storage: exit = %d, want 3 (stderr %q)", c, stderr)
	}

	// Compile error: a sweep of more than 2^63-1 element-statements,
	// whose wrapped count once charged nothing and ran forever.
	arrayless := filepath.Join(t.TempDir(), "arrayless.za")
	src := "program arrayless;\nconfig n : integer = 8;\nregion R = [1..n, 1..n];\nvar s : double;\n" +
		"proc main()\nbegin\n  s := +<< [R] index1;\n  writeln(s);\nend;\n"
	if err := os.WriteFile(arrayless, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err = runTool(t, "zplrun", "-timeout", "10s", "-config", "n=4294967296", arrayless)
	if c := exitCode(t, err); c != 3 || !strings.Contains(stderr, "element-statements") {
		t.Errorf("overflowing work: exit = %d, want 3 (stderr %q)", c, stderr)
	}

	// Timeout: the same sweep at n=60000 is 3.6e9 element-statements,
	// one charge under the step budget; the sweep's own polls stop it.
	start := time.Now()
	_, stderr, err = runTool(t, "zplrun", "-timeout", "1s", "-config", "n=60000", arrayless)
	if c := exitCode(t, err); c != 4 || !strings.Contains(stderr, "timeout") {
		t.Errorf("long sweep past its deadline: exit = %d, want 4 (stderr %q)", c, stderr)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("long sweep past a 1s deadline exited after %v", d)
	}

	// Runtime error: step budget exhausted.
	_, stderr, err = runTool(t, "zplrun", "-maxsteps", "10", "testdata/heat.za")
	if c := exitCode(t, err); c != 1 {
		t.Errorf("runtime error exit = %d, want 1 (stderr %q)", c, stderr)
	}
	if !strings.Contains(stderr, "budget") {
		t.Errorf("budget diagnostic missing: %q", stderr)
	}

	// Timeout: a 1ms deadline on a long run.
	_, stderr, err = runTool(t, "zplrun", "-timeout", "1ms",
		"-config", "n=256", "-config", "steps=200", "testdata/heat.za")
	if c := exitCode(t, err); c != 4 {
		t.Errorf("timeout exit = %d, want 4 (stderr %q)", c, stderr)
	}
	if !strings.Contains(stderr, "timeout") {
		t.Errorf("timeout diagnostic missing: %q", stderr)
	}

	// Success still exits 0.
	if _, _, err := runTool(t, "zplrun", "testdata/heat.za"); err != nil {
		t.Errorf("clean run failed: %v", err)
	}
}

// TestExperimentsUsageErrors: a study id that is not in harness.Studies
// and a flag the tool does not define are usage errors — exit 2 with the
// study list on stderr — and not an empty successful run. The harness
// keeps no clock (EXPERIMENTS.md "Wall clock"), so the probes are a
// wall-clock study's id and the flag that printed phase latencies.
func TestExperimentsUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-run", "backend"}, {"-timings"}} {
		out, stderr, err := runTool(t, "experiments", args...)
		if c := exitCode(t, err); c != 2 {
			t.Errorf("experiments %v: exit = %d, want 2 (stderr %q)", args, c, stderr)
		}
		if out != "" || !strings.Contains(stderr, "studies (-run takes") {
			t.Errorf("experiments %v: want no stdout and the usage text on stderr; stdout %q, stderr %q", args, out, stderr)
		}
	}
}

func TestZplcRemarksFlag(t *testing.T) {
	out, _, err := runTool(t, "zplc", "-O", "c2", "-remarks", "-emit", "plan", "testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"remarks (", "remark:", "contracted"} {
		if !strings.Contains(out, want) {
			t.Errorf("-remarks output missing %q:\n%s", want, out)
		}
	}
}

func TestZplrunRemarksFlag(t *testing.T) {
	_, errOut, err := runTool(t, "zplrun", "-O", "c2", "-remarks", "testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "remark:") {
		t.Errorf("-remarks stderr missing remarks:\n%s", errOut)
	}
}

func TestZplcheckJSONReport(t *testing.T) {
	out, _, err := runTool(t, "zplcheck", "-json", "-O", "baseline,c2+f3", "testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Findings []struct {
			Rule string `json:"rule"`
		} `json:"findings"`
		Counts map[string]int `json:"counts"`
	}
	if jerr := json.Unmarshal([]byte(out), &doc); jerr != nil {
		t.Fatalf("zplcheck -json output is not JSON: %v\n%s", jerr, out)
	}
	if len(doc.Findings) != 0 {
		t.Errorf("clean program has verifier findings: %+v", doc.Findings)
	}
}

func TestZplcheckSARIFReport(t *testing.T) {
	out, _, err := runTool(t, "zplcheck", "-sarif", "-O", "c2", "testdata/quickstart.za")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
	}
	if jerr := json.Unmarshal([]byte(out), &log); jerr != nil {
		t.Fatalf("zplcheck -sarif output is not JSON: %v", jerr)
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version = %q, want 2.1.0", log.Version)
	}
}

func TestZpllintEndToEnd(t *testing.T) {
	// quickstart has two halo reads: warnings, exit 0 without -strict.
	out, _, err := runTool(t, "zpllint", "testdata/quickstart.za")
	if err != nil {
		t.Fatalf("zpllint on warnings-only input should exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(out, "out-of-region-read") {
		t.Errorf("expected halo-read warnings:\n%s", out)
	}

	// -strict turns those warnings into exit 1.
	_, _, err = runTool(t, "zpllint", "-strict", "testdata/quickstart.za")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Errorf("zpllint -strict: err = %v, want exit code 1", err)
	}

	// The benchmark suite lints clean (the lint-self gate).
	if out, errOut, err := runTool(t, "zpllint", "-bench", "all"); err != nil {
		t.Errorf("zpllint -bench all failed: %v\n%s%s", err, out, errOut)
	}
}

func TestExperimentsAudit(t *testing.T) {
	out, errOut, err := runTool(t, "experiments", "-run", "audit")
	if err != nil {
		t.Fatalf("remark audit failed: %v\n%s%s", err, out, errOut)
	}
	if !strings.Contains(out, "audit clean") {
		t.Errorf("audit output missing clean verdict:\n%s", out)
	}
}

// TestZpltuneExitCodes mirrors TestZplrunExitCodes for the autotuner:
// 0 ok, 2 usage, 3 compile, 4 timeout. (Exit 1 — a tuned plan scoring
// worse than the heuristic — is unreachable by construction: the beam
// is seeded with every ladder partition.)
func TestZpltuneExitCodes(t *testing.T) {
	// Usage errors: conflicting sources, unknown machine, unknown model.
	_, _, err := runTool(t, "zpltune", "-bench", "frac", "testdata/heat.za")
	if c := exitCode(t, err); c != 2 {
		t.Errorf("conflicting sources exit = %d, want 2", c)
	}
	_, _, err = runTool(t, "zpltune", "-bench", "frac", "-machine", "cray-3")
	if c := exitCode(t, err); c != 2 {
		t.Errorf("unknown machine exit = %d, want 2", c)
	}
	_, _, err = runTool(t, "zpltune", "-bench", "frac", "-model", "psychic")
	if c := exitCode(t, err); c != 2 {
		t.Errorf("unknown model exit = %d, want 2", c)
	}
	_, _, err = runTool(t, "zpltune", "-bench", "frac", "-p", "4", "-measure")
	if c := exitCode(t, err); c != 2 {
		t.Errorf("-measure with -p exit = %d, want 2", c)
	}

	// Compile error: garbage source.
	bad := filepath.Join(t.TempDir(), "bad.za")
	if err := os.WriteFile(bad, []byte("program junk; not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runTool(t, "zpltune", bad)
	if c := exitCode(t, err); c != 3 {
		t.Errorf("compile error exit = %d, want 3 (stderr %q)", c, stderr)
	}
	if !strings.Contains(stderr, "compile error") {
		t.Errorf("compile diagnostic missing: %q", stderr)
	}

	// Compile error: storage past an int64 (each array wrapped to 0
	// words) is refused before any plan is scored.
	_, stderr, err = runTool(t, "zpltune", "-bench", "frac", "-config", "n=4294967296")
	if c := exitCode(t, err); c != 3 {
		t.Errorf("storage past an int64 exit = %d, want 3 (stderr %q)", c, stderr)
	}
	if !strings.Contains(stderr, "array storage exceeds") {
		t.Errorf("storage diagnostic missing: %q", stderr)
	}

	// Timeout: a 1ms deadline cannot cover a search of sp.
	_, stderr, err = runTool(t, "zpltune", "-bench", "sp", "-timeout", "1ms")
	if c := exitCode(t, err); c != 4 {
		t.Errorf("timeout exit = %d, want 4 (stderr %q)", c, stderr)
	}
	if !strings.Contains(stderr, "timeout") {
		t.Errorf("timeout diagnostic missing: %q", stderr)
	}

	// Success: the comparison table with the built-in guarantee held.
	out, _, err := runTool(t, "zpltune", "-bench", "frac", "-config", "n=24", "-check")
	if err != nil {
		t.Fatalf("clean tune failed: %v", err)
	}
	for _, want := range []string{"model cycle:Cray T3E", "heuristic baseline", "tuned", "winner:"} {
		if !strings.Contains(out, want) {
			t.Errorf("tune table missing %q:\n%s", want, out)
		}
	}
}

// TestZpltunePlanRoundtrip: a tuned plan emitted by zpltune feeds back
// through zplrun -plan and zplc -plan, producing output bit-identical
// to the baseline run — the full artifact cycle of the autotuner.
func TestZpltunePlanRoundtrip(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if _, stderr, err := runTool(t, "zpltune", "-bench", "frac", "-config", "n=24",
		"-emit", plan); err != nil {
		t.Fatalf("tune: %v\n%s", err, stderr)
	}

	base, _, err := runTool(t, "zplrun", "-bench", "frac", "-config", "n=24", "-O", "baseline")
	if err != nil {
		t.Fatal(err)
	}
	tuned, stderr, err := runTool(t, "zplrun", "-bench", "frac", "-config", "n=24",
		"-plan", plan, "-check")
	if err != nil {
		t.Fatalf("run with tuned plan: %v\n%s", err, stderr)
	}
	if base != tuned {
		t.Errorf("tuned output %q != baseline %q", tuned, base)
	}

	// zplc reports the externally planned compilation.
	out, _, err := runTool(t, "zplc", "-plan", plan, "-emit", "plan", "-config", "n=24",
		"testdata/quickstart.za")
	if err == nil {
		t.Error("plan for frac accepted against quickstart (different program)")
	} else if out != "" {
		t.Errorf("unexpected output on mismatched plan: %q", out)
	}

	// A corrupted spec is rejected up front.
	badPlan := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPlan, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = runTool(t, "zplrun", "-bench", "frac", "-plan", badPlan)
	if c := exitCode(t, err); c != 2 {
		t.Errorf("bad plan file exit = %d, want 2", c)
	}
}

// TestFrontEndsAgreeCLI drives the one table of illegal requests
// (testdata/illegal_specs.json; internal/job runs it through Resolve,
// internal/svc through zpld) through every CLI that can express each
// case: all must exit with the usage code, 2, and say why.
func TestFrontEndsAgreeCLI(t *testing.T) {
	data, err := os.ReadFile("testdata/illegal_specs.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string
		CLI  [][]string
	}
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, argv := range c.CLI {
			_, stderr, err := runTool(t, argv[0], argv[1:]...)
			if code := exitCode(t, err); code != 2 {
				t.Errorf("%s: %v exited %d, want 2 (stderr %q)", c.Name, argv, code, stderr)
			}
			if !strings.HasPrefix(stderr, argv[0]+": ") {
				t.Errorf("%s: %v gave no diagnostic: %q", c.Name, argv, stderr)
			}
		}
	}
}

// TestUsageErrorsPrecedeCompile: zplrun used to validate -machine and
// -dist only after compiling, so a bad flag on a broken program was
// reported as a compile error (exit 3) after paying for the compile.
func TestUsageErrorsPrecedeCompile(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.za")
	if err := os.WriteFile(bad, []byte("program junk; not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-machine", "cray-3", bad},
		{"-dist", bad},
		{"-p", "4", "-dist", "-machine", "t3e", bad},
	} {
		_, stderr, err := runTool(t, "zplrun", args...)
		if c := exitCode(t, err); c != 2 {
			t.Errorf("zplrun %v exited %d, want 2 (stderr %q)", args, c, stderr)
		}
	}
}

// TestZplrunBindsZplcsPipelineFlags: -comm and -scalarrep reach zplrun
// exactly as they reach zplc and zpld. The scalarrep case is PR 12's
// TestPreloadHalo from the command line: ScalarReplace + Comm at p >= 2
// needs halos sized from Nest.Preloads.
func TestZplrunBindsZplcsPipelineFlags(t *testing.T) {
	seq, _, err := runTool(t, "zplrun", "-bench", "tomcatv", "-config", "n=16")
	if err != nil {
		t.Fatal(err)
	}
	dist, stderr, err := runTool(t, "zplrun", "-bench", "tomcatv", "-config", "n=16", "-p", "4", "-dist", "-scalarrep")
	if err != nil {
		t.Fatalf("zplrun -p 4 -dist -scalarrep: %v\n%s", err, stderr)
	}
	if !difftest.Close(seq, dist) {
		t.Errorf("-dist -scalarrep output %q != sequential %q", dist, seq)
	}
	comm, stderr, err := runTool(t, "zplrun", "-bench", "tomcatv", "-config", "n=16", "-p", "4", "-dist", "-comm", "favor-comm")
	if err != nil {
		t.Fatalf("zplrun -comm favor-comm: %v\n%s", err, stderr)
	}
	if !difftest.Close(seq, comm) {
		t.Errorf("-comm favor-comm output %q != sequential %q", comm, seq)
	}
}

// TestZpldUsageDocumented: every flag `zpld -h` prints is listed in
// cmd/zpld's usage comment, and the comment lists no flag zpld lacks.
// The comment is written by hand; this keeps it from drifting when a
// flag is added or removed.
func TestZpldUsageDocumented(t *testing.T) {
	_, stderr, err := runTool(t, "zpld", "-h")
	if err != nil {
		t.Fatalf("zpld -h: %v\n%s", err, stderr)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr, -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("zpld -h listed no flags:\n%s", stderr)
	}
	src, err := os.ReadFile("cmd/zpld/main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("cmd/zpld/main.go: no package clause")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t-([a-z][a-z-]*)`).FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}
	for f := range flags {
		if !documented[f] {
			t.Errorf("zpld -h prints -%s, which cmd/zpld's usage comment does not list", f)
		}
	}
	for f := range documented {
		if !flags[f] {
			t.Errorf("cmd/zpld's usage comment lists -%s, which zpld -h does not print", f)
		}
	}
}
