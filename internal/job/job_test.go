package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/flight"
	"repro/internal/vm"
)

// TestIllegalSpecsAreUsageErrors drives the one table of illegal
// requests (testdata/illegal_specs.json — cli_test.go runs its "cli"
// column through the built tools, internal/svc its "run" and "tune"
// columns through zpld) through Resolve directly.
func TestIllegalSpecsAreUsageErrors(t *testing.T) {
	data, err := os.ReadFile("../../testdata/illegal_specs.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string
		Spec Spec
	}
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 14 {
		t.Fatalf("only %d cases in the table", len(cases))
	}
	for _, c := range cases {
		_, _, err := c.Spec.Resolve()
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: Resolve = %v, want a *UsageError", c.Name, err)
			continue
		}
		if strings.ContainsAny(err.Error(), "{}") {
			t.Errorf("%s: unrendered field token in %q", c.Name, err)
		}
	}
}

// TestResolveBuildsOptions: the legal request carries every field into
// driver.Options, with the documented defaults.
func TestResolveBuildsOptions(t *testing.T) {
	src, opt, err := (&Spec{Bench: "fibro"}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if src.Name != "bench:fibro" || src.Text == "" || opt.Level != core.C2F3 || opt.Backend != driver.BackendVM || opt.Comm != nil {
		t.Errorf("defaults: %q %+v", src.Name, opt)
	}

	s := Spec{Source: "program p;", Level: "c2+f4", Configs: map[string]int64{"n": 8}, Procs: 4, Strategy: "favor-comm",
		ScalarRep: true, Check: true, NoProve: true, NoRace: true, Dist: true, MaxSteps: 99}
	src, opt, err = s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := comm.DefaultOptions(4)
	want.Strategy = comm.FavorComm
	if src.Text != "program p;" || opt.Level != core.C2F4 || opt.Configs["n"] != 8 || opt.Comm == nil || *opt.Comm != want ||
		!opt.ScalarReplace || !opt.Check || !opt.NoProve || !opt.NoRace {
		t.Errorf("resolved options: %+v (comm %+v)", opt, opt.Comm)
	}
	if rs := s.RunSpec(); !rs.Dist || rs.Procs != 4 || rs.MaxSteps != 99 || rs.Model != nil || rs.Backend != driver.BackendVM {
		t.Errorf("run spec: %+v", rs)
	}
	if rs := (&Spec{Machine: "sp2"}).RunSpec(); rs.Model == nil || rs.Model.Name == "" {
		t.Errorf("machine model not resolved: %+v", rs)
	}
}

// TestClassTables pins the class → exit code → HTTP status table and
// how errors land in it.
func TestClassTables(t *testing.T) {
	for _, c := range []struct {
		err    error
		class  Class
		exit   int
		status int
		kind   string
	}{
		{nil, ClassOK, 0, 200, ""},
		{errors.New("vm: execution budget exceeded"), ClassRuntime, 1, 500, "runtime_error"},
		{Usagef("{dist} requires {procs} > 1"), ClassUsage, 2, 400, "bad_request"},
		{&CompileError{errors.New("parse error")}, ClassCompile, 3, 422, "compile_error"},
		{&backend.BuildError{Err: errors.New("go build")}, ClassCompile, 3, 422, "compile_error"},
		{fmt.Errorf("running: %w", context.DeadlineExceeded), ClassTimeout, 4, 504, "timeout"},
		{&CompileError{context.DeadlineExceeded}, ClassTimeout, 4, 504, "timeout"},
		{fmt.Errorf("running: %w", context.Canceled), ClassCanceled, 1, 499, "canceled"},
		{fmt.Errorf("joined: %w", &flight.PanicError{Value: "boom"}), ClassInternal, 1, 500, "internal"},
		{fmt.Errorf("%w: %w", &flight.PanicError{Value: "boom"}, context.DeadlineExceeded), ClassInternal, 1, 500, "internal"},
	} {
		got := Classify(c.err)
		if got != c.class || got.ExitCode() != c.exit || got.HTTPStatus() != c.status || got.Kind() != c.kind {
			t.Errorf("Classify(%v) = class %d (exit %d, HTTP %d %q), want class %d (exit %d, HTTP %d %q)",
				c.err, got, got.ExitCode(), got.HTTPStatus(), got.Kind(), c.class, c.exit, c.status, c.kind)
		}
	}
}

// TestUsageErrorsNameTheFrontEndsFields: the same rule violation reads
// as the JSON field to a zpld client and as the flag each CLI bound.
func TestUsageErrorsNameTheFrontEndsFields(t *testing.T) {
	report := func(flagName string) string {
		s := Spec{Bench: "fibro", Procs: 1}
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		s.Bind(fs, "bench", "p", flagName, "maxsteps", "backend")
		if err := s.Parse(fs, []string{"-" + flagName, "favor-comm"}); err != nil {
			t.Fatal(err)
		}
		_, _, err := s.Resolve()
		var out bytes.Buffer
		if code := s.Report(&out, "tool", err); code != 2 {
			t.Errorf("exit code %d, want 2", code)
		}
		return out.String()
	}
	if got := report("comm"); got != "tool: -comm favor-comm requires -p > 1\n" {
		t.Errorf("zplc-style report: %q", got)
	}
	if got := report("strategy"); got != "tool: -strategy favor-comm requires -p > 1\n" {
		t.Errorf("zpltune-style report: %q", got)
	}
	_, _, err := (&Spec{Bench: "fibro", Strategy: "favor-comm"}).Resolve()
	if err == nil || err.Error() != "strategy favor-comm requires procs > 1" {
		t.Errorf("zpld-style message: %v", err)
	}
	_, _, err = (&Spec{Bench: "fibro", Backend: "go", MaxSteps: 5}).Resolve()
	if backend.Available() && (err == nil || !strings.Contains(err.Error(), "max_steps")) {
		t.Errorf("max_steps not named as zpld spells it: %v", err)
	}

	var out bytes.Buffer
	s := Spec{}
	if code := s.Report(&out, "tool", &CompileError{errors.New("bad.za:1: oops")}); code != 3 || out.String() != "tool: compile error: bad.za:1: oops\n" {
		t.Errorf("compile report: %d %q", code, out.String())
	}
	out.Reset()
	if code := s.Report(&out, "tool", context.DeadlineExceeded); code != 4 || !strings.HasPrefix(out.String(), "tool: timeout: ") {
		t.Errorf("timeout report: %d %q", code, out.String())
	}
}

// TestRunEnginesAgree: the one executor on the VM (proof-carrying and
// checked) and the distributed interpreter prints the same program
// output, and reports what each front end prints about a run.
func TestRunEnginesAgree(t *testing.T) {
	src, opt, err := (&Spec{Bench: "fibro", Configs: map[string]int64{"n": 16}}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := Compile(ctx, src.Text, opt)
	if err != nil {
		t.Fatal(err)
	}
	var seq bytes.Buffer
	res, err := Run(ctx, c, RunSpec{}, &seq, nil)
	if err != nil || res.Steps == 0 || res.MemoryBytes == 0 || seq.Len() == 0 {
		t.Fatalf("vm run: %v %+v %q", err, res, seq.String())
	}
	var checked bytes.Buffer
	if _, _, err := vm.Run(c.LIR, vm.Options{Out: &checked}); err != nil || checked.String() != seq.String() {
		t.Errorf("checked run diverged: %v\n%q\n%q", err, checked.String(), seq.String())
	}
	// A native run reports the storage of its arena: the VM's.
	if backend.Available() {
		store, err := backend.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var native bytes.Buffer
		nres, err := Run(ctx, c, RunSpec{Backend: driver.BackendGo}, &native, store)
		if err != nil || native.String() != seq.String() || nres.MemoryBytes != res.MemoryBytes {
			t.Errorf("native run: %v, %d bytes of arrays (vm %d)\n%q\n%q", err, nres.MemoryBytes, res.MemoryBytes, native.String(), seq.String())
		}
	}

	dspec := Spec{Bench: "fibro", Configs: map[string]int64{"n": 16}, Procs: 4, Dist: true}
	dsrc, dopt, err := dspec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := Compile(ctx, dsrc.Text, dopt)
	if err != nil {
		t.Fatal(err)
	}
	var dist bytes.Buffer
	dres, err := Run(ctx, dc, dspec.RunSpec(), &dist, nil)
	if err != nil || dres.Steps == 0 || dres.Traffic == nil || dres.Traffic.Barriers == 0 || dres.Traffic.HaloMessages == 0 {
		t.Fatalf("dist run: %v %+v", err, dres)
	}
	if res.Traffic != nil {
		t.Errorf("a sequential run reports traffic: %+v", res.Traffic)
	}
	if len(strings.Fields(dist.String())) != len(strings.Fields(seq.String())) {
		t.Errorf("distributed transcript shape differs:\n%q\n%q", dist.String(), seq.String())
	}

	// A budget failure is a runtime error with the elapsed time kept.
	res, err = Run(ctx, c, RunSpec{MaxSteps: 10}, io.Discard, nil)
	if Classify(err) != ClassRuntime || res == nil {
		t.Errorf("budget exhaustion: %v %+v", err, res)
	}
	// A compile failure is typed.
	if _, err := Compile(ctx, "program junk; not a program", opt); Classify(err) != ClassCompile {
		t.Errorf("garbage source: %v", err)
	}
}

// TestReadmeFlagReference keeps README.md's flag reference identical
// to the binder's help text: regenerate the block between the markers
// from the "want" this test prints when it fails.
func TestReadmeFlagReference(t *testing.T) {
	var s Spec
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	var names []string
	for _, d := range flagDefs {
		names = append(names, d.name)
	}
	s.Bind(fs, names...)
	var want bytes.Buffer
	fs.SetOutput(&want)
	fs.PrintDefaults()

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- job flags: begin -->\n```\n", "```\n<!-- job flags: end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %q … %q block", begin, end)
	}
	if got != want.String() {
		t.Errorf("README.md flag reference is stale; want:\n%s", want.String())
	}
}
