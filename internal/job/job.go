// Package job is the one front door of the compiler: every CLI and
// every zpld endpoint describes a request as a Spec, and this package
// alone decides what a legal request is (Resolve), how a compilation is
// executed on vm | distvm | native (Run), and what kind of failure an
// error is (Classify, with the exit-code and HTTP-status tables side by
// side). DESIGN.md §19 has the rule table.
//
// It cannot live in package driver: internal/programs' in-package test
// imports driver, so driver → programs would be a test import cycle.
package job

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/programs"
)

// Spec is one request in front-end-neutral form. The zero value of
// every field is its default; fields are named as zpld's JSON spells
// them, and Bind records which flag a CLI gave each one.
type Spec struct {
	// The program: Source (ZA text), Bench (a built-in benchmark) or
	// Files (the CLIs' positional arguments) — exactly one in all.
	Source, Bench string
	Files         []string

	Level      string // ladder level; "" = c2+f3
	Backend    string // vm (default) | go
	Configs    map[string]int64
	Procs      int    // > 1 inserts communication
	Strategy   string // favor-fusion (default) | favor-comm; needs Procs > 1
	ScalarRep  bool
	Check      bool
	Prove      bool // asserts the default; contradicts NoProve
	NoProve    bool
	ProveFault int
	NoRace     bool
	Plan       string // path of a plan-spec JSON file replacing the ladder
	// Sequential names a request feature that exists only for the
	// sequential program ("emit_go", "measure"); "" = none.
	Sequential string

	// The run half.
	Dist     bool   // distributed interpreter; needs Procs > 1
	MaxSteps int64  // interpreter step budget; 0 = default
	Machine  string // t3e | sp2 | paragon | origin: price a traced VM run

	flags map[string]string // field → the flag this front end bound it to
}

// MaxDistProcs is the most processors a distributed run may ask for.
// The analytic machine models price any count; the distributed
// interpreter spends real goroutines and memory on each, and its
// requests come from the network. (The largest count a test runs is 16.)
const MaxDistProcs = 64

const strategyHelp = "communication `strategy`: favor-fusion | favor-comm (needs -p > 1)"

// flagDefs is every flag a CLI can bind onto a Spec: its name, the Spec
// field it sets, its help text (README's flag reference is generated
// from these) and the field's address.
var flagDefs = []struct {
	name, field, help string
	ptr               func(*Spec) any
}{
	{"O", "level", "optimization `level`: baseline, f1, c1, f2, f3, c2, c2+f3, c2+f4, c2+f4s", func(s *Spec) any { return &s.Level }},
	{"backend", "backend", "execution `engine`: vm (bytecode interpreter) | go (emit Go, build it into the artifact store, run the binary)", func(s *Spec) any { return &s.Backend }},
	{"plan", "plan", "apply the plan spec in `file` (zpltune -emit JSON) instead of the -O ladder", func(s *Spec) any { return &s.Plan }},
	{"config", "configs", "override a config constant, `key=value` (repeatable)", func(s *Spec) any { return &s.Configs }},
	{"p", "procs", "processor count `n`; > 1 inserts communication", func(s *Spec) any { return &s.Procs }},
	{"comm", "strategy", strategyHelp, func(s *Spec) any { return &s.Strategy }},
	{"strategy", "strategy", strategyHelp, func(s *Spec) any { return &s.Strategy }},
	{"scalarrep", "scalarrep", "install scalar replacement in the loop nests", func(s *Spec) any { return &s.ScalarRep }},
	{"check", "check", "run the static verifier between pipeline phases; any finding fails the compilation", func(s *Spec) any { return &s.Check }},
	{"prove", "prove", "run the bounds prover so proven accesses go unchecked (the default; spell it to assert it)", func(s *Spec) any { return &s.Prove }},
	{"noprove", "noprove", "skip the bounds prover: every array access stays checked", func(s *Spec) any { return &s.NoProve }},
	{"provefault", "provefault", "seed an evidence fault into the `n`-th proven site (soundness self-test); 0 disables", func(s *Spec) any { return &s.ProveFault }},
	{"norace", "norace", "skip the happens-before race analyzer a distributed compilation runs by default", func(s *Spec) any { return &s.NoRace }},
	{"bench", "bench", "built-in benchmark `name` instead of a file: ep, frac, sp, tomcatv, simple, fibro", func(s *Spec) any { return &s.Bench }},
	{"dist", "dist", "execute on the distributed interpreter (real block decomposition and ghost exchanges); needs -p > 1", func(s *Spec) any { return &s.Dist }},
	{"maxsteps", "max_steps", "element-statement execution budget `n`, per processor under -dist; 0 keeps the VM's default (1e10)", func(s *Spec) any { return &s.MaxSteps }},
	{"machine", "machine", "price the traced sequential run on machine `model`: t3e | sp2 | paragon | origin", func(s *Spec) any { return &s.Machine }},
}

// PipelineFlags is the flag set zplc and zplrun share: everything
// that shapes the compilation.
var PipelineFlags = []string{"O", "backend", "plan", "config", "p", "comm", "scalarrep", "check", "prove", "noprove", "provefault", "norace"}

// Bind registers the named flags on fs, each defaulting to the field's
// current value, and remembers the names for usage diagnostics.
func (s *Spec) Bind(fs *flag.FlagSet, names ...string) {
	if s.flags == nil {
		s.flags = map[string]string{}
	}
	for _, name := range names {
		bound := false
		for _, d := range flagDefs {
			if d.name != name {
				continue
			}
			switch p := d.ptr(s).(type) {
			case *string:
				fs.StringVar(p, name, *p, d.help)
			case *bool:
				fs.BoolVar(p, name, *p, d.help)
			case *int:
				fs.IntVar(p, name, *p, d.help)
			case *int64:
				fs.Int64Var(p, name, *p, d.help)
			case *map[string]int64:
				fs.Var(configFlags{p}, name, d.help)
			}
			s.flags[d.field], bound = name, true
		}
		if !bound {
			panic("job: no flag named " + name)
		}
	}
}

// Parse parses args and takes the positional arguments as the program
// files.
func (s *Spec) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return Usagef("%v", err)
	}
	s.Files = fs.Args()
	return nil
}

type configFlags struct{ m *map[string]int64 }

func (c configFlags) String() string {
	if c.m == nil || len(*c.m) == 0 {
		return ""
	}
	return fmt.Sprint(*c.m)
}

func (c configFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", s)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return err
	}
	if *c.m == nil {
		*c.m = map[string]int64{}
	}
	(*c.m)[k] = n
	return nil
}

// UsageError is an illegal request. Its message names Spec fields as
// {field} tokens: Error renders them as zpld's JSON spells them, and
// Spec.Report as the flags the CLI bound.
type UsageError struct{ msg string }

// Usagef builds a UsageError; write field references as {field}.
func Usagef(format string, args ...any) error {
	return &UsageError{fmt.Sprintf(format, args...)}
}

var fieldToken = regexp.MustCompile(`\{([a-z_ ]+)\}`)

func (e *UsageError) Error() string { return fieldToken.ReplaceAllString(e.msg, "$1") }

// flagged renders the message with each field as the flag bound to it
// (the first flag defined for the field when this Spec bound none).
func (e *UsageError) flagged(s *Spec) string {
	return fieldToken.ReplaceAllStringFunc(e.msg, func(tok string) string {
		field := tok[1 : len(tok)-1]
		if name, ok := s.flags[field]; ok {
			return "-" + name
		}
		for _, d := range flagDefs {
			if d.field == field {
				return "-" + d.name
			}
		}
		return "-" + field
	})
}

// Source is one program: its text and the name diagnostics give it.
type Source struct{ Name, Text string }

// Sources loads the named benchmark ("all" = every one, "" = none)
// followed by each file; an empty result is a usage error.
func Sources(bench string, files []string) ([]Source, error) {
	var out []Source
	switch bench {
	case "":
	case "all":
		for _, b := range programs.All() {
			out = append(out, Source{"bench:" + b.Name, b.Source})
		}
	default:
		b, ok := programs.ByName(bench)
		if !ok {
			return nil, Usagef("unknown benchmark %q", bench)
		}
		out = append(out, Source{"bench:" + b.Name, b.Source})
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, Usagef("%v", err)
		}
		out = append(out, Source{f, string(data)})
	}
	if len(out) == 0 {
		return nil, Usagef("no program given (a file, a source text or a benchmark name)")
	}
	return out, nil
}

// CommOptions builds the communication configuration of a request:
// nil for the sequential program, the paper's defaults plus the
// strategy for procs > 1.
func CommOptions(procs int, strategy string) (*comm.Options, error) {
	favorComm := false
	switch strategy {
	case "", "favor-fusion":
	case "favor-comm":
		favorComm = true
	default:
		return nil, Usagef("unknown {strategy} %q (want favor-fusion or favor-comm)", strategy)
	}
	if procs <= 1 {
		if favorComm {
			return nil, Usagef("{strategy} %s requires {procs} > 1", strategy)
		}
		return nil, nil
	}
	co := comm.DefaultOptions(procs)
	if favorComm {
		co.Strategy = comm.FavorComm
	}
	return &co, nil
}

// Machine looks up one of the paper's machine models by name.
func Machine(name string) (machine.Model, error) {
	m, ok := machine.ByName(name)
	if !ok {
		return m, Usagef("unknown {machine} %q (want t3e, sp2, paragon, or origin)", name)
	}
	return m, nil
}

// Resolve validates the request and builds what the driver needs. It
// is the only place a default or a rejection rule is written down, and
// it runs before any compile: every error it returns is a *UsageError.
func (s *Spec) Resolve() (Source, driver.Options, error) {
	var opt driver.Options
	fail := func(format string, args ...any) (Source, driver.Options, error) {
		return Source{}, opt, Usagef(format, args...)
	}

	src := Source{"source", s.Source}
	if s.Source == "" {
		units, err := Sources(s.Bench, s.Files)
		switch {
		case err != nil:
			return Source{}, opt, err
		case len(units) != 1:
			// A silent choice would run something other than what the
			// user named.
			return fail("pass one program source, not %d ({bench} %q, file arguments %q)", len(units), s.Bench, s.Files)
		}
		src = units[0]
	} else if s.Bench != "" || len(s.Files) > 0 {
		return fail("pass {source} or {bench}, not both")
	}

	level := s.Level
	if level == "" {
		level = "c2+f3"
	}
	lvl, err := core.ParseLevel(level)
	if err != nil {
		return fail("{level}: %v", err)
	}
	be, err := driver.ParseBackend(s.Backend)
	if err != nil {
		return fail("{backend}: %v", err)
	}
	model := s.Machine
	if _, err := Machine(model); model != "" && err != nil {
		return Source{}, opt, err
	}
	co, err := CommOptions(s.Procs, s.Strategy)
	if err != nil {
		return Source{}, opt, err
	}

	switch {
	case s.Prove && s.NoProve:
		// A silent winner would either run checks the user asked to
		// drop or drop checks the user asked to keep.
		return fail("{prove} and {noprove} are contradictory: pick one")
	case s.NoProve && s.ProveFault > 0:
		return fail("{provefault} %d needs the prover that {noprove} disables", s.ProveFault)
	case s.Dist && s.Procs < 2:
		return fail("{dist} requires {procs} > 1")
	case s.Dist && s.Procs > MaxDistProcs:
		return fail("{dist} runs at most %d processors, not {procs} %d: each one is a goroutine holding its block and halos of every array", MaxDistProcs, s.Procs)
	case s.Dist && model != "":
		// The distributed interpreter performs real exchanges and has
		// no tracer, so the model would be silently ignored.
		return fail("{machine} %s cannot be combined with {dist}: cost models price the sequential (traced) execution only", model)
	case s.Sequential != "" && s.Procs > 1:
		return fail("{%s} applies to the sequential program only ({procs} <= 1)", s.Sequential)
	}
	if be.Native() {
		// Native code is the sequential program; the interpreter-only
		// features are refused rather than silently ignored.
		switch {
		case s.Dist:
			return fail("{backend} go cannot be combined with {dist} (native code is the sequential program)")
		case s.Procs > 1:
			return fail("{backend} go cannot be combined with {procs} > 1 (no communication in native code)")
		case model != "":
			return fail("{backend} go cannot be combined with {machine} (cost models price the traced VM execution)")
		case s.MaxSteps != 0:
			return fail("{backend} go does not support {max_steps} (step budgets are an interpreter feature)")
		case !backend.Available():
			return fail("{backend} go requires a go toolchain on PATH")
		}
	}

	opt = driver.Options{Level: lvl, Configs: s.Configs, Comm: co, ScalarReplace: s.ScalarRep, Check: s.Check,
		NoProve: s.NoProve, ProveFault: s.ProveFault, NoRace: s.NoRace, Backend: be}
	if s.Plan != "" {
		data, err := os.ReadFile(s.Plan)
		if err != nil {
			return fail("{plan}: %v", err)
		}
		if opt.Plan, err = core.ParseSpec(data); err != nil {
			return fail("{plan} %s: %v", s.Plan, err)
		}
	}
	return src, opt, nil
}

// RunSpec is the run half of a resolved Spec.
func (s *Spec) RunSpec() RunSpec {
	be, _ := driver.ParseBackend(s.Backend)
	rs := RunSpec{Backend: be, Dist: s.Dist, Procs: s.Procs, MaxSteps: s.MaxSteps}
	if m, err := Machine(s.Machine); err == nil {
		rs.Model = &m
	}
	return rs
}

// Report prints err the way a CLI reports a failure — usage errors
// naming the flags this Spec bound — and returns the exit code of the
// error's class.
func (s *Spec) Report(w io.Writer, tool string, err error) int {
	class := Classify(err)
	msg := err.Error()
	var ue *UsageError
	switch {
	case errors.As(err, &ue):
		msg = ue.flagged(s)
	case class == ClassCompile:
		msg = "compile error: " + msg
	case class == ClassTimeout:
		msg = "timeout: " + msg
	}
	fmt.Fprintf(w, "%s: %s\n", tool, msg)
	return class.ExitCode()
}

// Fatal is Report to stderr followed by exit.
func (s *Spec) Fatal(tool string, err error) {
	os.Exit(s.Report(os.Stderr, tool, err))
}
