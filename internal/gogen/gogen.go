// Package gogen is the native back end: it emits a scalarized program
// as a standalone Go source file whose output matches the VM's
// bit-for-bit. This is what a production array compiler would ship.
// On speed the two engines are close since the VM runs a strip at a
// time: on the bench harness's run cells the emitted loops cost ~2.5 ns
// per element-statement against the VM's 3–5, and a native run pays a
// process spawn (~2 ms) the VM does not, so native wins on large arrays
// and long runs and the VM everywhere else (ROADMAP item 2). Running
// both closes the loop on code-generation correctness with the host
// toolchain as the final referee.
//
// Emitted programs are self-contained (standard library only) and make
// three guarantees the differential harness (internal/backend,
// experiments -run backend) relies on:
//
//   - stdout is bit-identical to the VM's: writeln arguments print
//     with %g separated by single spaces, exactly like internal/vm;
//   - runtime faults are propagated, not swallowed: a trap in the
//     generated code (index out of range, stack overflow, ...) is
//     recovered, reported on stderr as "za runtime error: ...", and
//     the process exits with the distinct code ExitTrap so callers can
//     tell a miscompiled program from a toolchain or harness failure;
//   - setting the environment variable TimeEnv makes the binary report
//     its compute-only wall clock ("za_elapsed_ns <n>") on stderr,
//     so measurements exclude process startup.
//
// Imports are emitted only when the program actually uses them (math
// is conditional; fmt/os/time are always used by the main scaffold),
// so generated code compiles and vets clean with no blank-identifier
// hacks.
//
// Communication primitives are dropped: generated code is the
// sequential (single-processor) program, whose semantics the
// distributed interpreter already cross-validates.
package gogen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/lir"
)

// ExitTrap is the process exit code of a generated binary whose
// execution hit a runtime fault. It is deliberately distinct from 0
// (success), 1 (generic tool failure), and 2 (Go's own exit code for
// an unrecovered panic), so the backend harness can classify a trap in
// generated code without parsing stderr.
const ExitTrap = 3

// TimeEnv is the environment variable that, when set to any non-empty
// value, makes a generated binary print "za_elapsed_ns <n>" on stderr:
// the wall-clock nanoseconds spent inside the program proper, process
// startup and teardown excluded.
const TimeEnv = "ZPL_TIME_NS"

// ElapsedPrefix starts the stderr timing line a binary emits under
// TimeEnv.
const ElapsedPrefix = "za_elapsed_ns "

// StateInEnv and StateOutEnv name the binary state files a generated
// program reads its initial array/scalar state from and dumps its
// final state to. They only exist in binaries emitted with a non-nil
// StateSpec (the lazy runtime's artifacts); either variable may be
// empty or unset, in which case the corresponding half is skipped —
// arrays start zeroed, nothing is written back. Keeping the state in
// environment-named files rather than embedded constants is what makes
// a lazy batch's generated source — and therefore its content-addressed
// artifact — identical across timesteps of an iterative solver.
const (
	StateInEnv  = "ZPL_STATE_IN"
	StateOutEnv = "ZPL_STATE_OUT"
)

// StateSpec declares, in order, which arrays and scalars participate in
// the state files. Each array contributes Alloc.Size() float64s (the
// full allocated slab including halo, row-major) and each scalar one
// float64, all raw little-endian, concatenated with no header: the file
// length is exactly 8*(sum of array sizes + len(Scalars)) bytes, and a
// mismatch is a state error (exit code ExitTrap). The caller owns the
// ordering; the emitter follows it verbatim, so the reader and writer
// of the files agree by construction.
type StateSpec struct {
	Arrays  []string
	Scalars []string
}

// Emit renders the program as a compilable Go main package with every
// array access bounds-checked (Go's implicit slice check plus the
// recover scaffold).
func Emit(p *lir.Program) (string, error) { return EmitBounds(p, nil) }

// EmitBounds renders the program using the abstract-interpretation
// prover's verdicts: accesses at ProvenSafe sites compile to raw
// pointer arithmetic (unsafe.Add) with no slice bounds check, and when
// every site in the program is proven the recover scaffold is dropped
// entirely — the generated binary carries no trap machinery at all,
// which is the proof-carrying payoff. The prover's fingerprint is
// stamped into the file header, so cached native artifacts built with
// different verdicts never alias. A Faulted site (the -provefault
// self-test) emits its access displaced by the injected evidence
// shift, wrapped into the storage, making the seeded wrong interval an
// observable wrong answer. bounds == nil emits fully checked code.
func EmitBounds(p *lir.Program, bounds *absint.Result) (string, error) {
	return EmitState(p, bounds, nil)
}

// EmitState renders the program like EmitBounds and, when spec is
// non-nil, additionally wires in the state protocol: the binary loads
// its initial array/scalar state from the file named by StateInEnv
// before the timed region and dumps its final state to the file named
// by StateOutEnv after it (both steps outside the TimeEnv-reported
// window, so timings stay compute-only). spec == nil emits
// byte-identical output to EmitBounds, so existing content-addressed
// artifacts keep their keys.
func EmitState(p *lir.Program, bounds *absint.Result, spec *StateSpec) (string, error) {
	g := &gen{p: p, bounds: bounds, spec: spec}
	var body strings.Builder
	g.b = &body

	procNames := make([]string, 0, len(p.Procs))
	for n := range p.Procs {
		procNames = append(procNames, n)
	}
	sort.Strings(procNames)
	for _, n := range procNames {
		if err := g.proc(p.Procs[n]); err != nil {
			return "", err
		}
	}
	if g.err != nil {
		return "", g.err
	}

	// State functions render before the import block is fixed (they
	// need math and encoding/binary), like declarations below.
	stateFns, err := g.stateFuncs()
	if err != nil {
		return "", err
	}

	// Declarations may themselves need math (an Inf/NaN initializer),
	// so they render to a side buffer before the import block is fixed.
	var decls strings.Builder
	g.declarations(&decls)

	var out strings.Builder
	out.WriteString("// Code generated by gogen from program " + p.Name + ". DO NOT EDIT.\n")
	allProven := false
	if bounds != nil {
		fmt.Fprintf(&out, "// bounds prover: %d/%d sites proven safe, fingerprint %s.\n",
			bounds.NumProven, len(bounds.Sites), bounds.Fingerprint())
		allProven = bounds.AllProven()
		if allProven {
			out.WriteString("// all accesses proven: unchecked dispatch, no trap scaffold.\n")
		}
	}
	if g.spec != nil {
		fmt.Fprintf(&out, "// state protocol: %s/%s name raw little-endian float64 state files.\n",
			StateInEnv, StateOutEnv)
	}
	out.WriteString("package main\n\nimport (\n")
	if g.useBinary {
		out.WriteString("\t\"encoding/binary\"\n")
	}
	out.WriteString("\t\"fmt\"\n")
	if g.useMath {
		out.WriteString("\t\"math\"\n")
	}
	out.WriteString("\t\"os\"\n\t\"time\"\n")
	if g.useUnsafe {
		out.WriteString("\t\"unsafe\"\n")
	}
	out.WriteString(")\n\n")
	out.WriteString(decls.String())
	if g.useSign {
		out.WriteString(helperSign)
	}
	if g.useB2F {
		out.WriteString(helperB2F)
	}
	if g.useWrap {
		out.WriteString(helperWrap)
	}
	out.WriteString(body.String())
	out.WriteString(stateFns)
	switch {
	case g.spec != nil && allProven:
		fmt.Fprintf(&out, mainScaffoldProvenState, TimeEnv, ElapsedPrefix)
	case g.spec != nil:
		fmt.Fprintf(&out, mainScaffoldState, ExitTrap, TimeEnv, ElapsedPrefix)
	case allProven:
		fmt.Fprintf(&out, mainScaffoldProven, TimeEnv, ElapsedPrefix)
	default:
		fmt.Fprintf(&out, mainScaffold, ExitTrap, TimeEnv, ElapsedPrefix)
	}
	return out.String(), nil
}

// stateFuncs renders za_load_state/za_dump_state (plus their shared
// failure helper) for the generator's StateSpec; with no spec it
// contributes nothing, keeping spec-less emission byte-identical to
// the historical output. Load and dump walk the spec in its declared
// order, so the file layout is fully determined by the caller.
func (g *gen) stateFuncs() (string, error) {
	if g.spec == nil {
		return "", nil
	}
	total := 0
	for _, n := range g.spec.Arrays {
		a := g.p.Source.Arrays[n]
		if a == nil {
			return "", fmt.Errorf("gogen: state spec names unknown array %s", n)
		}
		if a.Contracted {
			return "", fmt.Errorf("gogen: state spec names contracted array %s", n)
		}
		total += a.Alloc.Size()
	}
	for _, n := range g.spec.Scalars {
		if g.p.Source.Scalars[n] == nil {
			return "", fmt.Errorf("gogen: state spec names unknown scalar %s", n)
		}
		total++
	}
	g.useMath = true
	g.useBinary = true
	bytes := 8 * total

	var b strings.Builder
	fmt.Fprintf(&b, "func za_state_fail(msg string) {\n\tfmt.Fprintln(os.Stderr, \"za state error:\", msg)\n\tos.Exit(%d)\n}\n\n", ExitTrap)

	fmt.Fprintf(&b, "func za_load_state() {\n\tpath := os.Getenv(%q)\n\tif path == \"\" {\n\t\treturn\n\t}\n", StateInEnv)
	b.WriteString("\tdata, err := os.ReadFile(path)\n\tif err != nil {\n\t\tza_state_fail(err.Error())\n\t}\n")
	fmt.Fprintf(&b, "\tif len(data) != %d {\n\t\tza_state_fail(fmt.Sprintf(\"state file is %%d bytes, want %d\", len(data)))\n\t}\n", bytes, bytes)
	b.WriteString("\toff := 0\n")
	for _, n := range g.spec.Arrays {
		v := goName(n)
		fmt.Fprintf(&b, "\tfor i := range %s {\n\t\t%s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))\n\t\toff += 8\n\t}\n", v, v)
	}
	for _, n := range g.spec.Scalars {
		fmt.Fprintf(&b, "\t%s = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))\n\toff += 8\n", goName(n))
	}
	b.WriteString("\t_ = off\n}\n\n")

	fmt.Fprintf(&b, "func za_dump_state() {\n\tpath := os.Getenv(%q)\n\tif path == \"\" {\n\t\treturn\n\t}\n", StateOutEnv)
	fmt.Fprintf(&b, "\tbuf := make([]byte, %d)\n\toff := 0\n", bytes)
	for _, n := range g.spec.Arrays {
		v := goName(n)
		fmt.Fprintf(&b, "\tfor i := range %s {\n\t\tbinary.LittleEndian.PutUint64(buf[off:], math.Float64bits(%s[i]))\n\t\toff += 8\n\t}\n", v, v)
	}
	for _, n := range g.spec.Scalars {
		fmt.Fprintf(&b, "\tbinary.LittleEndian.PutUint64(buf[off:], math.Float64bits(%s))\n\toff += 8\n", goName(n))
	}
	b.WriteString("\t_ = off\n\tif err := os.WriteFile(path, buf, 0o644); err != nil {\n\t\tza_state_fail(err.Error())\n\t}\n}\n\n")
	return b.String(), nil
}

type gen struct {
	p      *lir.Program
	b      *strings.Builder
	bounds *absint.Result
	spec   *StateSpec
	ind    int
	err    error

	// Import/helper usage, discovered during emission.
	useMath   bool
	useSign   bool
	useB2F    bool
	useUnsafe bool
	useWrap   bool
	useBinary bool

	// basePtrs are the arrays with at least one unchecked access; each
	// gets one package-level unsafe.Pointer to its backing store, so
	// the per-access cost is a single add — re-deriving the base from
	// the slice header at every access re-buys the check being removed.
	basePtrs map[string]bool
}

func (g *gen) line(format string, args ...interface{}) {
	g.b.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) fail(format string, args ...interface{}) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

// goName sanitizes a mangled ZA name into a Go identifier.
func goName(n string) string {
	n = strings.ReplaceAll(n, ".", "_")
	n = strings.ReplaceAll(n, "$", "_")
	return "za_" + n
}

// baseName is the package-level unsafe base pointer of an array with
// unchecked accesses. The "zaP_" prefix cannot collide with goName's
// "za_" namespace.
func baseName(n string) string {
	n = strings.ReplaceAll(n, ".", "_")
	n = strings.ReplaceAll(n, "$", "_")
	return "zaP_" + n
}

// floatLit renders a float64 as a deterministic, valid Go expression.
// strconv's shortest round-trip form keeps the literal bit-exact; the
// non-finite values (which have no Go literal form) fall back to math
// calls.
func (g *gen) floatLit(v float64) string {
	switch {
	case math.IsInf(v, 1):
		g.useMath = true
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		g.useMath = true
		return "math.Inf(-1)"
	case math.IsNaN(v):
		g.useMath = true
		return "math.NaN()"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// declarations emits array storage and scalar variables.
func (g *gen) declarations(out *strings.Builder) {
	names := make([]string, 0, len(g.p.Source.Arrays))
	for n := range g.p.Source.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := g.p.Source.Arrays[n]
		if a.Contracted {
			continue
		}
		size := a.Alloc.Size()
		fmt.Fprintf(out, "var %s = make([]float64, %d) // %s\n", goName(n), size, a.Alloc)
	}
	names = names[:0]
	for n := range g.p.Source.Scalars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := g.p.Source.Scalars[n]
		if s.Config {
			fmt.Fprintf(out, "var %s float64 = %s\n", goName(n), g.floatLit(s.Init))
		} else {
			fmt.Fprintf(out, "var %s float64\n", goName(n))
		}
	}
	// Contracted arrays become plain variables.
	names = names[:0]
	for n, a := range g.p.Source.Arrays {
		if a.Contracted {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "var %s float64 // contracted array\n", goName(n))
	}
	// Hoisted base pointers for the unchecked accesses (declarations
	// render after the procs, so the set is complete here).
	names = names[:0]
	for n := range g.basePtrs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "var %s = unsafe.Pointer(&%s[0])\n", baseName(n), goName(n))
	}
	out.WriteString("\n")
}

const helperSign = `func za_sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

`

const helperB2F = `func za_b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

`

// helperWrap displaces a seeded-fault access into the storage (the
// -provefault self-test): a deterministic wrong element, never an
// out-of-range read. Mirrors the VM's faultPos.
const helperWrap = `func za_wrap(p, n int) int {
	if p < 0 {
		p += n
	} else if p >= n {
		p -= n
	}
	return p
}

`

// mainScaffold wraps za_main with runtime-fault propagation and the
// opt-in self-timing hook. Verbs: ExitTrap, TimeEnv, ElapsedPrefix.
const mainScaffold = `
func main() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "za runtime error:", r)
			os.Exit(%d)
		}
	}()
	t0 := time.Now()
	za_main()
	if os.Getenv(%q) != "" {
		fmt.Fprintf(os.Stderr, "%s%%d\n", time.Since(t0).Nanoseconds())
	}
}
`

// mainScaffoldProven is the scaffold for a fully proven program: every
// access is statically safe, so there is nothing to recover from and
// no trap path to ship. Verbs: TimeEnv, ElapsedPrefix.
const mainScaffoldProven = `
func main() {
	t0 := time.Now()
	za_main()
	if os.Getenv(%q) != "" {
		fmt.Fprintf(os.Stderr, "%s%%d\n", time.Since(t0).Nanoseconds())
	}
}
`

// mainScaffoldState adds the state protocol around the checked
// scaffold: load before the timed region, dump after it, so TimeEnv
// timings stay compute-only. A trap skips the dump — a faulted run
// leaves no state file for a caller to mistake for a result. Verbs:
// ExitTrap, TimeEnv, ElapsedPrefix.
const mainScaffoldState = `
func main() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "za runtime error:", r)
			os.Exit(%d)
		}
	}()
	za_load_state()
	t0 := time.Now()
	za_main()
	elapsed := time.Since(t0)
	za_dump_state()
	if os.Getenv(%q) != "" {
		fmt.Fprintf(os.Stderr, "%s%%d\n", elapsed.Nanoseconds())
	}
}
`

// mainScaffoldProvenState is the state-protocol scaffold for a fully
// proven program. Verbs: TimeEnv, ElapsedPrefix.
const mainScaffoldProvenState = `
func main() {
	za_load_state()
	t0 := time.Now()
	za_main()
	elapsed := time.Since(t0)
	za_dump_state()
	if os.Getenv(%q) != "" {
		fmt.Fprintf(os.Stderr, "%s%%d\n", elapsed.Nanoseconds())
	}
}
`

func (g *gen) proc(pr *lir.Proc) error {
	params := make([]string, len(pr.Params))
	for i, p := range pr.Params {
		params[i] = goName(p) + "_arg float64"
	}
	g.line("func %s(%s) {", goName(pr.Name), strings.Join(params, ", "))
	g.ind++
	for _, p := range pr.Params {
		g.line("%s = %s_arg", goName(p), goName(p))
	}
	g.nodes(pr.Body, pr)
	g.ind--
	g.line("}")
	g.line("")
	return g.err
}

func (g *gen) nodes(nodes []lir.Node, pr *lir.Proc) {
	for _, n := range nodes {
		g.node(n, pr)
	}
}

func (g *gen) node(n lir.Node, pr *lir.Proc) {
	switch x := n.(type) {
	case *lir.Nest:
		g.nest(x)
	case *lir.ScalarAssign:
		g.line("%s = %s", goName(x.LHS), g.expr(x.RHS, nil))
	case *lir.Loop:
		v := goName(x.Var)
		if x.Down {
			g.line("for %s = %s; %s >= %s; %s-- {", v, g.expr(x.Lo, nil), v, g.expr(x.Hi, nil), v)
		} else {
			g.line("for %s = %s; %s <= %s; %s++ {", v, g.expr(x.Lo, nil), v, g.expr(x.Hi, nil), v)
		}
		g.ind++
		g.nodes(x.Body, pr)
		g.ind--
		g.line("}")
	case *lir.While:
		g.line("for (%s) != 0 {", g.expr(x.Cond, nil))
		g.ind++
		g.nodes(x.Body, pr)
		g.ind--
		g.line("}")
	case *lir.If:
		g.line("if (%s) != 0 {", g.expr(x.Cond, nil))
		g.ind++
		g.nodes(x.Then, pr)
		g.ind--
		if len(x.Else) > 0 {
			g.line("} else {")
			g.ind++
			g.nodes(x.Else, pr)
			g.ind--
		}
		g.line("}")
	case *lir.PartialReduce:
		g.partialReduce(x)
	case *lir.Comm:
		g.line("// comm %s elided in sequential native code", goName(x.Array))
	case *lir.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = g.expr(a, nil)
		}
		g.line("%s(%s)", goName(x.Proc), strings.Join(args, ", "))
		if x.Target != "" {
			g.line("%s = %s", goName(x.Target), goName(x.Proc+".$result"))
		}
	case *lir.Return:
		if x.Value != nil {
			g.line("%s = %s", goName(pr.Name+".$result"), g.expr(x.Value, nil))
		}
		g.line("return")
	case *lir.Writeln:
		var fmts []string
		var args []string
		for _, a := range x.Args {
			if a.Expr != nil {
				fmts = append(fmts, "%g")
				args = append(args, g.expr(a.Expr, nil))
			} else {
				fmts = append(fmts, "%s")
				args = append(args, fmt.Sprintf("%q", a.Str))
			}
		}
		if len(args) == 0 {
			g.line("fmt.Println()")
		} else {
			g.line("fmt.Printf(%q, %s)", strings.Join(fmts, " ")+"\n", strings.Join(args, ", "))
		}
	default:
		g.fail("gogen: unknown node %T", n)
	}
}

// idxVar names the loop index for dimension k (0-based): i1, i2, ...
// for any rank the front end admits.
func idxVar(k int) string { return "i" + strconv.Itoa(k+1) }

// idxSlice builds the index-variable list for a rank-n nest.
func idxSlice(n int) []string {
	idx := make([]string, n)
	for k := range idx {
		idx[k] = idxVar(k)
	}
	return idx
}

// reduceStep emits one accumulation statement dst op= rhs.
func (g *gen) reduceStep(dst string, op air.ReduceOp, rhs string) {
	switch op {
	case air.ReduceSum:
		g.line("%s += %s", dst, rhs)
	case air.ReduceProd:
		g.line("%s *= %s", dst, rhs)
	case air.ReduceMax:
		g.useMath = true
		g.line("%s = math.Max(%s, %s)", dst, dst, rhs)
	case air.ReduceMin:
		g.useMath = true
		g.line("%s = math.Min(%s, %s)", dst, dst, rhs)
	default:
		g.fail("gogen: unknown reduce op %v", op)
	}
}

// partialReduce emits a dimensional reduction: identity-fill the
// destination slab, then sweep the source accumulating into the
// projected element.
func (g *gen) partialReduce(x *lir.PartialReduce) {
	rank := x.Region.Rank()
	idx := idxSlice(rank)
	// The destination element is both written and read by the
	// accumulation; the write site's evidence covers the union of both
	// hulls, so it licenses the whole op= access.
	var site *absint.Site
	if g.bounds != nil {
		site = g.bounds.ReduceStore(x)
	}
	// Identity fill.
	for k := 0; k < rank; k++ {
		v := idx[k]
		g.line("for %s := %d; %s <= %d; %s++ {", v, x.Dest.Lo[k], v, x.Dest.Hi[k], v)
		g.ind++
	}
	g.line("%s = %s", g.indexed(x.LHS, air.Zero(rank), idx, site), g.identity(x.Op))
	for k := 0; k < rank; k++ {
		g.ind--
		g.line("}")
	}
	// Accumulation sweep with projected destination index.
	proj := make([]string, rank)
	for k := 0; k < rank; k++ {
		if x.Dest.Extent(k) == 1 && x.Region.Extent(k) != 1 {
			proj[k] = fmt.Sprintf("%d", x.Dest.Lo[k])
		} else {
			proj[k] = idx[k]
		}
	}
	for k := 0; k < rank; k++ {
		v := idx[k]
		g.line("for %s := %d; %s <= %d; %s++ {", v, x.Region.Lo[k], v, x.Region.Hi[k], v)
		g.ind++
	}
	g.reduceStep(g.indexed(x.LHS, air.Zero(rank), proj, site), x.Op, g.expr(x.Body, idx))
	for k := 0; k < rank; k++ {
		g.ind--
		g.line("}")
	}
}

func (g *gen) nest(n *lir.Nest) {
	rank := n.Region.Rank()
	idx := idxSlice(rank)
	// Reduction initializations.
	for _, s := range n.Body {
		if s.IsReduce {
			g.line("%s = %s", goName(s.Target), g.identity(s.Op))
		}
	}
	for k := 0; k < rank; k++ {
		pi := n.Order[k]
		dim := pi
		if dim < 0 {
			dim = -dim
		}
		v := idx[dim-1]
		lo, hi := n.Region.Lo[dim-1], n.Region.Hi[dim-1]
		if pi > 0 {
			g.line("for %s := %d; %s <= %d; %s++ {", v, lo, v, hi, v)
		} else {
			g.line("for %s := %d; %s >= %d; %s-- {", v, hi, v, lo, v)
		}
		g.ind++
	}
	for i, pl := range n.Preloads {
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.PreloadSite(n, i)
		}
		g.line("%s = %s", goName(pl.Var), g.indexed(pl.Array, pl.Off, idx, site))
	}
	for _, s := range n.Body {
		closeGuard := false
		if s.Guard != nil {
			var conds []string
			for d := 0; d < rank; d++ {
				if s.Guard.Lo[d] != n.Region.Lo[d] || s.Guard.Hi[d] != n.Region.Hi[d] {
					conds = append(conds, fmt.Sprintf("%d <= %s && %s <= %d",
						s.Guard.Lo[d], idx[d], idx[d], s.Guard.Hi[d]))
				}
			}
			if len(conds) > 0 {
				g.line("if %s {", strings.Join(conds, " && "))
				g.ind++
				closeGuard = true
			}
		}
		rhs := g.expr(s.RHS, idx)
		switch {
		case s.IsReduce:
			g.reduceStep(goName(s.Target), s.Op, rhs)
		case s.Contracted:
			g.line("%s = %s", goName(s.LHS), rhs)
		default:
			var site *absint.Site
			if g.bounds != nil {
				site = g.bounds.Store(s)
			}
			g.line("%s = %s", g.indexed(s.LHS, air.Zero(rank), idx, site), rhs)
		}
		if closeGuard {
			g.ind--
			g.line("}")
		}
	}
	for k := 0; k < rank; k++ {
		g.ind--
		g.line("}")
	}
}

func (g *gen) identity(op air.ReduceOp) string {
	switch op {
	case air.ReduceProd:
		return "1"
	case air.ReduceMax:
		g.useMath = true
		return "math.Inf(-1)"
	case air.ReduceMin:
		g.useMath = true
		return "math.Inf(1)"
	}
	return "0"
}

// indexed renders one array element access against alloc bounds. The
// checked form is A[flat offset expression] (Go's implicit slice
// check); a ProvenSafe site instead renders as raw pointer arithmetic
// with no check, and a Faulted site renders with its access displaced
// by the injected evidence shift (wrapped into the storage).
func (g *gen) indexed(name string, off air.Offset, idx []string, site *absint.Site) string {
	a := g.p.Source.Arrays[name]
	if a == nil {
		g.fail("gogen: unknown array %s", name)
		return "zaBAD"
	}
	rank := a.Alloc.Rank()
	size := a.Alloc.Size()
	strides := make([]int, rank)
	s := 1
	for k := rank - 1; k >= 0; k-- {
		strides[k] = s
		s *= a.Alloc.Extent(k)
	}
	var terms []string
	base := 0
	for k := 0; k < rank; k++ {
		d := off[k] - a.Alloc.Lo[k]
		base += d * strides[k]
		if strides[k] == 1 {
			terms = append(terms, idx[k])
		} else {
			terms = append(terms, fmt.Sprintf("%d*%s", strides[k], idx[k]))
		}
	}
	expr := strings.Join(terms, "+")
	if base != 0 {
		expr = fmt.Sprintf("%s%+d", expr, base)
	}
	if site != nil && site.Verdict == absint.ProvenSafe && size > 0 {
		if site.FaultShift != 0 {
			g.useWrap = true
			return fmt.Sprintf("%s[za_wrap(%s%+d, %d)]", goName(name), expr, site.FaultShift, size)
		}
		g.useUnsafe = true
		if g.basePtrs == nil {
			g.basePtrs = map[string]bool{}
		}
		g.basePtrs[name] = true
		return fmt.Sprintf("*(*float64)(unsafe.Add(%s, 8*(%s)))", baseName(name), expr)
	}
	return fmt.Sprintf("%s[%s]", goName(name), expr)
}

func (g *gen) expr(e air.Expr, idx []string) string {
	switch x := e.(type) {
	case *air.ConstExpr:
		if x.Val == float64(int64(x.Val)) {
			return fmt.Sprintf("float64(%d)", int64(x.Val))
		}
		return g.floatLit(x.Val)
	case *air.ScalarExpr:
		return goName(x.Name)
	case *air.IndexExpr:
		if idx == nil || x.Dim-1 >= len(idx) {
			g.fail("gogen: index%d outside a nest", x.Dim)
			return "0"
		}
		return "float64(" + idx[x.Dim-1] + ")"
	case *air.RefExpr:
		if info := g.p.Source.Arrays[x.Ref.Array]; info != nil && info.Contracted {
			return goName(x.Ref.Array)
		}
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.Read(x)
		}
		return g.indexed(x.Ref.Array, x.Ref.Off, idx, site)
	case *air.BinExpr:
		a, b := g.expr(x.X, idx), g.expr(x.Y, idx)
		switch x.Op {
		case air.OpAdd:
			return "(" + a + " + " + b + ")"
		case air.OpSub:
			return "(" + a + " - " + b + ")"
		case air.OpMul:
			return "(" + a + " * " + b + ")"
		case air.OpDiv:
			return "(" + a + " / " + b + ")"
		case air.OpRem:
			g.useMath = true
			return "math.Mod(" + a + ", " + b + ")"
		case air.OpPow:
			g.useMath = true
			return "math.Pow(" + a + ", " + b + ")"
		case air.OpEq:
			return g.b2f(a + " == " + b)
		case air.OpNe:
			return g.b2f(a + " != " + b)
		case air.OpLt:
			return g.b2f(a + " < " + b)
		case air.OpLe:
			return g.b2f(a + " <= " + b)
		case air.OpGt:
			return g.b2f(a + " > " + b)
		case air.OpGe:
			return g.b2f(a + " >= " + b)
		case air.OpAnd:
			return g.b2f("(" + a + ") != 0 && (" + b + ") != 0")
		case air.OpOr:
			return g.b2f("(" + a + ") != 0 || (" + b + ") != 0")
		}
	case *air.UnExpr:
		a := g.expr(x.X, idx)
		if x.Op == air.OpNot {
			return g.b2f("(" + a + ") == 0")
		}
		return "(-" + a + ")"
	case *air.CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = g.expr(a, idx)
		}
		list := strings.Join(args, ", ")
		switch x.Name {
		case "sqrt", "exp", "log", "sin", "cos", "tan", "abs", "floor", "ceil", "min", "max", "pow", "mod", "atan2":
			fn := map[string]string{
				"sqrt": "Sqrt", "exp": "Exp", "log": "Log", "sin": "Sin",
				"cos": "Cos", "tan": "Tan", "abs": "Abs", "floor": "Floor",
				"ceil": "Ceil", "min": "Min", "max": "Max", "pow": "Pow",
				"mod": "Mod", "atan2": "Atan2",
			}[x.Name]
			g.useMath = true
			return "math." + fn + "(" + list + ")"
		case "sign":
			g.useSign = true
			return "za_sign(" + list + ")"
		}
		g.fail("gogen: unknown builtin %s", x.Name)
		return "0"
	}
	g.fail("gogen: unknown expression %T", e)
	return "0"
}

// b2f wraps a boolean condition into the 0/1 numeric model.
func (g *gen) b2f(cond string) string {
	g.useB2F = true
	return "za_b2f(" + cond + ")"
}
