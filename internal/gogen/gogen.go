// Package gogen is the native back end: it emits a scalarized program
// as a standalone Go source file whose output matches the VM's
// bit-for-bit. This is what a production array compiler would ship.
// A loop nest is emitted so that the Go compiler can do for it what the
// paper expects of a scalar back end: everything the innermost loop
// touches — contracted arrays, accumulators, scalars, base pointers —
// is a local of the nest's block, a reference is base + row offset +
// displacement, and what is fixed along a row is computed once per row
// (see the sweep type; DESIGN.md §13). On the bench harness's run cells
// the emitted loops cost ~2.0 ns per element-statement against the
// VM's 3–5, and emitted heat runs within 1.1× of a hand-fused Go kernel.
// A one-shot program (zplrun, zpld) pays a process spawn (~2.8 ms on
// the bench host) the VM does not. A program emitted with a StateSpec
// is a resident worker instead: the lazy runtime starts it once per
// cached compilation, and each run is a pipe round trip over state in
// a shared mapping (DESIGN.md §29). Running both engines closes the
// loop on code-generation correctness with the host toolchain as the
// final referee.
//
// Emitted programs are self-contained (standard library only) and make
// three guarantees the differential tests (internal/backend, make
// backend-diff) rely on:
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
// is conditional; fmt and os are always used by the main scaffold, time
// by a one-shot one and syscall by a worker's),
// so generated code compiles and vets clean with no blank-identifier
// hacks.
//
// Communication primitives are dropped: generated code is the
// sequential (single-processor) program, whose semantics the
// distributed interpreter already cross-validates.
package gogen

import (
	"bytes"
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

// StateFD is the descriptor at which a resident worker (a binary emitted
// with a non-nil StateSpec) finds its state mapping.
const StateFD = 3

// StateSpec declares, in order, which arrays and scalars live in a
// resident worker's state mapping. Each array contributes Alloc.Size()
// float64s (the full allocated slab including halo, row-major) and each
// scalar one float64, concatenated with no header: the mapping is
// exactly StateWords float64s, and a mapping of another size is a state
// error (exit code ExitTrap) before the worker serves. The caller owns
// the ordering; the emitter follows it verbatim, so the two halves of
// the protocol agree by construction.
//
// The worker maps the file at StateFD, points each spec array at its
// slab, and writes an empty reply frame: it is ready. Each byte it then
// reads on stdin is one run: it loads the spec scalars from the mapping,
// runs the program (under the trap scaffold unless every access is
// proven), stores the scalars back and replies with a frame of that
// run's writeln bytes — a 4-byte little-endian length, then the bytes.
// A trap ends the process with ExitTrap instead of a reply, and end of
// input ends it with 0. Keeping the state outside the source is what
// makes a lazy batch's generated source, and so its content-addressed
// artifact, the same across timesteps of an iterative solver.
type StateSpec struct {
	Arrays  []string
	Scalars []string
}

// StateWords is the size of the state mapping spec lays out over p, in
// float64s. It does not check the names; the emitter does.
func StateWords(p *lir.Program, spec *StateSpec) int {
	n := len(spec.Scalars)
	for _, a := range spec.Arrays {
		if info := p.Source.Arrays[a]; info != nil {
			n += info.Alloc.Size()
		}
	}
	return n
}

// Emit renders the program as a compilable Go main package with every
// array access bounds-checked (Go's implicit slice check plus the
// recover scaffold).
func Emit(p *lir.Program) (string, error) { return EmitBounds(p, nil) }

// EmitBounds renders the program using the bounds
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
// non-nil, as a resident worker instead of a one-shot program: main is
// the serve loop StateSpec describes, the spec arrays are slabs of the
// state mapping, and writeln collects each run's output for the reply.
// spec == nil emits byte-identical output to EmitBounds, so existing
// content-addressed artifacts keep their keys.
func EmitState(p *lir.Program, bounds *absint.Result, spec *StateSpec) (string, error) {
	g := &gen{p: p, bounds: bounds, spec: spec}
	var body bytes.Buffer
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

	allProven := bounds != nil && bounds.AllProven()
	// The serve loop renders before the import block is fixed (it may
	// need unsafe), like declarations below.
	serve, err := g.serveLoop(allProven)
	if err != nil {
		return "", err
	}

	// Declarations may themselves need math (an Inf/NaN initializer),
	// so they render to a side buffer before the import block is fixed.
	var decls strings.Builder
	g.declarations(&decls)

	var out strings.Builder
	out.Grow(body.Len() + decls.Len() + len(serve) + 2048)
	out.WriteString("// Code generated by gogen from program " + p.Name + ". DO NOT EDIT.\n")
	if bounds != nil {
		fmt.Fprintf(&out, "// bounds prover: %d/%d sites proven safe, fingerprint %s.\n",
			bounds.NumProven, len(bounds.Sites), bounds.Fingerprint())
		if allProven {
			out.WriteString("// all accesses proven: unchecked dispatch, no trap scaffold.\n")
		}
	}
	if g.spec != nil {
		fmt.Fprintf(&out, "// resident worker: state mapped from fd %d, one run per byte on stdin.\n", StateFD)
	}
	out.WriteString("package main\n\nimport (\n\t\"fmt\"\n")
	if g.useMath {
		out.WriteString("\t\"math\"\n")
	}
	out.WriteString("\t\"os\"\n")
	if g.spec != nil {
		out.WriteString("\t\"syscall\"\n")
	} else {
		out.WriteString("\t\"time\"\n")
	}
	if g.useUnsafe {
		out.WriteString("\t\"unsafe\"\n")
	}
	out.WriteString(")\n\n")
	out.WriteString(decls.String())
	if g.useSign {
		out.WriteString(helperSign)
	}
	if g.useMax {
		out.WriteString(helperMax)
	}
	if g.useMin {
		out.WriteString(helperMin)
	}
	if g.useB2F {
		out.WriteString(helperB2F)
	}
	if g.useWrap {
		out.WriteString(helperWrap)
	}
	out.Write(body.Bytes())
	switch {
	case g.spec != nil:
		out.WriteString(serve)
	case allProven:
		fmt.Fprintf(&out, mainScaffoldProven, TimeEnv, ElapsedPrefix)
	default:
		fmt.Fprintf(&out, mainScaffold, ExitTrap, TimeEnv, ElapsedPrefix)
	}
	return out.String(), nil
}

// serveLoop renders a resident worker's half of the protocol StateSpec
// describes — mapping the state, and the serve loop as main, which runs
// the program under the trap scaffold unless every access is proven —
// after checking that the spec names only allocated arrays and known
// scalars. With no spec it
// contributes nothing, keeping spec-less emission byte-identical to the
// historical output. The zaW_ prefix cannot collide with goName's "za_".
func (g *gen) serveLoop(allProven bool) (string, error) {
	if g.spec == nil {
		return "", nil
	}
	for _, n := range g.spec.Arrays {
		a := g.p.Source.Arrays[n]
		if a == nil {
			return "", fmt.Errorf("gogen: state spec names unknown array %s", n)
		}
		if a.Contracted {
			return "", fmt.Errorf("gogen: state spec names contracted array %s", n)
		}
	}
	for _, n := range g.spec.Scalars {
		if g.p.Source.Scalars[n] == nil {
			return "", fmt.Errorf("gogen: state spec names unknown scalar %s", n)
		}
	}
	words := StateWords(g.p, g.spec)

	var b strings.Builder
	b.WriteString("var zaW_state []float64\nvar zaW_out []byte\n\n")
	fmt.Fprintf(&b, "func zaW_fail(msg string) {\n\tfmt.Fprintln(os.Stderr, \"za state error:\", msg)\n\tos.Exit(%d)\n}\n\n", ExitTrap)
	fmt.Fprintf(&b, "func zaW_map() {\n\tvar st syscall.Stat_t\n\tif err := syscall.Fstat(%d, &st); err != nil {\n\t\tzaW_fail(err.Error())\n\t}\n", StateFD)
	fmt.Fprintf(&b, "\tif st.Size != %d {\n\t\tzaW_fail(fmt.Sprintf(\"state mapping is %%d bytes, want %d\", st.Size))\n\t}\n", 8*words, 8*words)
	if words > 0 {
		g.useUnsafe = true
		fmt.Fprintf(&b, "\tmem, err := syscall.Mmap(%d, 0, %d, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)\n", StateFD, 8*words)
		fmt.Fprintf(&b, "\tif err != nil {\n\t\tzaW_fail(err.Error())\n\t}\n\tzaW_state = unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), %d)\n", words)
	}
	at := 0
	for _, n := range g.spec.Arrays {
		end := at + g.p.Source.Arrays[n].Alloc.Size()
		fmt.Fprintf(&b, "\t%s = zaW_state[%d:%d:%d]\n", goName(n), at, end, end)
		at = end
	}
	b.WriteString("}\n\n")

	run := "za_main"
	if !allProven {
		run = "zaW_run"
		fmt.Fprintf(&b, "func zaW_run() {\n\tdefer func() {\n\t\tif r := recover(); r != nil {\n\t\t\tfmt.Fprintln(os.Stderr, \"za runtime error:\", r)\n\t\t\tos.Exit(%d)\n\t\t}\n\t}()\n\tza_main()\n}\n\n", ExitTrap)
	}
	b.WriteString(serveHead)
	for i, n := range g.spec.Scalars {
		fmt.Fprintf(&b, "\t\t%s = zaW_state[%d]\n", goName(n), at+i)
	}
	fmt.Fprintf(&b, "\t\t%s()\n", run)
	for i, n := range g.spec.Scalars {
		fmt.Fprintf(&b, "\t\tzaW_state[%d] = %s\n", at+i, goName(n))
	}
	b.WriteString("\t}\n}\n")
	return b.String(), nil
}

// serveHead opens a resident worker's main: reply with the frame of the
// last run's output (an empty one at start: ready), wait for the next
// command, and end on end of input.
const serveHead = `func main() {
	zaW_map()
	zaW_out = make([]byte, 4, 4096)
	var cmd [1]byte
	for {
		n := len(zaW_out) - 4
		zaW_out[0], zaW_out[1], zaW_out[2], zaW_out[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		if _, err := os.Stdout.Write(zaW_out); err != nil {
			return
		}
		if k, _ := os.Stdin.Read(cmd[:]); k == 0 {
			return
		}
		zaW_out = zaW_out[:4]
`

type gen struct {
	p      *lir.Program
	b      *bytes.Buffer
	bounds *absint.Result
	spec   *StateSpec
	ind    int
	err    error

	// Import/helper usage, discovered during emission.
	useMath   bool
	useSign   bool
	useMax    bool
	useMin    bool
	useB2F    bool
	useUnsafe bool
	useWrap   bool

	// sw is the loop nest being emitted, nil between nests, and inner
	// the side buffer its body renders into (one for the whole
	// emission); strides holds each array's row-major stride vector,
	// computed on its first reference.
	sw      *sweep
	inner   bytes.Buffer
	strides map[string][]int
}

func (g *gen) line(format string, args ...interface{}) {
	g.indent()
	fmt.Fprintf(g.b, format, args...)
	g.b.WriteByte('\n')
}

// text is line for parts that need no formatting.
func (g *gen) text(parts ...string) {
	g.indent()
	for _, p := range parts {
		g.b.WriteString(p)
	}
	g.b.WriteByte('\n')
}

func (g *gen) indent() {
	for i := 0; i < g.ind; i++ {
		g.b.WriteByte('\t')
	}
}

func (g *gen) fail(format string, args ...interface{}) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

// goName sanitizes a mangled ZA name into a Go identifier.
func goName(n string) string { return mangle("za_", n) }

// mangle is goName under another prefix: "zaP_" is the nest-local base
// pointer of an array with unchecked accesses and "zaA_" a reduction
// target's nest-local accumulator. Neither prefix — nor "zaO_" (row
// offsets), "zaH_" (hoisted expressions) and "zaS_" (the max and min
// helpers' out-of-line halves) — can collide with goName's "za_"
// namespace.
func mangle(prefix, n string) string {
	n = strings.ReplaceAll(n, ".", "_")
	n = strings.ReplaceAll(n, "$", "_")
	return prefix + n
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

// declarations emits array storage and scalar variables. Contracted
// arrays have no storage at all: each is a local of its one nest, and a
// resident worker's spec arrays are slabs of its state mapping.
func (g *gen) declarations(out *strings.Builder) {
	names := make([]string, 0, len(g.p.Source.Arrays))
	for n := range g.p.Source.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	mapped := map[string]bool{}
	if g.spec != nil {
		for _, n := range g.spec.Arrays {
			mapped[n] = true
		}
	}
	for _, n := range names {
		a := g.p.Source.Arrays[n]
		switch {
		case a.Contracted:
		case mapped[n]:
			fmt.Fprintf(out, "var %s []float64 // %s, mapped\n", goName(n), a.Alloc)
		default:
			fmt.Fprintf(out, "var %s = make([]float64, %d) // %s\n", goName(n), a.Alloc.Size(), a.Alloc)
		}
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

// helperMax and helperMin are the max and min builtins and the max/min
// reduction step: math.Max and math.Min bit for bit, small enough to
// inline into a nest, with the VM's rule (vm.fmax): b > a takes b,
// b <= a keeps a when a is not zero, and a NaN or a = ±0 goes to the
// out-of-line zaS_ half.
const helperMax = `func za_max(a, b float64) float64 {
	if b > a {
		return b
	}
	if b <= a && a != 0 {
		return a
	}
	return zaS_max(a, b)
}

//go:noinline
func zaS_max(a, b float64) float64 {
	return math.Max(a, b)
}

`

const helperMin = `func za_min(a, b float64) float64 {
	if b < a {
		return b
	}
	if b >= a && a != 0 {
		return a
	}
	return zaS_min(a, b)
}

//go:noinline
func zaS_min(a, b float64) float64 {
	return math.Min(a, b)
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
		g.line("%s = %s", goName(x.LHS), g.expr(x.RHS))
	case *lir.Loop:
		v := goName(x.Var)
		if x.Down {
			g.line("for %s = %s; %s >= %s; %s-- {", v, g.expr(x.Lo), v, g.expr(x.Hi), v)
		} else {
			g.line("for %s = %s; %s <= %s; %s++ {", v, g.expr(x.Lo), v, g.expr(x.Hi), v)
		}
		g.ind++
		g.nodes(x.Body, pr)
		g.ind--
		g.line("}")
	case *lir.While:
		g.line("for (%s) != 0 {", g.expr(x.Cond))
		g.ind++
		g.nodes(x.Body, pr)
		g.ind--
		g.line("}")
	case *lir.If:
		g.line("if (%s) != 0 {", g.expr(x.Cond))
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
			args[i] = g.expr(a)
		}
		g.line("%s(%s)", goName(x.Proc), strings.Join(args, ", "))
		if x.Target != "" {
			g.line("%s = %s", goName(x.Target), goName(x.Proc+".$result"))
		}
	case *lir.Return:
		if x.Value != nil {
			g.line("%s = %s", goName(pr.Name+".$result"), g.expr(x.Value))
		}
		g.line("return")
	case *lir.Writeln:
		var fmts []string
		var args []string
		for _, a := range x.Args {
			if a.Expr != nil {
				fmts = append(fmts, "%g")
				args = append(args, g.expr(a.Expr))
			} else {
				fmts = append(fmts, "%s")
				args = append(args, fmt.Sprintf("%q", a.Str))
			}
		}
		// A resident worker collects a run's output for its reply.
		switch {
		case g.spec != nil && len(args) == 0:
			g.line("zaW_out = append(zaW_out, '\\n')")
		case g.spec != nil:
			g.line("zaW_out = fmt.Appendf(zaW_out, %q, %s)", strings.Join(fmts, " ")+"\n", strings.Join(args, ", "))
		case len(args) == 0:
			g.line("fmt.Println()")
		default:
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

// sweep is the loop nest being emitted: a lir.Nest, or either half of a
// lir.PartialReduce. A nest is one block in which everything the
// innermost loop touches is a local that the Go compiler can keep in a
// register — a package-level variable is a load and a store at every
// use, because any store through an unsafe pointer may alias it:
//
//	{
//		var za_LAP float64                 // contracted array, preload register
//		var zaA__s1 float64 = 0            // reduction accumulator
//		za_dt := za_dt                     // scalar the body reads
//		zaP_T := unsafe.Pointer(&za_T[0])  // array with proven accesses (za_T := za_T: with checked ones)
//		for i1 := 2; i1 <= 511; i1++ {
//			zaO_0 := 512*i1                          // row offset
//			zaH_1 := math.Sin((0.1 * float64(i1)))   // fixed along the row
//			for i2 := 2; i2 <= 511; i2++ {
//				... *(*float64)(unsafe.Add(zaP_T, 8*(zaO_0+i2)-4104)) ...
//			}
//		}
//		za__s1 = zaA__s1
//	}
//
// Why each local is legal. A nest body is array statements only: it
// assigns array elements, contracted arrays, preload registers and
// reduction targets, never a plain scalar, so a scalar it reads is
// invariant and may be copied at entry. A contracted array is confined
// to one nest and written before it is read at the same index
// (Definition 6; internal/check's contraction pass audits it), so a var
// that starts at zero is the storage it needs; it is declared outside
// the loops, so a guarded read sees what the previous iteration left.
// A reduction target is written by its own statement only, so it
// accumulates in a local that is stored once after the loops — unless a
// statement of the nest reads the target, which then stays the
// package-level variable. A row offset is an int, not a pointer, so no
// pointer ever leaves its allocation (-d=checkptr runs clean). A hoisted
// expression is the same text evaluated on the same inputs, never
// re-associated; every builtin is pure and none traps, so evaluating it
// on a row where a guard then skips the statement changes nothing.
//
// The innermost loop may be any dimension, in either direction
// (Nest.Order): "row" above means the terms of every other index.
// A nest of rank three or more still hoists one level only.
//
// The body renders once, into a side buffer, and what it turns out to
// reference decides the declarations that are written ahead of it.
type sweep struct {
	idx   []string // index variable of each dimension
	inner int      // the dimension the innermost loop runs over

	// reads holds the names the body both assigns and reads — its
	// registers (contracted arrays, preloads) and any reduction target
	// a statement reads: the scalars that are not invariant. nest finds
	// them in one walk over the body before it renders.
	reads map[string]bool

	pre   []string          // declarations at the top of the block
	defs  []string          // row offsets and hoisted expressions, just outside the innermost loop
	post  []string          // accumulator stores after the loops
	names map[string]string // a declared name, or a definition's text, to its local
}

// loop is one level of a sweep: dimension dim from lo to hi, or from hi
// down to lo.
type loop struct {
	dim, lo, hi int
	down        bool
}

// loopsOf orders the dimensions of lo..hi by a loop structure vector
// (Nest.Order); nil is the row-major order of a partial reduction.
func loopsOf(lo, hi, order []int) []loop {
	ls := make([]loop, len(lo))
	for k := range ls {
		d := k + 1
		if order != nil {
			d = order[k]
		}
		ls[k].down = d < 0
		if d < 0 {
			d = -d
		}
		ls[k].dim, ls[k].lo, ls[k].hi = d-1, lo[d-1], hi[d-1]
	}
	return ls
}

// declare adds name's declaration — the parts, concatenated — to the
// top of the block unless it is there already, and reports whether it
// added it.
func (sw *sweep) declare(name string, parts ...string) bool {
	if _, ok := sw.names[name]; ok {
		return false
	}
	sw.names[name] = name
	sw.pre = append(sw.pre, strings.Join(parts, ""))
	return true
}

// define names a value that is fixed along the innermost loop — one
// local per distinct text — and returns the name.
func (sw *sweep) define(prefix, text string) string {
	name, ok := sw.names[text]
	if !ok {
		name = prefix + strconv.Itoa(len(sw.defs))
		sw.names[text] = name
		sw.defs = append(sw.defs, name+" := "+text)
	}
	return name
}

// sweep emits the block of one loop nest around the statements body
// renders (see the sweep type).
func (g *gen) sweep(idx []string, reads map[string]bool, loops []loop, body func()) {
	sw := &sweep{idx: idx, inner: loops[len(loops)-1].dim, reads: reads, names: map[string]string{}}
	out, depth := g.b, len(loops)+1
	g.inner.Reset()
	g.b, g.sw, g.ind = &g.inner, sw, g.ind+depth
	body()
	g.b, g.sw, g.ind = out, nil, g.ind-depth

	g.line("{")
	g.ind++
	g.lines(sw.pre)
	for k, l := range loops {
		if k == len(loops)-1 {
			g.lines(sw.defs)
		}
		v := sw.idx[l.dim]
		if l.down {
			g.line("for %s := %d; %s >= %d; %s-- {", v, l.hi, v, l.lo, v)
		} else {
			g.line("for %s := %d; %s <= %d; %s++ {", v, l.lo, v, l.hi, v)
		}
		g.ind++
	}
	g.b.Write(g.inner.Bytes())
	for range loops {
		g.ind--
		g.line("}")
	}
	g.lines(sw.post)
	g.ind--
	g.line("}")
}

func (g *gen) lines(ls []string) {
	for _, l := range ls {
		g.text(l)
	}
}

// reduceStep emits one accumulation statement dst op= rhs.
func (g *gen) reduceStep(dst string, op air.ReduceOp, rhs string) {
	switch op {
	case air.ReduceSum:
		g.text(dst, " += ", rhs)
	case air.ReduceProd:
		g.text(dst, " *= ", rhs)
	case air.ReduceMax:
		g.text(dst, " = ", g.minMax("max", dst+", "+rhs))
	case air.ReduceMin:
		g.text(dst, " = ", g.minMax("min", dst+", "+rhs))
	default:
		g.fail("gogen: unknown reduce op %v", op)
	}
}

// partialReduce emits a dimensional reduction as two sweeps:
// identity-fill the destination slab, then sweep the source
// accumulating into the projected element.
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
	g.sweep(idx, nil, loopsOf(x.Dest.Lo, x.Dest.Hi, nil), func() {
		g.line("%s = %s", g.indexed(x.LHS, air.Zero(rank), idx, site), g.identity(x.Op))
	})
	// A collapsed dimension is pinned at the destination's one index.
	proj := make([]string, rank)
	for k := 0; k < rank; k++ {
		if x.Dest.Extent(k) == 1 && x.Region.Extent(k) != 1 {
			proj[k] = strconv.Itoa(x.Dest.Lo[k])
		} else {
			proj[k] = idx[k]
		}
	}
	g.sweep(idx, nil, loopsOf(x.Region.Lo, x.Region.Hi, nil), func() {
		g.reduceStep(g.indexed(x.LHS, air.Zero(rank), proj, site), x.Op, g.expr(x.Body))
	})
}

func (g *gen) nest(n *lir.Nest) {
	// One walk before anything renders: which of the names the body
	// assigns — registers and reduction targets — does it also read?
	assigned, reads := map[string]bool{}, map[string]bool{}
	for _, pl := range n.Preloads {
		assigned[pl.Var] = true
	}
	for _, s := range n.Body {
		if s.Contracted {
			assigned[s.LHS] = true
		} else if s.IsReduce {
			assigned[s.Target] = true
		}
	}
	if len(assigned) > 0 {
		note := func(e air.Expr) {
			switch x := e.(type) {
			case *air.ScalarExpr:
				if assigned[x.Name] {
					reads[x.Name] = true
				}
			case *air.RefExpr:
				if assigned[x.Ref.Array] {
					reads[x.Ref.Array] = true
				}
			}
		}
		for _, s := range n.Body {
			air.Walk(s.RHS, note)
		}
	}
	idx := idxSlice(n.Region.Rank())
	g.sweep(idx, reads, loopsOf(n.Region.Lo, n.Region.Hi, n.Order), func() {
		for i, pl := range n.Preloads {
			var site *absint.Site
			if g.bounds != nil {
				site = g.bounds.PreloadSite(n, i)
			}
			g.assign(pl.Var, g.indexed(pl.Array, pl.Off, idx, site))
		}
		for _, s := range n.Body {
			g.stmt(n, s)
		}
	})
}

// stmt emits one statement of a nest body under its guard.
func (g *gen) stmt(n *lir.Nest, s *lir.NestStmt) {
	sw := g.sw
	var conds []string
	if s.Guard != nil {
		for d, v := range sw.idx {
			if s.Guard.Lo[d] != n.Region.Lo[d] || s.Guard.Hi[d] != n.Region.Hi[d] {
				conds = append(conds, fmt.Sprintf("%d <= %s && %s <= %d", s.Guard.Lo[d], v, v, s.Guard.Hi[d]))
			}
		}
	}
	if len(conds) > 0 {
		g.line("if %s {", strings.Join(conds, " && "))
		g.ind++
	}
	rhs := g.expr(s.RHS)
	switch {
	case s.IsReduce && sw.reads[s.Target]:
		// Some statement reads the running value: it stays in memory.
		dst := goName(s.Target)
		sw.declare(dst, dst, " = ", g.identity(s.Op))
		g.reduceStep(dst, s.Op, rhs)
	case s.IsReduce:
		acc := mangle("zaA_", s.Target)
		if sw.declare(acc, "var ", acc, " float64 = ", g.identity(s.Op)) {
			sw.post = append(sw.post, goName(s.Target)+" = "+acc)
		}
		g.reduceStep(acc, s.Op, rhs)
	case s.Contracted:
		g.assign(s.LHS, rhs)
	default:
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.Store(s)
		}
		g.text(g.indexed(s.LHS, air.Zero(len(sw.idx)), sw.idx, site), " = ", rhs)
	}
	if len(conds) > 0 {
		g.ind--
		g.line("}")
	}
}

// assign emits reg = rhs for a contracted array or a preload register.
// One that nothing reads is not declared (Go rejects an unused local):
// its value is evaluated, for the checks its reads carry, and dropped.
func (g *gen) assign(reg, rhs string) {
	if !g.sw.reads[reg] {
		g.text("_ = ", rhs)
		return
	}
	v := goName(reg)
	g.sw.declare(v, "var ", v, " float64")
	g.text(v, " = ", rhs)
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

// indexed renders one array element access against alloc bounds; idx
// gives each dimension's index, a loop variable or (the pinned
// dimension of a partial reduction) a constant. The flat position is
// the sweep's row offset for the terms of the outer dimensions, plus
// the innermost term, plus a constant displacement. The checked form
// indexes the slice (Go's implicit check); a ProvenSafe site instead
// renders as raw pointer arithmetic with no check, and a Faulted site
// renders with its access displaced by the injected evidence shift
// (wrapped into the storage).
func (g *gen) indexed(name string, off air.Offset, idx []string, site *absint.Site) string {
	a, sw := g.p.Source.Arrays[name], g.sw
	if a == nil {
		g.fail("gogen: unknown array %s", name)
		return "zaBAD"
	}
	strides := g.strides[name]
	if strides == nil {
		strides = make([]int, a.Alloc.Rank())
		s := 1
		for k := len(strides) - 1; k >= 0; k-- {
			strides[k] = s
			s *= a.Alloc.Extent(k)
		}
		if g.strides == nil {
			g.strides = map[string][]int{}
		}
		g.strides[name] = strides
	}
	var row, at string
	base := 0
	for k, stride := range strides {
		base += (off[k] - a.Alloc.Lo[k]) * stride
		term := idx[k]
		if stride != 1 {
			term = strconv.Itoa(stride) + "*" + term
		}
		switch {
		case k == sw.inner:
			at = term
		case row == "":
			row = term
		default:
			row += "+" + term
		}
	}
	if row != "" {
		row = sw.define("zaO_", row)
		if at != "" {
			row += "+"
		}
		at = row + at
	}
	size := a.Alloc.Size()
	v := goName(name)
	proven := site != nil && site.Verdict == absint.ProvenSafe && size > 0
	if proven && site.FaultShift == 0 {
		// The displacement stays outside the scaled index: base +
		// 8*register + constant is one addressing mode.
		g.useUnsafe = true
		p := mangle("zaP_", name)
		sw.declare(p, p, " := unsafe.Pointer(&", v, "[0])")
		return "*(*float64)(unsafe.Add(" + p + ", 8*(" + at + ")" + signed(8*base) + "))"
	}
	sw.declare(v, v, " := ", v)
	if proven {
		g.useWrap = true
		return v + "[za_wrap(" + at + signed(base+site.FaultShift) + ", " + strconv.Itoa(size) + ")]"
	}
	return v + "[" + at + signed(base) + "]"
}

// signed renders a constant term of a sum: "+n", "-n", nothing for 0.
func signed(n int) string {
	switch {
	case n > 0:
		return "+" + strconv.Itoa(n)
	case n < 0:
		return strconv.Itoa(n)
	}
	return ""
}

// mathFuncs maps the builtins that are calls into package math.
var mathFuncs = map[string]string{
	"sqrt": "Sqrt", "exp": "Exp", "log": "Log", "sin": "Sin",
	"cos": "Cos", "tan": "Tan", "abs": "Abs", "floor": "Floor",
	"ceil": "Ceil", "pow": "Pow", "mod": "Mod", "atan2": "Atan2",
}

// minMax renders a call of za_max or za_min, the max and min builtins
// and the max/min reduction step, and marks the helper used.
func (g *gen) minMax(name, args string) string {
	g.useMath = true
	if name == "max" {
		g.useMax = true
	} else {
		g.useMin = true
	}
	return "za_" + name + "(" + args + ")"
}

// expr renders an expression. Inside a sweep its maximal subexpressions
// that are fixed along the innermost loop — no array reference, no
// register the body assigns, no innermost index — become locals defined
// once per iteration of the loop outside it.
func (g *gen) expr(e air.Expr) string {
	text, fixed := g.render(e)
	return g.hoist(e, text, fixed)
}

// hoist replaces a fixed subexpression's text with the local that holds
// it. Constants and scalars are left where they are: they already cost
// nothing per element.
func (g *gen) hoist(e air.Expr, text string, fixed bool) string {
	if !fixed || g.sw == nil {
		return text
	}
	switch e.(type) {
	case *air.ConstExpr, *air.ScalarExpr:
		return text
	}
	return g.sw.define("zaH_", text)
}

// render returns e's Go text and whether its value is fixed along the
// innermost loop (always, outside a sweep). An operator whose operands
// are not all fixed is not fixed either, so each operand that is fixed
// is maximal and is hoisted there.
func (g *gen) render(e air.Expr) (string, bool) {
	sw := g.sw
	switch x := e.(type) {
	case *air.ConstExpr:
		if x.Val == float64(int64(x.Val)) {
			return "float64(" + strconv.FormatInt(int64(x.Val), 10) + ")", true
		}
		return g.floatLit(x.Val), true
	case *air.ScalarExpr:
		v := goName(x.Name)
		if sw != nil {
			if sw.reads[x.Name] {
				return v, false
			}
			sw.declare(v, v, " := ", v)
		}
		return v, true
	case *air.IndexExpr:
		if sw == nil || x.Dim-1 >= len(sw.idx) {
			g.fail("gogen: index%d outside a nest", x.Dim)
			return "0", true
		}
		return "float64(" + sw.idx[x.Dim-1] + ")", x.Dim-1 != sw.inner
	case *air.RefExpr:
		if sw == nil {
			g.fail("gogen: reference to %s outside a nest", x.Ref.Array)
			return "0", true
		}
		if info := g.p.Source.Arrays[x.Ref.Array]; info != nil && info.Contracted {
			v := goName(x.Ref.Array)
			sw.declare(v, "var ", v, " float64")
			return v, false
		}
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.Read(x)
		}
		return g.indexed(x.Ref.Array, x.Ref.Off, sw.idx, site), false
	case *air.BinExpr:
		a, afixed := g.render(x.X)
		b, bfixed := g.render(x.Y)
		if afixed != bfixed {
			a, b = g.hoist(x.X, a, afixed), g.hoist(x.Y, b, bfixed)
		}
		return g.binary(x.Op, a, b), afixed && bfixed
	case *air.UnExpr:
		a, fixed := g.render(x.X)
		if x.Op == air.OpNot {
			return g.b2f("(" + a + ") == 0"), fixed
		}
		return "(-" + a + ")", fixed
	case *air.CallExpr:
		args, fixed := make([]string, len(x.Args)), make([]bool, len(x.Args))
		all := true
		for i, a := range x.Args {
			args[i], fixed[i] = g.render(a)
			all = all && fixed[i]
		}
		if !all {
			for i, a := range x.Args {
				args[i] = g.hoist(a, args[i], fixed[i])
			}
		}
		list := strings.Join(args, ", ")
		if fn, ok := mathFuncs[x.Name]; ok {
			g.useMath = true
			return "math." + fn + "(" + list + ")", all
		}
		switch x.Name {
		case "sign":
			g.useSign = true
			return "za_sign(" + list + ")", all
		case "max", "min":
			return g.minMax(x.Name, list), all
		}
		g.fail("gogen: unknown builtin %s", x.Name)
		return "0", true
	}
	g.fail("gogen: unknown expression %T", e)
	return "0", true
}

// binary renders one binary operator over rendered operands.
func (g *gen) binary(op air.Op, a, b string) string {
	switch op {
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
	g.fail("gogen: unknown operator %v", op)
	return "0"
}

// b2f wraps a boolean condition into the 0/1 numeric model.
func (g *gen) b2f(cond string) string {
	g.useB2F = true
	return "za_b2f(" + cond + ")"
}
