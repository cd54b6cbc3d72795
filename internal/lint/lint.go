// Package lint is the source-level analysis engine behind zpllint: a
// set of rule passes over the AST, the semantic tables, the lowered
// AIR, and the optimizer's remarks, each producing findings with
// source positions, severities, and — where the blocker is a single
// reference the user can change — fix-it notes.
//
// The linter deliberately reuses the compiler's own analyses (sema,
// liveness, the fusion/contraction remarks) instead of re-deriving
// approximations: a finding like "this temporary would contract but
// for one offset read" is backed by the same Definition 6 diagnosis
// that decided the transformation.
package lint

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/liveness"
	"repro/internal/mhp"
	"repro/internal/remark"
	"repro/internal/scalarize"
	"repro/internal/sema"
	"repro/internal/source"
)

// Severity of a finding, ordered from most to least severe.
type Severity string

// Severities.
const (
	SevError   Severity = "error"
	SevWarning Severity = "warning"
	SevNote    Severity = "note"
)

// Rule identifiers.
const (
	RuleUnusedArray    = "unused-array"
	RuleWriteOnlyArray = "write-only-array"
	RuleDeadStmt       = "dead-stmt"
	RuleWouldContract  = "would-contract"
	RuleRedundantRegn  = "redundant-region"
	RuleUnusedRegion   = "unused-region"
	RuleOutOfRegion    = "out-of-region-read"
	RuleShadowedDecl   = "shadowed-decl"
	RuleProvenBounds   = "proven-bounds"
	RuleUnprovenBounds = "unproven-bounds"
	RuleUnsafeBounds   = "unsafe-bounds"
	RuleOrderedComm    = "proven-ordered-comm"
	RuleUnprovenOrder  = "unproven-ordering"
	RuleDataRace       = "data-race"
	RuleCommDeadlock   = "comm-deadlock"
)

// Rules describes every rule for tool metadata (SARIF rule objects).
var Rules = []struct {
	ID, Summary string
	Default     Severity
}{
	{RuleUnusedArray, "array is declared but never referenced", SevWarning},
	{RuleWriteOnlyArray, "array is written but its values are never read", SevWarning},
	{RuleDeadStmt, "the statement's writes are overwritten before any read", SevWarning},
	{RuleWouldContract, "temporary would contract but for a single offending reference", SevNote},
	{RuleRedundantRegn, "region declaration duplicates another region's bounds", SevNote},
	{RuleUnusedRegion, "region is declared but never used", SevNote},
	{RuleOutOfRegion, "@-offset read falls outside the array's declared region", SevWarning},
	{RuleShadowedDecl, "local declaration shadows a global of the same name", SevNote},
	{RuleProvenBounds, "array access is proven in bounds; its runtime check is eliminated", SevNote},
	{RuleUnprovenBounds, "array access cannot be proven in bounds; a runtime check remains", SevWarning},
	{RuleUnsafeBounds, "array access is proven out-of-bounds for every execution", SevError},
	{RuleOrderedComm, "conflicting cross-processor accesses are happens-before ordered", SevNote},
	{RuleUnprovenOrder, "conflicting cross-processor accesses could not be proven ordered", SevWarning},
	{RuleDataRace, "conflicting cross-processor accesses may happen in parallel", SevError},
	{RuleCommDeadlock, "the communication schedule can block forever", SevError},
}

// Finding is one lint diagnostic.
type Finding struct {
	Rule     string     `json:"rule"`
	Severity Severity   `json:"severity"`
	File     string     `json:"file"`
	Pos      source.Pos `json:"pos"`
	Message  string     `json:"message"`
	Fixit    string     `json:"fixit,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%s: %s: %s [%s]", f.File, f.Pos, f.Severity, f.Message, f.Rule)
	if f.Fixit != "" {
		s += "\n\tfix-it: " + f.Fixit
	}
	return s
}

// Options configures a lint run.
type Options struct {
	// File names the source in findings; "<input>" when empty.
	File string
	// Level is the strategy whose remarks back the remark-derived
	// rules (would-contract). Defaults to Baseline; c2+f3 sees the
	// most contraction attempts.
	Level core.Level
	// Configs overrides config constants (problem size).
	Configs map[string]int64
	// BoundsNotes emits one proven-bounds note per access the abstract
	// interpreter proves safe (the per-site evidence). Unproven and
	// proven-unsafe accesses are always reported; the proven notes are
	// opt-in so clean programs stay finding-free by default.
	BoundsNotes bool
	// Procs, when > 1, lints the distributed compilation: communication
	// is inserted for that many processors and the happens-before
	// analyzer (internal/mhp) classifies every conflicting
	// cross-processor access pair. Races and deadlocks are errors,
	// unproven orderings warn.
	Procs int
	// RaceNotes emits one proven-ordered-comm note per conflicting pair
	// the analyzer orders, carrying the happens-before chain as
	// evidence (why each exchange is ordered). Opt-in like BoundsNotes.
	RaceNotes bool
}

// Result is a lint run's output.
type Result struct {
	Findings []Finding
	// Remarks are the optimizer's decisions at opt.Level, for callers
	// that also display or encode them (-remarks).
	Remarks []remark.Remark
	// Bounds is the bounds prover's result at opt.Level, for
	// callers that summarize the prover (proven/unknown/unsafe counts).
	Bounds *absint.Result
	// Races is the happens-before analysis of the distributed comm
	// schedule; nil unless opt.Procs > 1.
	Races *mhp.Result
}

// MaxSeverity returns the most severe finding level, or "" when clean.
func (r *Result) MaxSeverity() Severity {
	max := Severity("")
	rank := map[Severity]int{SevNote: 1, SevWarning: 2, SevError: 3}
	for _, f := range r.Findings {
		if rank[f.Severity] > rank[max] {
			max = f.Severity
		}
	}
	return max
}

// Run lints one ZA source file. A returned error is a compile error
// (parse/sema/lower); findings never make Run fail.
func Run(src string, opt Options) (*Result, error) {
	if opt.File == "" {
		opt.File = "<input>"
	}
	airProg, info, err := driver.FrontEnd(context.TODO(), src, opt.Configs, driver.Hooks{})
	if err != nil {
		return nil, err
	}
	co := comm.DefaultOptions(opt.Procs)
	_, cfg := driver.Distribute(airProg, &co, driver.Hooks{})
	plan := core.ApplyEx(airProg, opt.Level, cfg)
	lirProg, err := scalarize.Scalarize(airProg, plan)
	if err != nil {
		return nil, err
	}
	bounds := absint.Analyze(lirProg)
	var races *mhp.Result
	if opt.Procs > 1 {
		races = mhp.Analyze(mhp.BuildSchedule(lirProg, opt.Procs))
	}

	res := &Result{Remarks: plan.Remarks(), Bounds: bounds, Races: races}
	var fs []Finding
	fs = append(fs, arrayUsage(info)...)
	fs = append(fs, regionRules(info)...)
	fs = append(fs, shadowedDecls(info)...)
	fs = append(fs, outOfRegionReads(info)...)
	fs = append(fs, deadStmts(airProg)...)
	fs = append(fs, wouldContract(res.Remarks)...)
	fs = append(fs, boundsFindings(bounds, opt.BoundsNotes)...)
	fs = append(fs, raceFindings(races, opt.RaceNotes)...)
	for i := range fs {
		fs[i].File = opt.File
	}
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Pos != fs[j].Pos {
			return fs[i].Pos.Before(fs[j].Pos)
		}
		return fs[i].Rule < fs[j].Rule
	})
	res.Findings = fs
	return res, nil
}

// walkStmts visits every statement in the list, recursing into scalar
// control flow.
func walkStmts(stmts []ast.Stmt, fn func(ast.Stmt)) {
	for _, s := range stmts {
		fn(s)
		switch x := s.(type) {
		case *ast.IfStmt:
			walkStmts(x.Then, fn)
			walkStmts(x.Else, fn)
		case *ast.ForStmt:
			walkStmts(x.Body, fn)
		case *ast.WhileStmt:
			walkStmts(x.Body, fn)
		}
	}
}

// walkExprs visits every expression of a statement (RHS, conditions,
// bounds, arguments).
func walkExprs(s ast.Stmt, fn func(ast.Expr) bool) {
	walk := func(e ast.Expr) {
		if e != nil {
			ast.Walk(e, fn)
		}
	}
	switch x := s.(type) {
	case *ast.ArrayAssign:
		walk(x.RHS)
	case *ast.ScalarAssign:
		walk(x.RHS)
	case *ast.IfStmt:
		walk(x.Cond)
	case *ast.ForStmt:
		walk(x.Lo)
		walk(x.Hi)
	case *ast.WhileStmt:
		walk(x.Cond)
	case *ast.CallStmt:
		walk(x.Call)
	case *ast.ReturnStmt:
		walk(x.Value)
	case *ast.WritelnStmt:
		for _, a := range x.Args {
			walk(a)
		}
	}
}

// arrayKey resolves name in proc to its info.Arrays key, or "".
func arrayKey(info *sema.Info, proc, name string) string {
	if _, ok := info.Arrays[proc+"."+name]; ok {
		return proc + "." + name
	}
	if _, ok := info.Arrays["."+name]; ok {
		return "." + name
	}
	return ""
}

// arrayUsage reports unused-array and write-only-array: usage is
// counted per declared array across every procedure, with locals
// shadowing globals exactly as in sema.
func arrayUsage(info *sema.Info) []Finding {
	reads := map[string]int{}
	writes := map[string]int{}
	for _, p := range info.Program.Procs {
		walkStmts(p.Body, func(s ast.Stmt) {
			if aa, ok := s.(*ast.ArrayAssign); ok {
				if k := arrayKey(info, p.Name, aa.LHS); k != "" {
					writes[k]++
				}
			}
			walkExprs(s, func(e ast.Expr) bool {
				switch x := e.(type) {
				case *ast.Ident:
					if t, ok := info.ExprType[e]; ok && t.IsArray {
						if k := arrayKey(info, p.Name, x.Name); k != "" {
							reads[k]++
						}
					}
				case *ast.AtExpr:
					if k := arrayKey(info, p.Name, x.Array); k != "" {
						reads[k]++
					}
				}
				return true
			})
		})
	}

	var out []Finding
	eachArrayDecl(info.Program, func(proc, name string, pos source.Pos) {
		key := "." + name
		if proc != "" {
			key = proc + "." + name
		}
		if _, ok := info.Arrays[key]; !ok {
			return // declaration did not survive sema
		}
		switch {
		case reads[key] == 0 && writes[key] == 0:
			out = append(out, Finding{Rule: RuleUnusedArray, Severity: SevWarning, Pos: pos,
				Message: fmt.Sprintf("array %s is declared but never referenced", name)})
		case reads[key] == 0:
			out = append(out, Finding{Rule: RuleWriteOnlyArray, Severity: SevWarning, Pos: pos,
				Message: fmt.Sprintf("array %s is written %d time(s) but its values are never read", name, writes[key])})
		}
	})
	return out
}

// eachArrayDecl visits every array variable declaration with its
// owning procedure ("" for globals) and source position.
func eachArrayDecl(prog *ast.Program, fn func(proc, name string, pos source.Pos)) {
	visit := func(proc string, vd *ast.VarDecl) {
		if vd.Region == nil {
			return // scalar
		}
		for _, n := range vd.Names {
			fn(proc, n, vd.Pos())
		}
	}
	for _, d := range prog.Decls {
		if vd, ok := d.(*ast.VarDecl); ok {
			visit("", vd)
		}
	}
	for _, p := range prog.Procs {
		for _, vd := range p.Locals {
			visit(p.Name, vd)
		}
	}
}

// regionRules reports redundant-region (two named regions with the
// same concrete bounds; sema already rejects duplicate names, so
// aliasing bounds is the remaining redundancy) and unused-region.
func regionRules(info *sema.Info) []Finding {
	var decls []*ast.RegionDecl
	for _, d := range info.Program.Decls {
		if rd, ok := d.(*ast.RegionDecl); ok {
			if _, known := info.Regions[rd.Name]; known {
				decls = append(decls, rd)
			}
		}
	}

	used := map[string]bool{}
	useRegion := func(re *ast.RegionExpr) {
		if re != nil && re.Name != "" {
			used[re.Name] = true
		}
	}
	for _, d := range info.Program.Decls {
		if vd, ok := d.(*ast.VarDecl); ok {
			useRegion(vd.Region)
		}
	}
	for _, p := range info.Program.Procs {
		for _, vd := range p.Locals {
			useRegion(vd.Region)
		}
		walkStmts(p.Body, func(s ast.Stmt) {
			if aa, ok := s.(*ast.ArrayAssign); ok {
				useRegion(aa.Region)
			}
			walkExprs(s, func(e ast.Expr) bool {
				if rx, ok := e.(*ast.ReduceExpr); ok {
					useRegion(rx.Region)
				}
				return true
			})
		})
	}

	var out []Finding
	for i, rd := range decls {
		if !used[rd.Name] {
			out = append(out, Finding{Rule: RuleUnusedRegion, Severity: SevNote, Pos: rd.Pos(),
				Message: fmt.Sprintf("region %s is declared but never used", rd.Name)})
		}
		for j := 0; j < i; j++ {
			if info.Regions[rd.Name].Equal(info.Regions[decls[j].Name]) {
				out = append(out, Finding{Rule: RuleRedundantRegn, Severity: SevNote, Pos: rd.Pos(),
					Message: fmt.Sprintf("region %s has the same bounds %s as region %s (declared at %s)",
						rd.Name, info.Regions[rd.Name], decls[j].Name, decls[j].Pos()),
					Fixit: fmt.Sprintf("use region %s and delete %s", decls[j].Name, rd.Name)})
				break
			}
		}
	}
	return out
}

// shadowedDecls reports proc-local arrays and scalars that shadow a
// global of the same name.
func shadowedDecls(info *sema.Info) []Finding {
	var out []Finding
	for _, p := range info.Program.Procs {
		for _, vd := range p.Locals {
			for _, n := range vd.Names {
				_, localArr := info.Arrays[p.Name+"."+n]
				_, localSc := info.Scalars[p.Name+"."+n]
				if !localArr && !localSc {
					continue
				}
				_, globalArr := info.Arrays["."+n]
				_, globalSc := info.Scalars["."+n]
				if globalArr || globalSc {
					out = append(out, Finding{Rule: RuleShadowedDecl, Severity: SevNote, Pos: vd.Pos(),
						Message: fmt.Sprintf("local %s in proc %s shadows the global declaration of %s", n, p.Name, n)})
				}
			}
		}
	}
	return out
}

// outOfRegionReads reports @-offset reads whose shifted statement
// region escapes the array's declared region. Such reads are legal —
// the allocator widens arrays to cover halos — but they observe
// border elements no statement ever wrote (implicitly zero), which is
// a frequent source of silently wrong stencils.
func outOfRegionReads(info *sema.Info) []Finding {
	var out []Finding
	check := func(proc string, reg *sema.Region, e ast.Expr) {
		at, ok := e.(*ast.AtExpr)
		if !ok || reg == nil {
			return
		}
		a := info.LookupArray(proc, at.Array)
		offs := info.ConstOffsets(at)
		if a == nil || offs == nil || a.Region.Rank() != reg.Rank() || len(offs) != reg.Rank() {
			return
		}
		for i := 0; i < reg.Rank(); i++ {
			lo, hi := reg.Lo[i]+offs[i], reg.Hi[i]+offs[i]
			if lo < a.Region.Lo[i] || hi > a.Region.Hi[i] {
				out = append(out, Finding{Rule: RuleOutOfRegion, Severity: SevWarning, Pos: at.Pos(),
					Message: fmt.Sprintf("%s@%s over %s reads indices %d..%d along dimension %d, outside %s's declared region %s; the out-of-region elements are never written (implicitly zero)",
						at.Array, air.Offset(offs), reg, lo, hi, i+1, at.Array, a.Region)})
				return
			}
		}
	}
	for _, p := range info.Program.Procs {
		walkStmts(p.Body, func(s ast.Stmt) {
			aa, isArr := s.(*ast.ArrayAssign)
			var reg *sema.Region
			if isArr {
				reg = info.StmtRegion[aa]
				walkExprs(s, func(e ast.Expr) bool {
					if rx, ok := e.(*ast.ReduceExpr); ok {
						// reductions carry their own region
						rreg := info.ReduceRegion[rx]
						ast.Walk(rx.Body, func(be ast.Expr) bool {
							check(p.Name, rreg, be)
							return true
						})
						return false
					}
					check(p.Name, reg, e)
					return true
				})
				return
			}
			walkExprs(s, func(e ast.Expr) bool {
				if rx, ok := e.(*ast.ReduceExpr); ok {
					rreg := info.ReduceRegion[rx]
					ast.Walk(rx.Body, func(be ast.Expr) bool {
						check(p.Name, rreg, be)
						return true
					})
					return false
				}
				return true
			})
		})
	}
	return out
}

// deadStmts reports array statements whose written values are
// overwritten before any read. The rule is sound, not complete: it
// only examines user arrays whose live range liveness proves confined
// to one block with covered reads (so no value escapes the block or
// flows between its executions), and within such a block flags a
// write that a later write fully covers with no overlapping read in
// between and no overlapping read after it.
func deadStmts(prog *air.Program) []Finding {
	_, verdicts := liveness.Explain(prog)
	confined := map[string]*air.Block{}
	for _, v := range verdicts {
		if v.Candidate {
			confined[v.Array] = v.Block
		}
	}

	var out []Finding
	for _, b := range prog.AllBlocks() {
		// Arrays with no reads at all are write-only-array findings;
		// flagging each write as dead would be noise.
		readsIn := map[string]int{}
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *air.ArrayStmt:
				for _, r := range x.Reads() {
					readsIn[r.Array]++
				}
			case *air.ReduceStmt:
				for _, r := range air.Refs(x.Body) {
					readsIn[r.Array]++
				}
			case *air.PartialReduceStmt:
				for _, r := range air.Refs(x.Body) {
					readsIn[r.Array]++
				}
			}
		}
		for i, s := range b.Stmts {
			w, ok := s.(*air.ArrayStmt)
			if !ok {
				continue
			}
			a := prog.Arrays[w.LHS]
			if a == nil || a.Temp || confined[w.LHS] != b || readsIn[w.LHS] == 0 {
				continue
			}
			dead := deadAfter(b.Stmts[i+1:], w)
			if dead {
				out = append(out, Finding{Rule: RuleDeadStmt, Severity: SevWarning, Pos: w.Pos,
					Message: fmt.Sprintf("the write to %s over %s is overwritten before any read (dead statement)", w.LHS, w.Region)})
			}
		}
	}
	return out
}

// deadAfter reports whether the write w is killed by the remaining
// statements: a covering write to the same array occurs before any
// read overlapping w's written rectangle.
func deadAfter(rest []air.Stmt, w *air.ArrayStmt) bool {
	overlapsW := func(reg *sema.Region, off air.Offset) bool {
		for i := 0; i < reg.Rank() && i < w.Region.Rank(); i++ {
			d := 0
			if off != nil {
				d = off[i]
			}
			lo, hi := reg.Lo[i]+d, reg.Hi[i]+d
			if hi < w.Region.Lo[i] || lo > w.Region.Hi[i] {
				return false
			}
		}
		return true
	}
	covers := func(reg *sema.Region) bool {
		if reg.Rank() != w.Region.Rank() {
			return false
		}
		for i := range reg.Lo {
			if reg.Lo[i] > w.Region.Lo[i] || reg.Hi[i] < w.Region.Hi[i] {
				return false
			}
		}
		return true
	}
	readsHit := func(region *sema.Region, refs []air.Ref) bool {
		for _, r := range refs {
			if r.Array == w.LHS && overlapsW(region, r.Off) {
				return true
			}
		}
		return false
	}
	for _, s := range rest {
		switch x := s.(type) {
		case *air.ArrayStmt:
			if readsHit(x.Region, x.Reads()) {
				return false
			}
			if x.LHS == w.LHS && covers(x.Region) {
				return true
			}
		case *air.ReduceStmt:
			if readsHit(x.Region, air.Refs(x.Body)) {
				return false
			}
		case *air.PartialReduceStmt:
			if readsHit(x.Region, air.Refs(x.Body)) {
				return false
			}
		case *air.CommStmt:
			if x.Array == w.LHS {
				return false
			}
		}
	}
	// Block ends without any read: the liveness verdict proved the
	// array never escapes this block, so the value dies unread.
	return true
}

// boundsFindings surfaces the bounds prover's per-site verdicts: an
// unproven access warns (the runtime check it keeps is the cost), a
// proven-unsafe access is an error (it faults on every execution), and
// — when notes is set — each proven access carries a note with the
// evidence that eliminated its check.
func boundsFindings(r *absint.Result, notes bool) []Finding {
	var out []Finding
	for _, s := range r.Sites {
		rw := "read"
		if s.Write {
			rw = "write"
		}
		switch s.Verdict {
		case absint.ProvenSafe:
			if notes {
				out = append(out, Finding{Rule: RuleProvenBounds, Severity: SevNote, Pos: s.Pos,
					Message: fmt.Sprintf("%s of %s proven in bounds, check eliminated: %s", rw, s.Array, s.Reason())})
			}
		case absint.Unknown:
			out = append(out, Finding{Rule: RuleUnprovenBounds, Severity: SevWarning, Pos: s.Pos,
				Message: fmt.Sprintf("%s of %s cannot be proven in bounds: %s; a runtime check remains", rw, s.Array, s.Reason())})
		case absint.ProvenUnsafe:
			out = append(out, Finding{Rule: RuleUnsafeBounds, Severity: SevError, Pos: s.Pos,
				Message: fmt.Sprintf("%s of %s is proven out-of-bounds: %s", rw, s.Array, s.Reason())})
		}
	}
	return out
}

// raceFindings surfaces the happens-before analyzer's verdicts on a
// distributed lint: a race or deadlock is an error, an unproven
// ordering warns, and — when notes is set — each proven-ordered
// conflicting pair carries a note with the happens-before chain that
// orders it (the evidence for why the exchange is safe).
func raceFindings(r *mhp.Result, notes bool) []Finding {
	if r == nil {
		return nil
	}
	var out []Finding
	for _, d := range r.Deadlocks {
		out = append(out, Finding{Rule: RuleCommDeadlock, Severity: SevError, Pos: d.Pos,
			Message: fmt.Sprintf("deadlock: %s", d.Message)})
	}
	for _, p := range r.Pairs {
		switch p.Verdict {
		case mhp.ProvenOrdered:
			if notes {
				out = append(out, Finding{Rule: RuleOrderedComm, Severity: SevNote, Pos: p.Second.Pos,
					Message: fmt.Sprintf("%s and %s are ordered: %s", p.First, p.Second, p.Evidence())})
			}
		case mhp.Unknown:
			out = append(out, Finding{Rule: RuleUnprovenOrder, Severity: SevWarning, Pos: p.Second.Pos,
				Message: fmt.Sprintf("cannot prove %s ordered against %s: %s", p.First, p.Second, p.Evidence())})
		case mhp.Race:
			out = append(out, Finding{Rule: RuleDataRace, Severity: SevError, Pos: p.Second.Pos,
				Message: fmt.Sprintf("%s may happen in parallel with %s: %s", p.First, p.Second, p.Evidence())})
		}
	}
	return out
}

// wouldContract surfaces the optimizer's fix-it remarks: temporaries
// and candidate arrays blocked from contraction by a single offending
// reference.
func wouldContract(remarks []remark.Remark) []Finding {
	var out []Finding
	for _, r := range remarks {
		if r.Kind == remark.NotContracted && r.Fixit != "" {
			out = append(out, Finding{Rule: RuleWouldContract, Severity: SevNote, Pos: r.Pos,
				Message: fmt.Sprintf("array %s is not contracted: %s", r.Array, r.Reason),
				Fixit:   r.Fixit})
		}
	}
	return out
}
