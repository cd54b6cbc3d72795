package absint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/air"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/source"
)

// Verdict classifies one array access site.
type Verdict int

// The three verdicts. The zero value is Unknown: an unclassified site
// keeps its runtime check.
const (
	// Unknown: the analysis cannot bound the access; the backends keep
	// the runtime check and the trap scaffold.
	Unknown Verdict = iota
	// ProvenSafe: the derived index interval is contained in the
	// array's allocation on every dimension; the access can execute
	// unchecked.
	ProvenSafe
	// ProvenUnsafe: the iteration space is non-empty and some executed
	// index definitely escapes the allocation — a compile-time error.
	ProvenUnsafe
)

func (v Verdict) String() string {
	switch v {
	case ProvenSafe:
		return "proven-safe"
	case ProvenUnsafe:
		return "proven-unsafe"
	}
	return "unknown"
}

// Site is one array access (read or write) with its verdict and the
// interval derivation that justifies it; Reason words the derivation
// when somebody asks.
type Site struct {
	ID    int
	Proc  string
	Array string
	Off   air.Offset
	Write bool
	Pos   source.Pos
	Alloc *sema.Region

	Verdict Verdict
	// Index is the per-dimension hull of the absolute index values the
	// site can touch (allocation coordinates are Index[d] - Alloc.Lo[d]).
	// Nil when the site has no static index context.
	Index []Interval
	// FlatRange and FlatStride bound the flattened element offset into
	// the array's row-major storage: the interval and congruence of
	// Σ (i_d + off_d - alloc.Lo[d]) · stride_d.
	FlatRange  Interval
	FlatStride Stride
	// FailDim is the first dimension whose hull escapes the allocation
	// (-1 when none).
	FailDim int

	// Faulted marks the site whose evidence was deliberately perturbed
	// by Options.FaultSite; FaultShift is the element displacement the
	// backends apply when honoring the (wrong) evidence, so the
	// differential harness observes the miscompile.
	Faulted    bool
	FaultShift int

	// exact: every executed index is exactly the hull (dense static
	// regions), which is what licenses ProvenUnsafe.
	exact bool
}

// Options configures an analysis.
type Options struct {
	// FaultSite, when > 0, perturbs the evidence of the Nth ProvenSafe
	// site (1-based, in site order) by one element: the soundness
	// self-test that proves the differential harness and the bounds
	// cross-check both catch a wrong interval.
	FaultSite int
}

// Result is the program-wide analysis: every site in deterministic
// order, plus lookup maps keyed by the LIR/AIR nodes the backends
// compile.
type Result struct {
	Sites []*Site

	// Counts by verdict.
	NumProven  int
	NumUnknown int
	NumUnsafe  int

	sites map[siteKey]*Site
	fp    string
}

type siteKind int

const (
	kindRead siteKind = iota
	kindStore
	kindPreload
	kindReduceStore
	kindReduceLoad
)

// siteKey identifies a syntactic access site by node pointer. One LIR
// instance flows from the driver to every backend, so pointer identity
// is a stable address for a site.
type siteKey struct {
	kind siteKind
	node any
	i    int
}

// Read returns the site for an array read expression, or nil (e.g. a
// contracted-array reference, which reads a register).
func (r *Result) Read(e *air.RefExpr) *Site { return r.sites[siteKey{kindRead, e, 0}] }

// Store returns the site for a nest statement's array store, or nil.
func (r *Result) Store(s *lir.NestStmt) *Site { return r.sites[siteKey{kindStore, s, 0}] }

// PreloadSite returns the site for nest n's i-th scalar-replacement
// preload, or nil.
func (r *Result) PreloadSite(n *lir.Nest, i int) *Site {
	return r.sites[siteKey{kindPreload, n, i}]
}

// ReduceStore returns the destination-write site of a partial
// reduction (identity fill plus accumulation), or nil.
func (r *Result) ReduceStore(x *lir.PartialReduce) *Site {
	return r.sites[siteKey{kindReduceStore, x, 0}]
}

// ReduceLoad returns the destination-read site of a partial
// reduction's accumulation, or nil.
func (r *Result) ReduceLoad(x *lir.PartialReduce) *Site {
	return r.sites[siteKey{kindReduceLoad, x, 0}]
}

// AllProven reports whether every site is ProvenSafe — the condition
// under which gogen drops the recover/trap scaffold entirely.
func (r *Result) AllProven() bool {
	return len(r.Sites) == r.NumProven
}

// Err returns the first ProvenUnsafe site as a compile-time error, or
// nil.
func (r *Result) Err() error {
	for _, s := range r.Sites {
		if s.Verdict == ProvenUnsafe {
			what := "read"
			if s.Write {
				what = "write"
			}
			return fmt.Errorf("%s: out-of-bounds %s of %s%s: %s", s.Pos, what, s.Array, appendOff(nil, s.Off), s.Reason())
		}
	}
	return nil
}

// Fingerprint is a stable digest of every site's verdict and evidence:
// two analyses with any differing verdict (or an injected fault)
// fingerprint differently, which keeps checked and unchecked artifacts
// on distinct content addresses.
func (r *Result) Fingerprint() string { return r.fp }

// Analyze runs the abstract interpreter over the program.
func Analyze(p *lir.Program) *Result { return AnalyzeOpts(p, Options{}) }

// AnalyzeOpts is Analyze with options (fault injection).
func AnalyzeOpts(p *lir.Program, opt Options) *Result {
	a := &analyzer{
		p:   p,
		res: &Result{sites: map[siteKey]*Site{}},
	}
	names := make([]string, 0, len(p.Procs))
	for n := range p.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a.proc = n
		a.nodes(p.Procs[n].Body, a.seedEnv())
	}
	a.finalize(opt)
	return a.res
}

// ---------------------------------------------------------------------------
// Abstract environment

// env maps scalar names to abstract values. A missing key means top.
type env map[string]Value

func (e env) get(name string) Value {
	if v, ok := e[name]; ok {
		return v
	}
	return TopValue()
}

func (e env) clone() env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

func (e env) set(name string, v Value) {
	if v.I.IsTop() && v.S.IsTop() && !v.Int {
		delete(e, name)
		return
	}
	e[name] = v
}

// join keeps only facts present (and joined) on both sides; a key
// missing on either side is top and drops out.
func (e env) join(o env) env {
	out := env{}
	for k, v := range e {
		if ov, ok := o[k]; ok {
			out.set(k, v.Join(ov))
		}
	}
	return out
}

// widen extrapolates e (the loop-head state) against its successor o.
func (e env) widen(o env) env {
	out := env{}
	for k, v := range e {
		if ov, ok := o[k]; ok {
			out.set(k, v.Widen(ov))
		}
	}
	return out
}

func (e env) equal(o env) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Analyzer

// maxFixpointIters bounds loop-head iteration; with interval widening
// after the first pass the chain is finite, so this is a backstop.
const maxFixpointIters = 8

type analyzer struct {
	p    *lir.Program
	res  *Result
	proc string
}

// seedEnv binds config constants to their exact values. Configs are
// compile-time constants in ZA; everything else starts at top.
func (a *analyzer) seedEnv() env {
	en := env{}
	for n, s := range a.p.Source.Scalars {
		if s.Config {
			v := s.Init
			if v == float64(int64(v)) {
				en.set(n, ConstValue(int64(v)))
			}
		}
	}
	return en
}

func (a *analyzer) nodes(ns []lir.Node, en env) env {
	for _, n := range ns {
		en = a.node(n, en)
	}
	return en
}

func (a *analyzer) node(n lir.Node, en env) env {
	switch x := n.(type) {
	case *lir.ScalarAssign:
		v := a.eval(x.RHS, en, nil, x.Pos)
		en.set(x.LHS, v)
		return en
	case *lir.Nest:
		return a.nest(x, en)
	case *lir.PartialReduce:
		return a.partialReduce(x, en)
	case *lir.Loop:
		return a.loop(x, en)
	case *lir.While:
		return a.while(x, en)
	case *lir.If:
		a.eval(x.Cond, en, nil, source.Pos{})
		t := a.nodes(x.Then, a.refine(en.clone(), x.Cond, true))
		e := a.nodes(x.Else, a.refine(en.clone(), x.Cond, false))
		return t.join(e)
	case *lir.Comm:
		// Sequential ghost exchange touches no storage (the VM's comm
		// primitive only reports traffic); nothing to prove.
		return en
	case *lir.Call:
		for _, arg := range x.Args {
			a.eval(arg, en, nil, x.Pos)
		}
		// The callee may write any global scalar: havoc everything but
		// the config constants.
		return a.seedEnv()
	case *lir.Return:
		if x.Value != nil {
			a.eval(x.Value, en, nil, x.Pos)
		}
		return en
	case *lir.Writeln:
		for _, arg := range x.Args {
			if arg.Expr != nil {
				a.eval(arg.Expr, en, nil, x.Pos)
			}
		}
		return en
	}
	return en
}

// loop analyzes a dynamic counted loop with widening at the loop head.
func (a *analyzer) loop(x *lir.Loop, en env) env {
	start := a.eval(x.Lo, en, nil, source.Pos{})
	end := a.eval(x.Hi, en, nil, source.Pos{})
	varOf := func(s, e Value) Value {
		lo, hi := s.I, e.I
		if x.Down {
			lo, hi = e.I, s.I
		}
		if lo.IsEmpty() || hi.IsEmpty() {
			return Value{I: EmptyInterval(), S: BotStride(), Int: true}
		}
		return RangeValue(lo.Lo, hi.Hi)
	}
	cur := en.clone()
	for iter := 0; iter < maxFixpointIters; iter++ {
		it := cur.clone()
		it.set(x.Var, varOf(a.eval(x.Lo, cur, nil, source.Pos{}), a.eval(x.Hi, cur, nil, source.Pos{})))
		out := a.nodes(x.Body, it)
		next := cur.join(out)
		if iter >= 1 {
			next = cur.widen(next)
		}
		if next.equal(cur) {
			break
		}
		cur = next
	}
	// Post state: the loop may run zero times (cur ⊇ en by
	// construction); the variable holds some iterate or its old value.
	cur.set(x.Var, cur.get(x.Var).Join(varOf(start, end)))
	return cur
}

// while analyzes a while loop: guard refinement on entry, widening at
// the head, negated-guard refinement on exit.
func (a *analyzer) while(x *lir.While, en env) env {
	a.eval(x.Cond, en, nil, source.Pos{})
	cur := en.clone()
	for iter := 0; iter < maxFixpointIters; iter++ {
		out := a.nodes(x.Body, a.refine(cur.clone(), x.Cond, true))
		next := cur.join(out)
		if iter >= 1 {
			next = cur.widen(next)
		}
		if next.equal(cur) {
			break
		}
		cur = next
	}
	return a.refine(cur, x.Cond, false)
}

// nest records the access sites of one loop nest. The index hull is
// exact: the nest iterates the full dense region, and a guarded
// statement executes exactly on the guard's intersection with it
// (branch refinement at the guard).
func (a *analyzer) nest(x *lir.Nest, en env) env {
	rank := x.Region.Rank()
	full := regionHull(x.Region)

	// Scalars written inside the nest hold unknown values while its
	// statements evaluate.
	for _, pl := range x.Preloads {
		en.set(pl.Var, TopValue())
	}
	for _, s := range x.Body {
		switch {
		case s.IsReduce:
			en.set(s.Target, TopValue())
		case s.Contracted:
			en.set(s.LHS, TopValue())
		}
	}

	// Preloads execute over the whole region, unguarded.
	for i, pl := range x.Preloads {
		a.site(siteKey{kindPreload, x, i}, pl.Array, pl.Off, false, pl.Pos, full, true)
	}
	for _, s := range x.Body {
		eff := full
		if s.Guard != nil {
			eff = make([]Interval, rank)
			g := regionHull(s.Guard)
			for d := 0; d < rank; d++ {
				eff[d] = full[d].Meet(g[d])
			}
		}
		a.eval(s.RHS, en, eff, s.Pos)
		if !s.IsReduce && !s.Contracted {
			a.site(siteKey{kindStore, s, 0}, s.LHS, air.Zero(rank), true, s.Pos, eff, true)
		}
	}
	return en
}

// partialReduce records the destination fill/accumulate writes, the
// accumulation read-modify, and the body reads of a dimensional
// reduction.
func (a *analyzer) partialReduce(x *lir.PartialReduce, en env) env {
	rank := x.Region.Rank()
	regHull := regionHull(x.Region)
	destHull := regionHull(x.Dest)
	// The accumulation's destination index: collapsed dimensions pin to
	// the destination bound, the rest follow the sweep.
	proj := make([]Interval, rank)
	for d := 0; d < rank; d++ {
		if x.Dest.Extent(d) == 1 && x.Region.Extent(d) != 1 {
			proj[d] = ConstInterval(int64(x.Dest.Lo[d]))
		} else {
			proj[d] = regHull[d]
		}
	}
	// The destination write covers the identity fill (whole dest slab)
	// and the accumulation (projected sweep).
	writeHull := make([]Interval, rank)
	for d := 0; d < rank; d++ {
		writeHull[d] = destHull[d].Join(proj[d])
	}
	zero := air.Zero(rank)
	a.site(siteKey{kindReduceStore, x, 0}, x.LHS, zero, true, x.Pos, writeHull, true)
	a.site(siteKey{kindReduceLoad, x, 0}, x.LHS, zero, false, x.Pos, proj, true)
	a.eval(x.Body, en, regHull, x.Pos)
	return en
}

// eval is the expression transfer function. idx is the per-dimension
// hull of the current loop indices (nil outside nests); any array
// reference encountered is recorded as a site.
func (a *analyzer) eval(e air.Expr, en env, idx []Interval, pos source.Pos) Value {
	switch x := e.(type) {
	case *air.ConstExpr:
		if x.Val == float64(int64(x.Val)) {
			return ConstValue(int64(x.Val))
		}
		return TopValue()
	case *air.ScalarExpr:
		return en.get(x.Name)
	case *air.IndexExpr:
		d := x.Dim - 1
		if idx != nil && d >= 0 && d < len(idx) {
			return Value{I: idx[d], S: TopStride(), Int: true}.reduce()
		}
		return TopInt()
	case *air.RefExpr:
		info := a.p.Source.Arrays[x.Ref.Array]
		if info != nil && info.Contracted {
			return TopValue() // register read, no memory access
		}
		a.site(siteKey{kindRead, x, 0}, x.Ref.Array, x.Ref.Off, false, pos, idx, idx != nil)
		return TopValue()
	case *air.BinExpr:
		l := a.eval(x.X, en, idx, pos)
		r := a.eval(x.Y, en, idx, pos)
		switch x.Op {
		case air.OpAdd:
			return l.Add(r)
		case air.OpSub:
			return l.Sub(r)
		case air.OpMul:
			return l.Mul(r)
		case air.OpEq, air.OpNe, air.OpLt, air.OpLe, air.OpGt, air.OpGe, air.OpAnd, air.OpOr:
			return RangeValue(0, 1)
		}
		return TopValue()
	case *air.UnExpr:
		v := a.eval(x.X, en, idx, pos)
		if x.Op == air.OpNot {
			return RangeValue(0, 1)
		}
		return v.Neg()
	case *air.CallExpr:
		for _, arg := range x.Args {
			a.eval(arg, en, idx, pos)
		}
		switch x.Name {
		case "floor", "ceil", "sign":
			return TopInt()
		}
		return TopValue()
	}
	return TopValue()
}

// refine narrows the environment under the assumption that cond
// evaluates to truth. Only facts about known-integral scalars compared
// against bounded values are narrowed; anything else passes through.
// (Refinement sharpens evidence and Unknown-site precision; safety
// verdicts rest on the exact region hulls alone, so an unrefinable
// condition costs precision, never soundness.)
func (a *analyzer) refine(en env, cond air.Expr, truth bool) env {
	switch x := cond.(type) {
	case *air.UnExpr:
		if x.Op == air.OpNot {
			return a.refine(en, x.X, !truth)
		}
	case *air.BinExpr:
		switch x.Op {
		case air.OpAnd:
			if truth {
				return a.refine(a.refine(en, x.X, true), x.Y, true)
			}
		case air.OpOr:
			if !truth {
				return a.refine(a.refine(en, x.X, false), x.Y, false)
			}
		case air.OpLt, air.OpLe, air.OpGt, air.OpGe, air.OpEq:
			op := x.Op
			if !truth {
				// Negate the comparison. (Sound for the VM's numeric
				// model on ordered values; a NaN operand satisfies
				// neither side, so the refined state still
				// over-approximates every state that reaches it —
				// refinement only ever narrows toward Unknown-site
				// precision, never toward a safety claim.)
				neg := map[air.Op]air.Op{
					air.OpLt: air.OpGe, air.OpLe: air.OpGt,
					air.OpGt: air.OpLe, air.OpGe: air.OpLt,
				}
				var ok bool
				if op, ok = neg[op]; !ok {
					return en
				}
			}
			en = a.refineCmp(en, x.X, x.Y, op, idxNil)
			en = a.refineCmp(en, x.Y, x.X, flip(op), idxNil)
			return en
		}
	}
	return en
}

var idxNil []Interval

func flip(op air.Op) air.Op {
	switch op {
	case air.OpLt:
		return air.OpGt
	case air.OpLe:
		return air.OpGe
	case air.OpGt:
		return air.OpLt
	case air.OpGe:
		return air.OpLe
	}
	return op
}

// refineCmp narrows lhs (when it is a scalar) under lhs op rhs.
func (a *analyzer) refineCmp(en env, lhs, rhs air.Expr, op air.Op, idx []Interval) env {
	sv, ok := lhs.(*air.ScalarExpr)
	if !ok {
		return en
	}
	cur := en.get(sv.Name)
	bound := a.eval(rhs, en, idx, source.Pos{})
	if bound.I.IsEmpty() {
		return en
	}
	strict := int64(0)
	if cur.Int && bound.Int {
		strict = 1
	}
	var narrowed Interval
	switch op {
	case air.OpLt:
		narrowed = cur.I.Meet(Range(NegInf, satAdd(bound.I.Hi, -strict)))
	case air.OpLe:
		narrowed = cur.I.Meet(Range(NegInf, bound.I.Hi))
	case air.OpGt:
		narrowed = cur.I.Meet(Range(satAdd(bound.I.Lo, strict), Inf))
	case air.OpGe:
		narrowed = cur.I.Meet(Range(bound.I.Lo, Inf))
	case air.OpEq:
		if !cur.Int || !bound.Int {
			return en
		}
		en.set(sv.Name, cur.Meet(bound))
		return en
	default:
		return en
	}
	cur.I = narrowed
	en.set(sv.Name, cur.reduce())
	return en
}

// ---------------------------------------------------------------------------
// Site recording and finalization

// site records (or merges into) the access site for key k. hull is the
// per-dimension absolute index interval; exact marks hulls derived
// from dense static regions, where every point is actually executed.
func (a *analyzer) site(k siteKey, array string, off air.Offset, write bool, pos source.Pos, hull []Interval, exact bool) {
	info := a.p.Source.Arrays[array]
	if info == nil || info.Contracted {
		return
	}
	rank := info.Alloc.Rank()
	var index []Interval
	ok := hull != nil && len(hull) >= rank && len(off) >= rank
	if ok {
		index = make([]Interval, rank)
		for d := 0; d < rank; d++ {
			index[d] = hull[d].AddConst(int64(off[d]))
		}
	}
	if s := a.res.sites[k]; s != nil {
		// A fixpoint re-walk (or a shared node) revisits the site: join
		// the evidence, weakening exactness if contexts disagree.
		if s.Index == nil || index == nil {
			s.Index = nil
			s.exact = false
			return
		}
		same := true
		for d := range index {
			if index[d] != s.Index[d] {
				same = false
			}
			s.Index[d] = s.Index[d].Join(index[d])
		}
		if !same {
			s.exact = false
		}
		return
	}
	s := &Site{
		ID:      len(a.res.Sites),
		Proc:    a.proc,
		Array:   array,
		Off:     off.Clone(),
		Write:   write,
		Pos:     pos,
		Alloc:   info.Alloc,
		Index:   index,
		FailDim: -1,
		exact:   exact && ok,
	}
	a.res.Sites = append(a.res.Sites, s)
	a.res.sites[k] = s
}

// finalize computes verdicts, the fault injection, counts, and the
// fingerprint.
func (a *analyzer) finalize(opt Options) {
	for _, s := range a.res.Sites {
		a.verdict(s)
	}
	if opt.FaultSite > 0 {
		a.injectFault(opt.FaultSite)
	}
	for _, s := range a.res.Sites {
		switch s.Verdict {
		case ProvenSafe:
			a.res.NumProven++
		case ProvenUnsafe:
			a.res.NumUnsafe++
		default:
			a.res.NumUnknown++
		}
	}
	a.res.fp = fingerprint(a.res.Sites)
}

// fingerprint hashes one "proc;pos;array;@off;write;verdict;shift;hull,"
// line per site, appended to one buffer and hashed once: a few µs a
// program, so it is not worth deferring to the one reader it has
// (gogen's header).
func fingerprint(sites []*Site) string {
	b := make([]byte, 0, 64*len(sites))
	for _, s := range sites {
		b = append(append(b, s.Proc...), ';')
		b = append(s.Pos.AppendTo(b), ';')
		b = append(append(b, s.Array...), ';')
		b = append(appendOff(b, s.Off), ';')
		b = append(strconv.AppendBool(b, s.Write), ';')
		b = append(append(b, s.Verdict.String()...), ';')
		b = append(strconv.AppendInt(b, int64(s.FaultShift), 10), ';')
		for _, iv := range s.Index {
			b = append(iv.appendTo(b), ',')
		}
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// verdict classifies one site from its evidence.
func (a *analyzer) verdict(s *Site) {
	if s.Index == nil {
		s.Verdict = Unknown
		return
	}
	rank := s.Alloc.Rank()
	for d := 0; d < rank; d++ {
		if s.Index[d].IsEmpty() {
			s.Verdict = ProvenSafe
			return
		}
	}
	for d := 0; d < rank; d++ {
		if !Range(int64(s.Alloc.Lo[d]), int64(s.Alloc.Hi[d])).Contains(s.Index[d]) {
			s.FailDim = d
			s.Verdict = Unknown
			if s.exact {
				s.Verdict = ProvenUnsafe
			}
			return
		}
	}
	s.FlatRange, s.FlatStride = a.flatten(s)
	s.Verdict = ProvenSafe
}

// Reason is the human-readable derivation (or failure) summary, worded
// from the site's verdict and evidence on every call; it writes
// nothing, so concurrent readers of a shared Result may call it.
func (s *Site) Reason() string {
	if s.Index == nil {
		return "no static index context (access outside a loop nest)"
	}
	hull, fault := s.Index, ""
	if s.Faulted {
		// The derivation is of the hull the analysis found; the injected
		// shift of the innermost dimension is reported beside it.
		d := len(hull) - 1
		hull = append([]Interval(nil), hull...)
		hull[d] = hull[d].AddConst(int64(-s.FaultShift))
		fault = fmt.Sprintf(" [FAULT INJECTED: evidence shifted %+d on dim %d]", s.FaultShift, d+1)
	}
	for _, iv := range hull {
		if iv.IsEmpty() {
			return "empty iteration space: the access never executes" + fault
		}
	}
	alloc := regionHull(s.Alloc)
	if d := s.FailDim; d >= 0 {
		how := "not contained in"
		if s.Verdict == ProvenUnsafe {
			how = "escapes"
		}
		return fmt.Sprintf("dim %d: index %s %s allocation %s", d+1, hull[d], how, alloc[d])
	}
	return fmt.Sprintf("index %s within allocation %s; flat offset %s stride %s",
		hullString(hull), hullString(alloc), s.FlatRange, s.FlatStride) + fault
}

// flatten derives the interval and congruence of the site's flattened
// row-major element offset — the quantity the backends actually index
// with.
func (a *analyzer) flatten(s *Site) (Interval, Stride) {
	rank := s.Alloc.Rank()
	strides := make([]int64, rank)
	sz := int64(1)
	for d := rank - 1; d >= 0; d-- {
		strides[d] = sz
		sz *= int64(s.Alloc.Extent(d))
	}
	flat := ConstValue(0)
	for d := 0; d < rank; d++ {
		vd := Value{I: s.Index[d], S: TopStride(), Int: true}.reduce()
		term := vd.Sub(ConstValue(int64(s.Alloc.Lo[d]))).Mul(ConstValue(strides[d]))
		flat = flat.Add(term)
	}
	return flat.I, flat.S
}

// injectFault perturbs the Nth proven site's evidence by one element
// along the innermost dimension, preferring a shift that stays inside
// the allocation (the miscompile then reads a deterministic wrong
// element rather than unowned memory).
func (a *analyzer) injectFault(n int) {
	count := 0
	for _, s := range a.res.Sites {
		if s.Verdict != ProvenSafe || s.Index == nil || len(s.Index) == 0 {
			continue
		}
		count++
		if count != n {
			continue
		}
		d := len(s.Index) - 1
		shift := int64(1)
		if s.Index[d].Hi >= int64(s.Alloc.Hi[d]) && s.Index[d].Lo > int64(s.Alloc.Lo[d]) {
			shift = -1
		}
		s.Index[d] = s.Index[d].AddConst(shift)
		s.FaultShift = int(shift)
		s.Faulted = true
		return
	}
}

// ---------------------------------------------------------------------------
// Helpers

func regionHull(r *sema.Region) []Interval {
	hull := make([]Interval, r.Rank())
	for d := range hull {
		hull[d] = Range(int64(r.Lo[d]), int64(r.Hi[d]))
	}
	return hull
}

func hullString(hull []Interval) string {
	parts := make([]string, len(hull))
	for i, h := range hull {
		parts[i] = h.String()
	}
	return strings.Join(parts, "x")
}

// appendOff appends "@(o1,o2,...)" for a nonzero offset and nothing
// for a null one.
func appendOff(b []byte, off air.Offset) []byte {
	if off.IsZero() {
		return b
	}
	b = append(b, "@("...)
	for i, o := range off {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(o), 10)
	}
	return append(b, ')')
}
