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

// Analyze runs the bounds prover over the program.
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
		lir.Walk(p.Procs[n].Body, a.node)
	}
	a.finalize(opt)
	return a.res
}

// ---------------------------------------------------------------------------
// The walk
//
// A normalized reference is [R] A@d with R a static region and d a
// constant offset (the paper's §2.1), so the index set of a site is the
// rectangle R+d whatever the scalars around it hold: lir.Walk's one
// pre-order pass visits every node once, and no scalar state is tracked.
// Site order is observable (Site.ID, the fingerprint, Options.FaultSite):
// a Loop is visited as Lo, Hi, body; a While as Cond, body; an If as
// Cond, Then, Else.

type analyzer struct {
	p    *lir.Program
	res  *Result
	proc string
}

// node records the sites of one node; lir.Walk descends into the body
// of a Loop, While or If after it.
func (a *analyzer) node(n lir.Node) {
	switch x := n.(type) {
	case *lir.ScalarAssign:
		a.refs(x.RHS, nil, x.Pos)
	case *lir.Nest:
		a.nest(x)
	case *lir.PartialReduce:
		a.partialReduce(x)
	case *lir.Loop:
		a.refs(x.Lo, nil, source.Pos{})
		a.refs(x.Hi, nil, source.Pos{})
	case *lir.While:
		a.refs(x.Cond, nil, source.Pos{})
	case *lir.If:
		a.refs(x.Cond, nil, source.Pos{})
	case *lir.Comm:
		// Sequential ghost exchange touches no storage (the VM's comm
		// primitive only reports traffic); nothing to prove.
	case *lir.Call:
		for _, arg := range x.Args {
			a.refs(arg, nil, x.Pos)
		}
	case *lir.Return:
		a.refs(x.Value, nil, x.Pos) // nil for a bare return: nothing to walk
	case *lir.Writeln:
		for _, arg := range x.Args {
			a.refs(arg.Expr, nil, x.Pos) // nil for a string argument
		}
	}
}

// nest records the access sites of one loop nest. The index hull is
// exact: the nest iterates the full dense region, and a guarded
// statement executes exactly on the guard's intersection with it.
func (a *analyzer) nest(x *lir.Nest) {
	rank := x.Region.Rank()
	full := regionHull(x.Region)

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
		a.refs(s.RHS, eff, s.Pos)
		if !s.IsReduce && !s.Contracted {
			a.site(siteKey{kindStore, s, 0}, s.LHS, air.Zero(rank), true, s.Pos, eff, true)
		}
	}
}

// partialReduce records the destination fill/accumulate writes, the
// accumulation read-modify, and the body reads of a dimensional
// reduction.
func (a *analyzer) partialReduce(x *lir.PartialReduce) {
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
	a.refs(x.Body, regHull, x.Pos)
}

// refs records a site for every array reference in e, left to right.
// idx is the per-dimension hull of the enclosing nest's indices (nil
// outside nests, where a reference has no static index context).
func (a *analyzer) refs(e air.Expr, idx []Interval, pos source.Pos) {
	air.Walk(e, func(x air.Expr) {
		if r, ok := x.(*air.RefExpr); ok {
			a.site(siteKey{kindRead, r, 0}, r.Ref.Array, r.Ref.Off, false, pos, idx, idx != nil)
		}
	})
}

// ---------------------------------------------------------------------------
// Site recording and finalization

// site records (or merges into) the access site for key k. hull is the
// per-dimension absolute index interval; exact marks hulls derived
// from dense static regions, where every point is actually executed.
func (a *analyzer) site(k siteKey, array string, off air.Offset, write bool, pos source.Pos, hull []Interval, exact bool) {
	info := a.p.Source.Arrays[array]
	if info == nil || info.Contracted {
		return // a contracted array is a register: no memory access
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
		// A node shared by two contexts revisits the site (compiled LIR
		// never does): join the evidence, weakening exactness if the
		// contexts disagree.
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
		verdict(s)
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
func verdict(s *Site) {
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
	flat, stride := flatOffset(hull, s.Alloc)
	return fmt.Sprintf("index %s within allocation %s; flat offset %s stride %s",
		hullString(hull), hullString(alloc), flat, stride) + fault
}

// flatOffset words the row-major element offset Σ (i_d − alloc.Lo_d) ·
// stride_d — the quantity the backends index with — over a non-empty
// hull inside the allocation, in closed form: its interval, and its
// congruence: "=c" when every dimension is one index, "any" when the
// varying dimensions' strides have gcd 1, else "r mod m" with m that gcd
// and r the single-index dimensions' terms (non-negative: the hull is
// inside the allocation) reduced mod m.
func flatOffset(hull []Interval, alloc *sema.Region) (Interval, string) {
	flat := ConstInterval(0)
	var m, r int64 // m == 0 while no dimension varies
	stride := int64(1)
	for d := len(hull) - 1; d >= 0; d-- {
		t := hull[d].AddConst(-int64(alloc.Lo[d]))
		flat = flat.Add(Range(satMul(t.Lo, stride), satMul(t.Hi, stride)))
		if t.Lo == t.Hi {
			r = satAdd(r, satMul(t.Lo, stride))
		} else {
			m = gcd(m, stride)
		}
		stride *= int64(alloc.Extent(d))
	}
	switch m {
	case 0:
		return flat, "=" + strconv.FormatInt(r, 10)
	case 1:
		return flat, "any"
	}
	return flat, fmt.Sprintf("%d mod %d", r%m, m)
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
