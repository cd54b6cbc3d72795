package gogen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/kernel"
	"repro/internal/lir"
)

// KernelPath is the import path an emitted program imports
// internal/kernel by. The native back end builds that package from
// kernel.Source; KernelSum names the source it builds.
const KernelPath = "zpl/kernel"

// KernelSum is the hex SHA-256 of kernel.Source, file names and
// contents in name order. An emission that imports the kernel package
// carries it in a comment, so its artifact key changes with the kernels.
var KernelSum = sync.OnceValue(func() string {
	h := sha256.New()
	files, err := kernel.Source.ReadDir(".")
	if err != nil {
		panic(err)
	}
	for _, f := range files {
		b, err := kernel.Source.ReadFile(f.Name())
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(h, "%s %d\n", f.Name(), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
})

// A nest runs strips — its innermost loop strip-mined at kernel.Width
// elements, each operator of each statement one call of its kernel
// entry over the strip, as the VM runs it (DESIGN.md §22) — when
//
//   - the host runs the packed kernels (kernel.HasPacked): elsewhere
//     the emission is the scalar one, byte for byte;
//   - the innermost loop is the last dimension, ascending, so every
//     array operand over a strip is a view of its row, and it runs at
//     least one whole strip: on a shorter row the calls cost more than
//     the packed loops save, and a resident worker that idles between
//     runs pays the vector unit's wake-up on its first packed
//     instruction (lazy-small's n=32 Eval read 6.7–36 µs with strips
//     against 6.1–6.6 without);
//   - no access carries a seeded fault (absint.Site.FaultShift) and no
//     statement reads a reduction target of the nest: both depend on
//     element order;
//   - no & or | runs element by element (its second operand is not
//     evaluated where the first decides, and a strip evaluates it);
//   - and either every operator it applies element by element has a
//     packed kernel (and there is one), or one of them is a call
//     (kernel.Entry.Call), whose loop spills the nest's live registers
//     around every element.
//
// Every other nest is the scalar sweep. §22's argument makes strips
// legal for every nest the partitioner emits, and each element
// evaluates the same operators in the same order, so the output is the
// same bytes.
type stripCheck struct {
	reads map[string]bool
	inner int

	ops         int  // operators applied element by element
	packs, call bool // all of them packed; one of them a call
	bad         bool
}

// packedHost is kernel.HasPacked; only export_test.go changes it.
var packedHost = kernel.HasPacked()

// strips reports whether nest n runs strips; reads are the registers and
// reduction targets its body reads (sweep.reads).
func (g *gen) strips(n *lir.Nest, reads map[string]bool) bool {
	rank := n.Region.Rank()
	if !packedHost || rank == 0 || n.Order[rank-1] != rank || n.Region.Extent(rank-1) < kernel.Width {
		return false
	}
	c := &stripCheck{reads: reads, inner: rank - 1, packs: true}
	shifted := func(s *absint.Site) bool { return s != nil && s.FaultShift != 0 }
	for i := range n.Preloads {
		if g.bounds != nil && shifted(g.bounds.PreloadSite(n, i)) {
			return false
		}
	}
	for _, s := range n.Body {
		switch {
		case s.IsReduce && reads[s.Target]:
			return false
		case !s.IsReduce && !s.Contracted && g.bounds != nil && shifted(g.bounds.Store(s)):
			return false
		}
		air.Walk(s.RHS, func(e air.Expr) {
			if r, ok := e.(*air.RefExpr); ok && g.bounds != nil && shifted(g.bounds.Read(r)) {
				c.bad = true
			}
		})
		c.vary(s.RHS)
	}
	return !c.bad && (c.call || c.packs && c.ops > 0)
}

// vary reports whether e varies along the strip (the VM's vector, as
// against its uniform) and notes each operator applied element by
// element.
func (c *stripCheck) vary(e air.Expr) bool {
	switch x := e.(type) {
	case *air.ScalarExpr:
		return c.reads[x.Name]
	case *air.IndexExpr:
		return x.Dim-1 == c.inner
	case *air.RefExpr:
		return true
	case *air.BinExpr:
		v := c.vary(x.X)
		v = c.vary(x.Y) || v
		return c.note(v, x.Op.String(), 2)
	case *air.UnExpr:
		return c.note(c.vary(x.X), x.Op.String(), 1)
	case *air.CallExpr:
		v := false
		for _, a := range x.Args {
			v = c.vary(a) || v
		}
		return c.note(v, x.Name, len(x.Args))
	}
	return false
}

func (c *stripCheck) note(vary bool, name string, operands int) bool {
	if vary {
		e := kernel.Lookup(name, operands)
		switch {
		case e == nil || e.Decided != nil:
			c.bad = true
		default:
			c.ops++
			c.packs = c.packs && e.Packs
			c.call = c.call || e.Call
		}
	}
	return vary
}

// operand is a value over the current strip: a scalar expression when
// uni, else a []float64 expression of the strip's length. own is the
// pool buffer it fills (-1: a view or a register), and direct reports
// that it was written into the destination its statement gave.
type operand struct {
	text        string
	uni, direct bool
	own         int
}

// span is the part of the strip a statement runs over: positions j..e-1
// of the strip, j empty for 0.
type span struct{ j, e string }

// of renders buffer k of the pool over the span.
func (sp span) of(k int) string {
	return "zaB[" + strconv.Itoa(k) + "][" + sp.j + ":" + sp.e + "]"
}

// acquire takes a pool buffer for the nest being emitted; release gives
// it back once its value is consumed (k < 0: nothing owned).
func (sw *sweep) acquire() int {
	if k := len(sw.free); k > 0 {
		b := sw.free[k-1]
		sw.free = sw.free[:k-1]
		return b
	}
	sw.bufs++
	return sw.bufs - 1
}

func (sw *sweep) release(k int) {
	if k >= 0 {
		sw.free = append(sw.free, k)
	}
}

// reg returns the pool buffer standing in for a contracted array or a
// preload register over the strip.
func (sw *sweep) reg(name string) int {
	k, ok := sw.regs[name]
	if !ok {
		k = sw.acquire()
		sw.regs[name] = k
	}
	return k
}

// kernelOf names the emitted program's variable that holds the kernels
// of the operator spelled name, declaring it on first use.
func (g *gen) kernelOf(name string, operands int) string {
	v, ok := g.kernels[name]
	if !ok {
		v = "zaK_" + strconv.Itoa(len(g.kernelDecls))
		g.kernels[name] = v
		g.kernelDecls = append(g.kernelDecls, "var "+v+" = &kernel.Lookup("+strconv.Quote(name)+", "+strconv.Itoa(operands)+").Packed\n")
	}
	return v
}

// reductionOps are the operators of the reductions, by kernel entry.
var reductionOps = [...]string{air.ReduceSum: "+", air.ReduceProd: "*", air.ReduceMax: "max", air.ReduceMin: "min"}

// stripBody emits the statements of a nest that runs strips, for one
// strip of zaL elements at index i<inner>.
func (g *gen) stripBody(n *lir.Nest) {
	sw, all := g.sw, span{"", "zaL"}
	sw.regs = map[string]int{}
	for i, pl := range n.Preloads {
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.PreloadSite(n, i)
		}
		g.text("copy(", all.of(sw.reg(pl.Var)), ", ", g.view(pl.Array, pl.Off, site, all), ")")
	}
	for _, s := range n.Body {
		g.stripStmt(n, s)
	}
}

// stripStmt emits one statement over the strip, clipped to its guard as
// the VM's clip does: an outer index outside the guard skips the strip,
// and the guard's range along the strip dimension cuts it to zaJ..zaE-1.
func (g *gen) stripStmt(n *lir.Nest, s *lir.NestStmt) {
	sw, sp, open := g.sw, span{"", "zaL"}, 0
	if s.Guard != nil {
		var conds []string
		for d, v := range sw.idx {
			if d != sw.inner && (s.Guard.Lo[d] != n.Region.Lo[d] || s.Guard.Hi[d] != n.Region.Hi[d]) {
				conds = append(conds, strconv.Itoa(s.Guard.Lo[d])+" <= "+v+" && "+v+" <= "+strconv.Itoa(s.Guard.Hi[d]))
			}
		}
		if len(conds) > 0 {
			g.text("if ", strings.Join(conds, " && "), " {")
			g.ind++
			open++
		}
		if d := sw.inner; s.Guard.Lo[d] != n.Region.Lo[d] || s.Guard.Hi[d] != n.Region.Hi[d] {
			v := sw.idx[d]
			g.line("if zaJ, zaE := max(%d-%s, 0), min(%d-%s, zaL); zaJ < zaE {", s.Guard.Lo[d], v, s.Guard.Hi[d]+1, v)
			g.ind++
			open++
			sp = span{"zaJ", "zaE"}
		}
	}

	// The destination an operator at the root writes into: a contracted
	// statement's register, taken before the right-hand side renders, or
	// the array row of a store. A right-hand side that reads its own
	// left-hand side is copied instead.
	dst := ""
	switch {
	case s.IsReduce:
	case s.Contracted:
		dst = sp.of(sw.reg(s.LHS))
	default:
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.Store(s)
		}
		dst = g.view(s.LHS, air.Zero(len(sw.idx)), site, sp)
	}
	into := dst
	if into != "" && reads(s.RHS, s.LHS) {
		into = ""
	}
	v := g.vector(s.RHS, sp, into)
	switch {
	case s.IsReduce:
		acc := mangle("zaA_", s.Target)
		if sw.declare(acc, "var ", acc, " float64 = ", g.identity(s.Op)) {
			sw.accs = append(sw.accs, accum{acc, s.Target, s.Op})
		}
		v = g.spread(v, sp) // n·u is not the same float as u added n times
		g.text(acc, " = ", g.kernelOf(reductionOps[s.Op], 2), ".Fold(", acc, ", ", v.text, ")")
	case v.direct:
	case v.uni:
		g.useFill = true
		g.text("zaF_fill(", dst, ", ", v.text, ")")
	default:
		g.text("copy(", dst, ", ", v.text, ")")
	}
	sw.release(v.own)
	for ; open > 0; open-- {
		g.ind--
		g.line("}")
	}
}

// reads reports whether e reads the named array.
func reads(e air.Expr, array string) bool {
	for _, r := range air.Refs(e) {
		if r.Array == array {
			return true
		}
	}
	return false
}

// spread makes a uniform a vector over the span.
func (g *gen) spread(v operand, sp span) operand {
	if !v.uni {
		return v
	}
	k := g.sw.acquire()
	g.useFill = true
	g.text("zaF_fill(", sp.of(k), ", ", v.text, ")")
	return operand{text: sp.of(k), own: k}
}

// vector renders e over the span: a uniform is its scalar text (hoisted
// out of the strip loop when it is not a constant or a scalar), an array
// read a view of its row, a register its buffer, and an operator a call
// of its kernel into a pool buffer — into, when e is a right-hand side's
// root and into is not empty.
func (g *gen) vector(e air.Expr, sp span, into string) operand {
	sw := g.sw
	c := stripCheck{reads: sw.reads, inner: sw.inner}
	if !c.vary(e) {
		return operand{text: g.expr(e), uni: true, own: -1}
	}
	switch x := e.(type) {
	case *air.ScalarExpr:
		return operand{text: sp.of(sw.reg(x.Name)), own: -1}
	case *air.RefExpr:
		if info := g.p.Source.Arrays[x.Ref.Array]; info != nil && info.Contracted {
			return operand{text: sp.of(sw.reg(x.Ref.Array)), own: -1}
		}
		var site *absint.Site
		if g.bounds != nil {
			site = g.bounds.Read(x)
		}
		return operand{text: g.view(x.Ref.Array, x.Ref.Off, site, sp), own: -1}
	case *air.IndexExpr:
		k := sw.acquire()
		g.useIota = true
		at := sw.idx[x.Dim-1]
		if sp.j != "" {
			at += "+" + sp.j
		}
		g.text("zaF_iota(", sp.of(k), ", ", at, ")")
		return operand{text: sp.of(k), own: k}
	case *air.BinExpr:
		return g.apply(x.Op.String(), []air.Expr{x.X, x.Y}, sp, into)
	case *air.UnExpr:
		return g.apply(x.Op.String(), []air.Expr{x.X}, sp, into)
	case *air.CallExpr:
		return g.apply(x.Name, x.Args, sp, into)
	}
	g.fail("gogen: unknown expression %T", e)
	return operand{text: "nil", own: -1}
}

// apply emits one operator over the strip: its V kernel, or its VV, VU
// or UV kernel by which operands vary. The result goes to into when it
// is given, else over an operand's pool buffer (every kernel is
// element-wise, so it may overwrite its input), else to a new one.
func (g *gen) apply(name string, args []air.Expr, sp span, into string) operand {
	sw := g.sw
	ops := make([]operand, len(args))
	for i, a := range args {
		ops[i] = g.vector(a, sp, "")
	}
	k := g.kernelOf(name, len(args))
	out := operand{text: into, own: -1, direct: into != ""}
	for _, o := range ops {
		switch {
		case o.own < 0:
		case out.text == "":
			out.text, out.own = o.text, o.own
		default:
			sw.release(o.own)
		}
	}
	if out.text == "" {
		out.own = sw.acquire()
		out.text = sp.of(out.own)
	}
	switch {
	case len(ops) == 1:
		g.text(k, ".V(", out.text, ", ", ops[0].text, ")")
	case ops[1].uni:
		g.text(k, ".VU(", out.text, ", ", ops[0].text, ", ", ops[1].text, ")")
	case ops[0].uni:
		g.text(k, ".UV(", out.text, ", ", ops[0].text, ", ", ops[1].text, ")")
	default:
		g.text(k, ".VV(", out.text, ", ", ops[0].text, ", ", ops[1].text, ")")
	}
	return out
}

// view renders the elements of array name at offset off over the span
// as a slice of its row: one bounds check for the strip, or none at a
// ProvenSafe site.
func (g *gen) view(name string, off air.Offset, site *absint.Site, sp span) string {
	at, base, size := g.flat(name, off)
	v := goName(name)
	from, to := at, at+"+"+sp.e
	if sp.j != "" {
		from += "+" + sp.j
	}
	if site != nil && site.Verdict == absint.ProvenSafe && size > 0 {
		g.useUnsafe = true
		p := mangle("zaP_", name)
		g.sw.declare(p, p, " := unsafe.Pointer(&", v, "[0])")
		n := sp.e
		if sp.j != "" {
			n += "-" + sp.j
		}
		return "unsafe.Slice((*float64)(unsafe.Add(" + p + ", 8*(" + from + ")" + signed(8*base) + ")), " + n + ")"
	}
	g.sw.declare(v, v, " := ", v)
	return v + "[" + from + signed(base) + " : " + to + signed(base) + "]"
}

// helperFill and helperIota spread a uniform, and the index along the
// strip dimension, over a strip.
const helperFill = `func zaF_fill(d []float64, v float64) {
	for i := range d {
		d[i] = v
	}
}

`

const helperIota = `func zaF_iota(d []float64, at int) {
	for i := range d {
		d[i] = float64(at + i)
	}
}

`
