package lazy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/ccache"
	"repro/internal/sema"
)

// canonBatch is one batch after canonicalization: a dependence-valid
// statement order with every handle renamed to a canonical name. Two
// batches with the same canonical text are the same program modulo
// handle identity — the property that makes a double-buffer swap
// (new := f(old) this step, old := f(new) the next) hit the same cache
// entry with only the name binding flipped. A batch bound from the
// canonicalization memo (memoEntry.bind) carries only handles, scalars
// and escapes: all that executing a cached compilation needs.
type canonBatch struct {
	order   []*op
	aname   map[*Handle]string
	sname   map[*ScalarHandle]string
	handles []*Handle       // in canonical-name order: handles[i] is v<i>
	scalars []*ScalarHandle // scalars[i] is s<i>
	escapes map[*Handle]bool
	text    string
}

// access is one op's read/write footprint.
type access struct {
	areads map[*Handle]bool
	awrite *Handle
	sreads map[*ScalarHandle]bool
	swrite *ScalarHandle
	io     bool
}

func accessOf(o *op) access {
	a := access{areads: map[*Handle]bool{}, sreads: map[*ScalarHandle]bool{}}
	if o.rhs != nil {
		exprReads(o.rhs, a.areads, a.sreads)
	}
	for _, w := range o.wargs {
		if !w.isStr {
			exprReads(w.e, a.areads, a.sreads)
		}
	}
	switch o.kind {
	case opAssign:
		a.awrite = o.target
	case opReduce:
		a.swrite = o.starget
	case opWriteln:
		a.io = true
	}
	return a
}

// conflicts reports whether the earlier op i and the later op j must
// stay ordered: a RAW/WAR/WAW dependence through any array or scalar,
// or both performing I/O (output order is part of the semantics).
func conflicts(i, j access) bool {
	if i.awrite != nil && (j.areads[i.awrite] || j.awrite == i.awrite) {
		return true
	}
	if j.awrite != nil && i.areads[j.awrite] {
		return true
	}
	if i.swrite != nil && (j.sreads[i.swrite] || j.swrite == i.swrite) {
		return true
	}
	if j.swrite != nil && i.sreads[j.swrite] {
		return true
	}
	return i.io && j.io
}

// canonicalize orders a batch's ops topologically over the dependence
// DAG — tie-breaking by a structural key so the order is invariant
// under reissuing independent ops in a different sequence — and
// assigns canonical names by first appearance in the resulting
// statement order (right-hand side in pre-order, then the left-hand
// side). escapes lists the Temp handles later batches of the same Eval
// read; they must survive this batch.
func canonicalize(ops []*op, escapes map[*Handle]bool) (*canonBatch, error) {
	n := len(ops)
	acc := make([]access, n)
	for i, o := range ops {
		acc[i] = accessOf(o)
	}

	// srcA/srcS: the issue-order value source (last preceding writer)
	// of every operand, or -1 for state flowing in from outside the
	// batch. Dependence edges guarantee the source is scheduled before
	// its reader becomes ready, so reader keys can fold in source keys.
	srcA := make([]map[*Handle]int, n)
	srcS := make([]map[*ScalarHandle]int, n)
	lastA := map[*Handle]int{}
	lastS := map[*ScalarHandle]int{}
	for j := range ops {
		srcA[j] = map[*Handle]int{}
		srcS[j] = map[*ScalarHandle]int{}
		for h := range acc[j].areads {
			if w, ok := lastA[h]; ok {
				srcA[j][h] = w
			} else {
				srcA[j][h] = -1
			}
		}
		for s := range acc[j].sreads {
			if w, ok := lastS[s]; ok {
				srcS[j][s] = w
			} else {
				srcS[j][s] = -1
			}
		}
		if acc[j].awrite != nil {
			lastA[acc[j].awrite] = j
		}
		if acc[j].swrite != nil {
			lastS[acc[j].swrite] = j
		}
	}

	// Dependence edges (quadratic; batches are small).
	adj := make([][]int, n)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if conflicts(acc[i], acc[j]) {
				adj[i] = append(adj[i], j)
				indeg[j]++
			}
		}
	}

	// Kahn's algorithm; among ready ops pick the smallest structural
	// key, then the smallest issue index. The key folds in the keys of
	// the op's value sources, so structurally distinct computations
	// order deterministically no matter how they were issued. True
	// structural ties (identical ops over external state) fall back to
	// issue order: when nothing downstream tells the tied ops apart the
	// text is the same and only the name binding differs, but when a
	// later op reads them asymmetrically (a := 1; b := 1; c := a - b
	// reissued with b first) the text differs — a second cache entry,
	// never a wrong answer.
	keys := make([]string, n)
	var ready []int
	push := func(j int) {
		keys[j] = opKey(ops[j], srcA[j], srcS[j], keys)
		ready = append(ready, j)
	}
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			push(j)
		}
	}
	cb := &canonBatch{
		aname:   map[*Handle]string{},
		sname:   map[*ScalarHandle]string{},
		escapes: escapes,
	}
	for len(ready) > 0 {
		best := 0
		for k := 1; k < len(ready); k++ {
			a, b := ready[k], ready[best]
			if keys[a] < keys[b] || (keys[a] == keys[b] && ops[a].seq < ops[b].seq) {
				best = k
			}
		}
		j := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		cb.order = append(cb.order, ops[j])
		for _, s := range adj[j] {
			indeg[s]--
			if indeg[s] == 0 {
				push(s)
			}
		}
	}
	if len(cb.order) != n {
		return nil, fmt.Errorf("lazy: internal: dependence graph has a cycle")
	}

	cb.rename()
	prog, err := cb.build()
	if err != nil {
		return nil, err
	}
	cb.text = renderProgram(prog)
	return cb, nil
}

// opKey is the structural hash used for topological tie-breaking:
// everything semantic about the op — kind, region, operator structure,
// constants — with operand references replaced by the key of their
// value source ("ext" for state entering the batch), never by handle
// identity.
func opKey(o *op, srcA map[*Handle]int, srcS map[*ScalarHandle]int, keys []string) string {
	h := sha256.New()
	put := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
	}
	refKey := func(x *Handle) string {
		if w := srcA[x]; w >= 0 {
			return keys[w]
		}
		return "ext:" + x.region.String() + ":" + strconv.FormatBool(x.temp)
	}
	srefKey := func(x *ScalarHandle) string {
		if w := srcS[x]; w >= 0 {
			return keys[w]
		}
		return "ext"
	}
	var putExpr func(e Expr)
	putExpr = func(e Expr) {
		switch x := e.(type) {
		case *refExpr:
			put("ref", fmt.Sprint(x.off), refKey(x.h))
		case *Handle:
			put("ref0", refKey(x))
		case *ScalarHandle:
			put("sref", srefKey(x))
		case *constExpr:
			put("const", strconv.FormatFloat(x.val, 'g', -1, 64))
		case *indexExpr:
			put("index", strconv.Itoa(x.dim))
		case *binExpr:
			put("bin", x.op.String())
			putExpr(x.x)
			putExpr(x.y)
		case *unExpr:
			put("un", x.op.String())
			putExpr(x.x)
		case *callExpr:
			put("call", x.name)
			for _, a := range x.args {
				putExpr(a)
			}
		}
	}
	switch o.kind {
	case opAssign:
		put("assign", o.region.String(), "tgt:"+strconv.FormatBool(o.target.temp))
		putExpr(o.rhs)
	case opReduce:
		put("reduce", o.rop.String(), o.region.String())
		putExpr(o.rhs)
	case opWriteln:
		put("writeln")
		for _, w := range o.wargs {
			if w.isStr {
				put("str", w.str)
			} else {
				put("expr")
				putExpr(w.e)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rename assigns canonical names by first appearance in canonical
// statement order: within each op the right-hand side in pre-order,
// then the left-hand side.
func (cb *canonBatch) rename() {
	seeA := func(h *Handle) {
		if _, ok := cb.aname[h]; !ok {
			cb.aname[h] = "v" + strconv.Itoa(len(cb.handles))
			cb.handles = append(cb.handles, h)
		}
	}
	seeS := func(s *ScalarHandle) {
		if _, ok := cb.sname[s]; !ok {
			cb.sname[s] = "s" + strconv.Itoa(len(cb.scalars))
			cb.scalars = append(cb.scalars, s)
		}
	}
	seeExpr := func(e Expr) {
		walkExpr(e, func(x Expr) {
			switch n := x.(type) {
			case *refExpr:
				seeA(n.h)
			case *Handle:
				seeA(n)
			case *ScalarHandle:
				seeS(n)
			}
		})
	}
	for _, o := range cb.order {
		if o.rhs != nil {
			seeExpr(o.rhs)
		}
		for _, w := range o.wargs {
			if !w.isStr {
				seeExpr(w.e)
			}
		}
		switch o.kind {
		case opAssign:
			seeA(o.target)
		case opReduce:
			seeS(o.starget)
		}
	}
}

// build constructs the canonical AIR program for the batch. Each call
// returns a fresh instance: driver.CompileAIR rewrites the program in
// place, so the cached compilation and the fingerprint text must never
// share nodes.
func (cb *canonBatch) build() (*air.Program, error) {
	arrays := map[string]*air.ArrayInfo{}
	for i, h := range cb.handles {
		arrays["v"+strconv.Itoa(i)] = &air.ArrayInfo{
			Name:     "v" + strconv.Itoa(i),
			Elem:     ast.Double,
			Declared: cloneRegion(h.region),
			Alloc:    cloneRegion(h.region),
			Temp:     h.temp,
			Escapes:  !h.temp || cb.escapes[h],
		}
	}
	scalars := map[string]*air.ScalarInfo{}
	for i := range cb.scalars {
		scalars["s"+strconv.Itoa(i)] = &air.ScalarInfo{
			Name: "s" + strconv.Itoa(i),
			Type: ast.Double,
		}
	}

	aname := func(h *Handle) string { return cb.aname[h] }
	sname := func(s *ScalarHandle) string { return cb.sname[s] }

	var stmts []air.Stmt
	id := 0
	ntemp := 0
	for _, o := range cb.order {
		switch o.kind {
		case opAssign:
			rank := o.region.Rank()
			rhs := airExpr(o.rhs, rank, aname, sname)
			lhs := cb.aname[o.target]
			readsLHS := false
			for _, r := range air.Refs(rhs) {
				if r.Array == lhs {
					readsLHS = true
					break
				}
			}
			if readsLHS {
				// Normalize: no array is both read and written in one
				// statement. The temp carries the parallel-semantics
				// snapshot, exactly as source lowering would insert it.
				tmp := "_t" + strconv.Itoa(ntemp)
				ntemp++
				arrays[tmp] = &air.ArrayInfo{
					Name:     tmp,
					Elem:     ast.Double,
					Declared: cloneRegion(o.region),
					Alloc:    cloneRegion(o.region),
					Temp:     true,
				}
				stmts = append(stmts,
					&air.ArrayStmt{ID: id, Region: cloneRegion(o.region), LHS: tmp, RHS: rhs},
					&air.ArrayStmt{ID: id + 1, Region: cloneRegion(o.region), LHS: lhs,
						RHS: &air.RefExpr{Ref: air.Ref{Array: tmp, Off: air.Zero(rank)}}})
				id += 2
			} else {
				stmts = append(stmts, &air.ArrayStmt{ID: id, Region: cloneRegion(o.region), LHS: lhs, RHS: rhs})
				id++
			}
		case opReduce:
			stmts = append(stmts, &air.ReduceStmt{
				Target: cb.sname[o.starget],
				Op:     o.rop,
				Region: cloneRegion(o.region),
				Body:   airExpr(o.rhs, o.region.Rank(), aname, sname),
			})
		case opWriteln:
			args := make([]air.WriteArg, len(o.wargs))
			for i, w := range o.wargs {
				if w.isStr {
					args[i] = air.WriteArg{Str: w.str}
				} else {
					args[i] = air.WriteArg{Expr: airExpr(w.e, 0, aname, sname)}
				}
			}
			stmts = append(stmts, &air.WritelnStmt{Args: args})
		default:
			return nil, fmt.Errorf("lazy: internal: op kind %d in batch", o.kind)
		}
	}

	// Widen allocations to cover every access: writes at the statement
	// region, reads at the region shifted by their offset (same cover
	// rule as source lowering).
	widen := func(name string, r *sema.Region, off air.Offset) {
		a := arrays[name]
		for d := 0; d < r.Rank(); d++ {
			o := 0
			if off != nil {
				o = off[d]
			}
			if lo := r.Lo[d] + o; lo < a.Alloc.Lo[d] {
				a.Alloc.Lo[d] = lo
			}
			if hi := r.Hi[d] + o; hi > a.Alloc.Hi[d] {
				a.Alloc.Hi[d] = hi
			}
		}
	}
	for _, s := range stmts {
		switch x := s.(type) {
		case *air.ArrayStmt:
			widen(x.LHS, x.Region, nil)
			for _, r := range x.Reads() {
				widen(r.Array, x.Region, r.Off)
			}
		case *air.ReduceStmt:
			for _, r := range air.Refs(x.Body) {
				widen(r.Array, x.Region, r.Off)
			}
		}
	}

	main := &air.Proc{Name: "main", Body: []air.Node{&air.Block{ID: 0, Stmts: stmts}}}
	return &air.Program{
		Name:     "lazy",
		Arrays:   arrays,
		Scalars:  scalars,
		Procs:    map[string]*air.Proc{"main": main},
		Main:     main,
		NumStmts: id,
	}, nil
}

// renderProgram is the canonical text of a batch program: declarations
// in name order, then the statements in canonical order. This string —
// not any handle identity — is what the compilation cache addresses
// (ccache.ArtifactLazy), together with the compilation options.
func renderProgram(p *air.Program) string {
	var b strings.Builder
	b.WriteString("lazy batch v1\n")
	names := make([]string, 0, len(p.Arrays))
	for n := range p.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := p.Arrays[n]
		fmt.Fprintf(&b, "array %s %s temp=%t escapes=%t\n", a.Name, a.Declared, a.Temp, a.Escapes)
	}
	names = names[:0]
	for n := range p.Scalars {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "scalar %s\n", n)
	}
	b.WriteString("begin\n")
	for _, blk := range p.AllBlocks() {
		for _, s := range blk.Stmts {
			b.WriteString("  ")
			b.WriteString(s.String())
			b.WriteString("\n")
		}
	}
	b.WriteString("end\n")
	return b.String()
}

// shape is the structural fingerprint of one batch's raw op stream in
// issue order, the key of the canonicalization memo. It is integer
// tokens only: op kinds, regions, reduce operators, the expression
// trees (operators, offsets, Index dimensions, constants as their
// IEEE bits, builtin names byte for byte), writeln strings byte for
// byte, and every handle and scalar replaced by its number in order of
// first appearance, each handle's region, temp flag and escape bit
// appended. Pointer identity never enters, so the fresh Temp a solver
// allocates every sweep does not defeat the memo; aliasing does, so
// a := f(a) and a := f(b) differ. Everything canonicalize reads is
// here, which makes the memo at least as fine as the canonical text.
type shape struct {
	words   []uint64
	handles []*Handle       // handles[i] is the handle numbered i
	scalars []*ScalarHandle // scalars[i] is the scalar numbered i
	anum    map[*Handle]int
	snum    map[*ScalarHandle]int
}

// Token tags: each starts a self-delimiting group, so two different op
// streams never produce the same words.
const (
	tagAssign uint64 = iota + 1
	tagReduce
	tagWriteln
	tagStr
	tagExpr
	tagRef
	tagRef0
	tagScalar
	tagConst
	tagIndex
	tagBin
	tagUn
	tagCall
)

// of fingerprints a batch into s, reusing its storage.
func (s *shape) of(ops []*op, escapes map[*Handle]bool) {
	s.words = s.words[:0]
	clear(s.handles)
	clear(s.scalars)
	s.handles, s.scalars = s.handles[:0], s.scalars[:0]
	if s.anum == nil {
		s.anum, s.snum = map[*Handle]int{}, map[*ScalarHandle]int{}
	}
	clear(s.anum)
	clear(s.snum)
	for _, o := range ops {
		switch o.kind {
		case opAssign:
			s.put(tagAssign)
			s.region(o.region)
			s.expr(o.rhs)
			s.put(s.handle(o.target))
		case opReduce:
			s.put(tagReduce, uint64(o.rop))
			s.region(o.region)
			s.expr(o.rhs)
			s.put(s.scalar(o.starget))
		case opWriteln:
			s.put(tagWriteln, uint64(len(o.wargs)))
			for _, w := range o.wargs {
				if w.isStr {
					s.put(tagStr)
					s.str(w.str)
				} else {
					s.put(tagExpr)
					s.expr(w.e)
				}
			}
		}
	}
	s.put(uint64(len(s.handles)), uint64(len(s.scalars)))
	for _, h := range s.handles {
		s.region(h.region)
		s.put(b2u(h.temp), b2u(!h.temp || escapes[h]))
	}
}

func (s *shape) put(ws ...uint64) { s.words = append(s.words, ws...) }

func (s *shape) handle(h *Handle) uint64 {
	n, ok := s.anum[h]
	if !ok {
		n = len(s.handles)
		s.anum[h] = n
		s.handles = append(s.handles, h)
	}
	return uint64(n)
}

func (s *shape) scalar(x *ScalarHandle) uint64 {
	n, ok := s.snum[x]
	if !ok {
		n = len(s.scalars)
		s.snum[x] = n
		s.scalars = append(s.scalars, x)
	}
	return uint64(n)
}

func (s *shape) region(r *sema.Region) {
	s.put(uint64(r.Rank()))
	for d := range r.Lo {
		s.put(uint64(r.Lo[d]), uint64(r.Hi[d]))
	}
}

// str packs a string's bytes eight to a word behind its length.
func (s *shape) str(v string) {
	s.put(uint64(len(v)))
	for i := 0; i < len(v); i += 8 {
		var w uint64
		for j := i; j < i+8 && j < len(v); j++ {
			w = w<<8 | uint64(v[j])
		}
		s.put(w)
	}
}

func (s *shape) expr(e Expr) {
	switch x := e.(type) {
	case *refExpr:
		s.put(tagRef, s.handle(x.h), uint64(len(x.off)))
		for _, o := range x.off {
			s.put(uint64(o))
		}
	case *Handle:
		s.put(tagRef0, s.handle(x))
	case *ScalarHandle:
		s.put(tagScalar, s.scalar(x))
	case *constExpr:
		s.put(tagConst, math.Float64bits(x.val))
	case *indexExpr:
		s.put(tagIndex, uint64(x.dim))
	case *binExpr:
		s.put(tagBin, uint64(x.op))
		s.expr(x.x)
		s.expr(x.y)
	case *unExpr:
		s.put(tagUn, uint64(x.op))
		s.expr(x.x)
	case *callExpr:
		s.put(tagCall)
		s.str(x.name)
		s.put(uint64(len(x.args)))
		for _, a := range x.args {
			s.expr(a)
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hashWords is the memo's bucket hash (FNV-1a over words). Buckets only
// narrow the search: a hit is confirmed by comparing every word.
func hashWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// memoEntry is one remembered canonicalization: a batch shape, the
// content address canonicalize + renderProgram gave it, and the
// binding from the shape's numbering to canonical names.
type memoEntry struct {
	words   []uint64
	key     ccache.Key
	handles []int // canonical v<i> is the shape's handle handles[i]
	scalars []int // canonical s<i> is the shape's scalar scalars[i]
}

// memo maps batch shapes to their canonicalization. It holds entries
// only for keys resident in the engine's cache (Engine.dropEvicted).
type memo struct {
	hash    func([]uint64) uint64 // hashWords; tests substitute a colliding one
	buckets map[uint64][]*memoEntry
}

// find returns the entry whose shape is exactly s, or nil.
func (m *memo) find(s *shape) *memoEntry {
	for _, me := range m.buckets[m.hash(s.words)] {
		if slices.Equal(me.words, s.words) {
			return me
		}
	}
	return nil
}

// add remembers that the batch fingerprinted as s canonicalized to cb
// under key.
func (m *memo) add(s *shape, key ccache.Key, cb *canonBatch) {
	me := &memoEntry{
		words:   slices.Clone(s.words),
		key:     key,
		handles: make([]int, len(cb.handles)),
		scalars: make([]int, len(cb.scalars)),
	}
	for i, h := range cb.handles {
		me.handles[i] = s.anum[h]
	}
	for i, x := range cb.scalars {
		me.scalars[i] = s.snum[x]
	}
	if m.buckets == nil {
		m.buckets = map[uint64][]*memoEntry{}
	}
	h := m.hash(s.words)
	m.buckets[h] = append(m.buckets[h], me)
}

// keep drops every entry whose key fails resident.
func (m *memo) keep(resident func(ccache.Key) bool) {
	for h, b := range m.buckets {
		b = slices.DeleteFunc(b, func(me *memoEntry) bool { return !resident(me.key) })
		if len(b) == 0 {
			delete(m.buckets, h)
		} else {
			m.buckets[h] = b
		}
	}
}

// bind is what canonicalize would return for the batch s fingerprints,
// as far as executing its cached compilation needs: the handles and
// scalars in canonical-name order.
func (me *memoEntry) bind(s *shape, escapes map[*Handle]bool) *canonBatch {
	cb := &canonBatch{
		handles: make([]*Handle, len(me.handles)),
		scalars: make([]*ScalarHandle, len(me.scalars)),
		escapes: escapes,
	}
	for i, n := range me.handles {
		cb.handles[i] = s.handles[n]
	}
	for i, n := range me.scalars {
		cb.scalars[i] = s.scalars[n]
	}
	return cb
}
