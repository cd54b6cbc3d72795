package lazy

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/ccache"
	"repro/internal/driver"
	"repro/internal/sema"
)

// canonBatch is one batch after canonicalization: a dependence-valid
// statement order and the shape of the batch issued in that order. Its
// numbering is the canonical naming — handles[i] is v<i>, scalars[i] is
// s<i> — and its words are the batch's content address. Two batches with
// the same canonical words are the same program modulo handle identity:
// the property that makes a double-buffer swap (new := f(old) this step,
// old := f(new) the next) hit the same cache entry with only the binding
// flipped. A batch bound from the canonicalization memo (memoEntry.bind)
// fills only handles, scalars and escapes: all that executing a cached
// compilation needs.
type canonBatch struct {
	order []*op
	shape
}

// access is one op's footprint in its shape's numbers; -1 writes none.
type access struct {
	areads, sreads []int
	awrite, swrite int
	io             bool
}

// accesses is the footprint of every op s fingerprints, read off its
// operand list.
func (s *shape) accesses() []access {
	acc := make([]access, len(s.ops))
	r := 0
	for j, sp := range s.ops {
		a := access{awrite: -1, swrite: -1, io: s.words[sp.start] == tagWriteln}
		for ; r < sp.refs; r++ {
			ref := s.refs[r]
			n := int(s.words[ref.pos])
			switch {
			case ref.scalar && ref.write:
				a.swrite = n
			case ref.scalar:
				a.sreads = append(a.sreads, n)
			case ref.write:
				a.awrite = n
			default:
				a.areads = append(a.areads, n)
			}
		}
		acc[j] = a
	}
	return acc
}

// conflicts reports whether the earlier op i and the later op j must
// stay ordered: a RAW/WAR/WAW dependence through any array or scalar,
// or both performing I/O (output order is part of the semantics).
func conflicts(i, j access) bool {
	if i.awrite >= 0 && (j.awrite == i.awrite || slices.Contains(j.areads, i.awrite)) {
		return true
	}
	if j.awrite >= 0 && slices.Contains(i.areads, j.awrite) {
		return true
	}
	if i.swrite >= 0 && (j.swrite == i.swrite || slices.Contains(j.sreads, i.swrite)) {
		return true
	}
	if j.swrite >= 0 && slices.Contains(i.sreads, j.swrite) {
		return true
	}
	return i.io && j.io
}

// canonicalize orders the batch s fingerprints topologically over its
// dependence DAG and fingerprints it again in that order, which numbers
// handles and scalars by first appearance in canonical statement order
// (right-hand side in pre-order, then the target): the canonical names.
//
// Among ready ops Kahn's algorithm takes the smallest tie-break key,
// then the earliest issued. An op's key is the hash of its words with
// every operand number replaced by its value source: the key of the op
// that last wrote the operand before it, or the handle's region and
// temp flag when the value enters the batch from outside. Keys thus
// name computations, not handles, and the order is invariant under
// reissuing independent ops in another sequence. Ties fall back to
// issue order: when nothing downstream tells tied ops apart only the
// binding differs, but when a later op reads them asymmetrically
// (a := 1; b := 1; c := a - b reissued with b first) the canonical
// words differ. So does a hash collision between keys, which only
// reorders ready ops. Either costs a second cache entry, never a wrong
// answer: any order canonicalize picks respects every dependence, and
// the canonical words, not the keys, address the cache.
func canonicalize(ops []*op, s *shape, hash func([]uint64) uint64) *canonBatch {
	n := len(ops)
	acc := s.accesses()
	keys := make([]uint64, n)
	// lastA[h] (lastS[x]): the op that last wrote handle h (scalar x) so
	// far, -1 for none.
	lastA, lastS := make([]int, len(s.handles)), make([]int, len(s.scalars))
	for i := range lastA {
		lastA[i] = -1
	}
	for i := range lastS {
		lastS[i] = -1
	}
	var tie shape
	r := 0
	for j, sp := range s.ops {
		// Sources precede their readers in issue order, so every key an
		// operand folds in is already computed.
		tie.words = tie.words[:0]
		at := sp.start
		for ; r < sp.refs; r++ {
			ref := s.refs[r]
			tie.put(s.words[at:ref.pos]...)
			at = ref.pos + 1
			num := int(s.words[ref.pos])
			src := lastA
			if ref.scalar {
				src = lastS
			}
			switch w := src[num]; {
			case w >= 0:
				tie.put(tagSource, keys[w])
			case ref.scalar:
				tie.put(tagOutside)
			default:
				h := s.handles[num]
				tie.put(tagOutside)
				tie.region(h.region)
				tie.put(b2u(h.temp))
			}
		}
		tie.put(s.words[at:sp.end]...)
		keys[j] = hash(tie.words)
		if acc[j].awrite >= 0 {
			lastA[acc[j].awrite] = j
		}
		if acc[j].swrite >= 0 {
			lastS[acc[j].swrite] = j
		}
	}

	// Dependence edges (quadratic; batches are small). They only point
	// forward in issue order, so the graph is acyclic.
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
	var ready []int
	for j := 0; j < n; j++ {
		if indeg[j] == 0 {
			ready = append(ready, j)
		}
	}
	cb := &canonBatch{order: make([]*op, 0, n)}
	for len(ready) > 0 {
		best := 0
		for k := 1; k < len(ready); k++ {
			a, b := ready[k], ready[best]
			if keys[a] < keys[b] || (keys[a] == keys[b] && a < b) {
				best = k
			}
		}
		j := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		cb.order = append(cb.order, ops[j])
		for _, d := range adj[j] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	cb.of(cb.order, func(h *Handle) bool { return s.escapes[s.anum[h]] })
	return cb
}

// key is the batch's content address in the compilation cache: its
// canonical words as bytes, under the compilation options.
func (cb *canonBatch) key(dopt driver.Options) ccache.Key {
	return ccache.KeyOfKind(cb.source(), dopt, ccache.ArtifactLazy)
}

// source is the canonical words as little-endian bytes, the "source" a
// lazy cache entry is addressed by.
func (cb *canonBatch) source() string {
	b := make([]byte, 0, 8*len(cb.words))
	for _, w := range cb.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// build constructs the canonical AIR program for the batch, the input
// driver.CompileAIR compiles (and rewrites in place) on a cache miss.
func (cb *canonBatch) build() (*air.Program, error) {
	arrays := map[string]*air.ArrayInfo{}
	for i, h := range cb.handles {
		arrays["v"+strconv.Itoa(i)] = &air.ArrayInfo{
			Name:     "v" + strconv.Itoa(i),
			Elem:     ast.Double,
			Declared: cloneRegion(h.region),
			Alloc:    cloneRegion(h.region),
			Temp:     h.temp,
			Escapes:  cb.escapes[i],
		}
	}
	scalars := map[string]*air.ScalarInfo{}
	for i := range cb.scalars {
		scalars["s"+strconv.Itoa(i)] = &air.ScalarInfo{
			Name: "s" + strconv.Itoa(i),
			Type: ast.Double,
		}
	}

	aname := func(h *Handle) string { return "v" + strconv.Itoa(cb.anum[h]) }
	sname := func(s *ScalarHandle) string { return "s" + strconv.Itoa(cb.snum[s]) }

	var stmts []air.Stmt
	id := 0
	ntemp := 0
	for _, o := range cb.order {
		switch o.kind {
		case opAssign:
			rank := o.region.Rank()
			rhs := airExpr(o.rhs, rank, aname, sname)
			lhs := aname(o.target)
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
				Target: sname(o.starget),
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

// shape is the one encoding of a batch: its op stream as integer words.
// The words hold op kinds, regions, reduce operators, the expression
// trees (operators, offsets, Index dimensions, constants as their IEEE
// bits, builtin names byte for byte), writeln strings byte for byte, and
// every handle and scalar replaced by its number in order of first
// appearance (right-hand side in pre-order, then the target), each
// handle's region, temp flag and escape bit appended. Pointer identity
// never enters, so the fresh Temp a solver allocates every sweep does
// not change a shape; aliasing does, so a := f(a) and a := f(b) differ.
//
// It has three uses. In issue order it is the canonicalization memo's
// key. Within canonicalize, an op's words with its operand numbers
// replaced by their value sources are the op's tie-break key. In
// canonical order its numbers are the canonical names and its words the
// batch's content address (canonBatch). Everything canonicalize reads is
// in the issue-order words, so the memo is at least as fine as the
// canonical key; every word is in the canonical words, so the key is at
// least as fine as the compiled program.
type shape struct {
	words   []uint64
	handles []*Handle       // handles[i] is the handle numbered i
	scalars []*ScalarHandle // scalars[i] is the scalar numbered i
	escapes []bool          // escapes[i]: handle i's value outlives the batch
	anum    map[*Handle]int
	snum    map[*ScalarHandle]int
	ops     []opSpan  // where each op's words and operands are
	refs    []operand // every number in words, in order
}

// opSpan locates one op in its shape: its words are words[start:end],
// and its operands the refs from the previous op's refs up to refs.
type opSpan struct{ start, end, refs int }

// operand is one handle or scalar number in a shape: its position in the
// words, and whether the op writes (rather than reads) it.
type operand struct {
	pos           int
	scalar, write bool
}

// Token tags: each starts a self-delimiting group, so two different op
// streams never produce the same words. tagSource and tagOutside occur
// only in tie-break words, each in place of an operand number.
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
	tagSource
	tagOutside
)

// of fingerprints ops into s, reusing its storage; escapes reports
// whether a Temp's value must outlive the batch.
func (s *shape) of(ops []*op, escapes func(*Handle) bool) {
	s.words = s.words[:0]
	clear(s.handles)
	clear(s.scalars)
	s.handles, s.scalars, s.escapes = s.handles[:0], s.scalars[:0], s.escapes[:0]
	s.ops, s.refs = s.ops[:0], s.refs[:0]
	if s.anum == nil {
		s.anum, s.snum = map[*Handle]int{}, map[*ScalarHandle]int{}
	}
	clear(s.anum)
	clear(s.snum)
	for _, o := range ops {
		start := len(s.words)
		switch o.kind {
		case opAssign:
			s.put(tagAssign)
			s.region(o.region)
			s.expr(o.rhs)
			s.handle(o.target, true)
		case opReduce:
			s.put(tagReduce, uint64(o.rop))
			s.region(o.region)
			s.expr(o.rhs)
			s.scalar(o.starget, true)
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
		s.ops = append(s.ops, opSpan{start, len(s.words), len(s.refs)})
	}
	s.put(uint64(len(s.handles)), uint64(len(s.scalars)))
	for _, h := range s.handles {
		esc := !h.temp || escapes(h)
		s.escapes = append(s.escapes, esc)
		s.region(h.region)
		s.put(b2u(h.temp), b2u(esc))
	}
}

func (s *shape) put(ws ...uint64) { s.words = append(s.words, ws...) }

// handle writes h's number, numbering it on first appearance.
func (s *shape) handle(h *Handle, write bool) {
	n, ok := s.anum[h]
	if !ok {
		n = len(s.handles)
		s.anum[h] = n
		s.handles = append(s.handles, h)
	}
	s.refs = append(s.refs, operand{pos: len(s.words), write: write})
	s.put(uint64(n))
}

// scalar writes x's number, numbering it on first appearance.
func (s *shape) scalar(x *ScalarHandle, write bool) {
	n, ok := s.snum[x]
	if !ok {
		n = len(s.scalars)
		s.snum[x] = n
		s.scalars = append(s.scalars, x)
	}
	s.refs = append(s.refs, operand{pos: len(s.words), scalar: true, write: write})
	s.put(uint64(n))
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
		s.put(tagRef)
		s.handle(x.h, false)
		s.put(uint64(len(x.off)))
		for _, o := range x.off {
			s.put(uint64(o))
		}
	case *Handle:
		s.put(tagRef0)
		s.handle(x, false)
	case *ScalarHandle:
		s.put(tagScalar)
		s.scalar(x, false)
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

// hashWords is the word hash (FNV-1a) behind the memo's buckets and
// canonicalize's tie-break keys. Neither trusts it: buckets only narrow
// the search, a hit being confirmed by comparing every word, and a
// tie-break collision only reorders ready ops.
func hashWords(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// memoEntry is one remembered canonicalization: a batch shape, the
// content address canonicalize gave it, and the binding from the
// shape's numbering to canonical names.
type memoEntry struct {
	words   []uint64
	key     ccache.Key
	handles []int // canonical v<i> is the shape's handle handles[i]
	scalars []int // canonical s<i> is the shape's scalar scalars[i]
}

// memo maps batch shapes to their canonicalization. It holds entries
// only for keys resident in the engine's cache (Engine.dropEvicted).
type memo struct {
	hash    func([]uint64) uint64 // hashWords, for canonicalize too; tests substitute a colliding one
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

// bind fills cb with what canonicalize would give the batch s
// fingerprints, as far as executing its cached compilation needs: the
// handles with their escape bits, and the scalars, in canonical order.
func (me *memoEntry) bind(s *shape, cb *canonBatch) {
	clear(cb.handles)
	clear(cb.scalars)
	cb.handles, cb.escapes, cb.scalars = cb.handles[:0], cb.escapes[:0], cb.scalars[:0]
	for _, n := range me.handles {
		cb.handles = append(cb.handles, s.handles[n])
		cb.escapes = append(cb.escapes, s.escapes[n])
	}
	for _, n := range me.scalars {
		cb.scalars = append(cb.scalars, s.scalars[n])
	}
}
