// codec.go encodes cache entries into the portable envelope that
// travels through the disk and peer tiers:
//
//	"ZPLSTORE2\n" | SHA-256(payload) | payload
//
// The payload is a flat binary rendering, written by hand, of exactly
// what a receiving process reads: the entry's strings and byte fields,
// its response metadata (ccache.Meta) and the executable LIR with the
// array and scalar tables of its source program. One tag byte per node,
// varints (zigzag for signed values), a per-envelope string table, maps
// in sorted key order — so equal entries encode to equal bytes and
// re-encoding a decoded envelope reproduces it. DESIGN.md §17 has the
// format table. Any change to the layout changes the magic: there is
// one codec, no version switch, and an envelope with another magic is
// corrupt (a miss that the disk tier deletes and the next compute
// rewrites).
//
// What deliberately does NOT travel:
//
//   - Comp.AIR / Comp.Plan / Comp.Info — the deep planning structures
//     a response never needs once Meta is precomputed;
//   - LIR.Source.{Procs, Main, NumStmts} — the AIR procedure tree the
//     LIR was scalarized from. Nothing downstream of scalarization
//     reads it (executors and emitters use Source.{Name, Arrays,
//     Scalars} only), and it was more than 40% of the old envelope;
//   - the native binary — an entry holds none, only BinKey, its content
//     address; the Go *source* travels, and each node builds through
//     its own content-addressed backend store (normally a build-cache
//     hit after the first run).
//
// Regions are interned by value, so nodes whose regions are equal share
// one *sema.Region after decoding whether or not they did before. That
// is sound because the executors compare regions by value and never
// mutate a compiled program (the invariant ccache already relies on to
// share entries by reference); the codec differential test re-proves it
// by running decoded programs against the originals on the VM and
// requiring byte-identical output.
//
// Decode is an untrusted boundary (peers POST envelopes to /store/put):
// every count is checked against the bytes that remain before anything
// is allocated, nesting depth is capped, an unknown tag or a trailing
// byte is an error, and no input panics.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/ccache"
	"repro/internal/dep"
	"repro/internal/driver"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/source"
)

// envelope layout: magic | 32-byte SHA-256(payload) | payload.
const (
	envMagic  = "ZPLSTORE2\n"
	envHeader = len(envMagic) + sha256.Size
)

// maxDepth caps how deep nodes and expressions may nest, on both sides:
// Encode refuses what Decode would, so no entry is written that cannot
// be read back. The benchmarks stay under 20.
const maxDepth = 1000

// Tag bytes. Expressions and nodes use disjoint ranges so that a reader
// out of step fails on the next tag.
const (
	tagNil byte = iota // a nil air.Expr (plain return, string writeln argument)
	tagRef
	tagScalar
	tagIndex
	tagConst
	tagBin
	tagUn
	tagCallExpr
)

const (
	tagNest byte = 0x10 + iota
	tagScalarAssign
	tagPartialReduce
	tagLoop
	tagWhile
	tagIf
	tagComm
	tagCall
	tagReturn
	tagWriteln
)

// Encode renders an entry as a self-checking envelope.
func Encode(e *ccache.Entry) ([]byte, error) {
	enc := newEncoder(len(e.Source) + len(e.Plan) + len(e.GoSrc) + len(e.Aux) + 4096)
	enc.buf = append(enc.buf, e.Key[:]...)
	enc.text(string(e.Kind))
	enc.text(e.Source)
	enc.text(e.Plan)
	enc.text(e.GoSrc)
	enc.text(e.BinKey)
	enc.bytes(e.Aux)
	enc.meta(e.Meta)
	if e.Comp != nil {
		enc.program(e.Comp.LIR)
	} else {
		enc.program(nil)
	}
	if enc.err != nil {
		return nil, fmt.Errorf("store: encode: %w", enc.err)
	}
	return enc.seal(), nil
}

// seal frames what was written: magic, checksum, then the two tables
// ahead of the body so a reader has them before the first reference —
// strings as count, every length, then the bytes back to back; regions
// as count, then each one's rank, name and bounds.
func (e *encoder) seal() []byte {
	body := e.buf
	size := envHeader + len(e.regTab) + len(body) + 2*binary.MaxVarintLen64
	for _, s := range e.tab {
		size += len(s) + 2
	}
	e.buf = make([]byte, envHeader, size)
	copy(e.buf, envMagic)
	e.uvarint(uint64(len(e.tab)))
	for _, s := range e.tab {
		e.uvarint(uint64(len(s)))
	}
	for _, s := range e.tab {
		e.buf = append(e.buf, s...)
	}
	e.uvarint(uint64(len(e.regions)))
	e.buf = append(e.buf, e.regTab...)
	out := append(e.buf, body...)
	sum := sha256.Sum256(out[envHeader:])
	copy(out[len(envMagic):], sum[:])
	return out
}

// Verify checks an envelope's framing and payload checksum without
// decoding the body — the cheap integrity gate used before relaying
// disk bytes to a peer.
func Verify(raw []byte) error {
	if len(raw) < envHeader {
		return fmt.Errorf("store: envelope truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(envMagic)]) != envMagic {
		return fmt.Errorf("store: bad envelope magic")
	}
	sum := raw[len(envMagic):envHeader]
	if got := sha256.Sum256(raw[envHeader:]); !bytes.Equal(got[:], sum) {
		return fmt.Errorf("store: envelope checksum mismatch")
	}
	return nil
}

// Decode parses an envelope back into an entry. Any corruption — a
// truncated file, a bad checksum, another version's magic, an
// undecodable body — returns an error; tiers treat that as a miss (and
// the disk tier deletes the offender so the next compute repairs it).
func Decode(raw []byte) (*ccache.Entry, error) {
	if err := Verify(raw); err != nil {
		return nil, err
	}
	d := decoder{b: raw[envHeader:], budget: len(raw) - envHeader}
	d.stringTable()
	d.regionTable()
	e := &ccache.Entry{}
	copy(e.Key[:], d.take(len(e.Key)))
	e.Kind = ccache.ArtifactKind(d.text())
	e.Source = d.text()
	e.Plan = d.text()
	e.GoSrc = d.text()
	e.BinKey = d.text()
	e.Aux = d.bytes()
	e.Meta = d.meta()
	if p := d.program(); p != nil {
		e.Comp = &driver.Compilation{LIR: p}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("store: decode: %w", d.err)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Encoder

// encoder appends to buf and interns names into the string table and
// regions into the region table. The first error (a node the format
// does not know, nesting past maxDepth) sticks; Encode reports it once
// at the end.
type encoder struct {
	buf     []byte
	index   map[string]uint64 // string → its place in tab
	tab     []string
	regions map[string]uint64 // a region's rendering → its place in regTab
	regTab  []byte            // the renderings back to back
	scratch []byte
	depth   int
	err     error
}

func newEncoder(capacity int) *encoder {
	return &encoder{buf: make([]byte, 0, capacity), index: map[string]uint64{}, regions: map[string]uint64{}}
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int)        { e.buf = binary.AppendVarint(e.buf, int64(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// bytes and text write a length-prefixed field in place: the large
// fields (source, Go source, plan, remarks) that occur once per envelope.
func (e *encoder) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

func (e *encoder) text(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// str writes a reference into the string table: the names (arrays,
// scalars, regions, procedures) that occur many times per envelope.
func (e *encoder) str(s string) { e.uvarint(e.intern(s)) }

func (e *encoder) intern(s string) uint64 {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.tab))
		e.index[s] = i
		e.tab = append(e.tab, s)
	}
	return i
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) ints(vs []int) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.int(v)
	}
}

func (e *encoder) pos(p source.Pos) {
	e.int(p.Line)
	e.int(p.Col)
}

// region writes a reference into the region table (+1; 0 for nil).
// Regions are interned by value — a program's hundred references name a
// handful of index sets — so the same table comes out whichever of them
// share a pointer.
func (e *encoder) region(r *sema.Region) {
	if r == nil {
		e.uvarint(0)
		return
	}
	if len(r.Lo) != len(r.Hi) {
		e.fail("region %q has %d lower and %d upper bounds", r.Name, len(r.Lo), len(r.Hi))
		return
	}
	s := binary.AppendUvarint(e.scratch[:0], uint64(len(r.Lo)))
	s = binary.AppendUvarint(s, e.intern(r.Name))
	for _, v := range r.Lo {
		s = binary.AppendVarint(s, int64(v))
	}
	for _, v := range r.Hi {
		s = binary.AppendVarint(s, int64(v))
	}
	e.scratch = s
	i, ok := e.regions[string(s)]
	if !ok {
		i = uint64(len(e.regions))
		e.regions[string(s)] = i
		e.regTab = append(e.regTab, s...)
	}
	e.uvarint(i + 1)
}

func (e *encoder) meta(m *ccache.Meta) {
	e.bool(m != nil)
	if m == nil {
		return
	}
	e.int(m.NestCount)
	e.int(m.Arrays)
	e.int(m.Contracted)
	e.bool(m.Bounds != nil)
	if b := m.Bounds; b != nil {
		e.int(b.Sites)
		e.int(b.Proven)
		e.int(b.Unknown)
		e.int(b.Unsafe)
	}
	e.bool(m.Races != nil)
	if r := m.Races; r != nil {
		e.int(r.Pairs)
		e.int(r.Ordered)
		e.int(r.Race)
		e.int(r.Unknown)
		e.int(r.Deadlocks)
	}
	e.bytes(m.RemarksJSON)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (e *encoder) program(p *lir.Program) {
	e.bool(p != nil)
	if p == nil {
		return
	}
	e.str(p.Name)
	e.bool(p.Source != nil)
	if s := p.Source; s != nil {
		e.str(s.Name)
		e.uvarint(uint64(len(s.Arrays)))
		for _, k := range sortedKeys(s.Arrays) {
			a := s.Arrays[k]
			if a == nil {
				e.fail("array table holds nil for %q", k)
				return
			}
			e.str(k)
			e.str(a.Name)
			e.int(int(a.Elem))
			e.region(a.Declared)
			e.region(a.Alloc)
			e.bool(a.Temp)
			e.bool(a.Escapes)
			e.bool(a.Contracted)
		}
		e.uvarint(uint64(len(s.Scalars)))
		for _, k := range sortedKeys(s.Scalars) {
			sc := s.Scalars[k]
			if sc == nil {
				e.fail("scalar table holds nil for %q", k)
				return
			}
			e.str(k)
			e.str(sc.Name)
			e.int(int(sc.Type))
			e.bool(sc.Config)
			e.f64(sc.Init)
		}
	}

	// Main is written as its position among the sorted procedures
	// (+1; 0 for none), so the decoded Main is the decoded map's value
	// as it is in a compiled program.
	keys := sortedKeys(p.Procs)
	main := 0
	e.uvarint(uint64(len(keys)))
	for i, k := range keys {
		pr := p.Procs[k]
		if pr == nil {
			e.fail("procedure table holds nil for %q", k)
			return
		}
		if pr == p.Main {
			main = i + 1
		}
		e.str(k)
		e.str(pr.Name)
		e.strs(pr.Params)
		e.bool(pr.HasResult)
		e.nodes(pr.Body)
	}
	if p.Main != nil && main == 0 {
		e.fail("main procedure is not in the procedure table")
	}
	e.uvarint(uint64(main))
}

func (e *encoder) nodes(ns []lir.Node) {
	e.uvarint(uint64(len(ns)))
	if e.depth++; e.depth > maxDepth {
		e.fail("nodes nest deeper than %d", maxDepth)
	} else {
		for _, n := range ns {
			e.node(n)
		}
	}
	e.depth--
}

func (e *encoder) node(n lir.Node) {
	switch x := n.(type) {
	case *lir.Nest:
		e.byte(tagNest)
		e.region(x.Region)
		e.ints(x.Order)
		e.uvarint(uint64(len(x.Body)))
		for _, s := range x.Body {
			if s == nil {
				e.fail("nest holds a nil statement")
				return
			}
			e.region(s.Guard)
			e.str(s.LHS)
			e.bool(s.Contracted)
			e.bool(s.IsReduce)
			e.str(s.Target)
			e.int(int(s.Op))
			e.expr(s.RHS)
			e.pos(s.Pos)
		}
		e.uvarint(uint64(len(x.Preloads)))
		for _, pl := range x.Preloads {
			e.str(pl.Var)
			e.str(pl.Array)
			e.ints(pl.Off)
			e.pos(pl.Pos)
		}
	case *lir.ScalarAssign:
		e.byte(tagScalarAssign)
		e.str(x.LHS)
		e.expr(x.RHS)
		e.pos(x.Pos)
	case *lir.PartialReduce:
		e.byte(tagPartialReduce)
		e.str(x.LHS)
		e.region(x.Dest)
		e.int(int(x.Op))
		e.region(x.Region)
		e.expr(x.Body)
		e.pos(x.Pos)
	case *lir.Loop:
		e.byte(tagLoop)
		e.str(x.Var)
		e.expr(x.Lo)
		e.expr(x.Hi)
		e.bool(x.Down)
		e.nodes(x.Body)
	case *lir.While:
		e.byte(tagWhile)
		e.expr(x.Cond)
		e.nodes(x.Body)
	case *lir.If:
		e.byte(tagIf)
		e.expr(x.Cond)
		e.nodes(x.Then)
		e.nodes(x.Else)
	case *lir.Comm:
		e.byte(tagComm)
		e.str(x.Array)
		e.ints(x.Off)
		e.region(x.Reg)
		e.int(int(x.Phase))
		e.int(x.MsgID)
		e.byte(0) // retired: see the decoder's tagComm
		e.pos(x.Pos)
	case *lir.Call:
		e.byte(tagCall)
		e.str(x.Target)
		e.str(x.Proc)
		e.exprs(x.Args)
		e.pos(x.Pos)
	case *lir.Return:
		e.byte(tagReturn)
		e.expr(x.Value)
		e.pos(x.Pos)
	case *lir.Writeln:
		e.byte(tagWriteln)
		e.uvarint(uint64(len(x.Args)))
		for _, a := range x.Args {
			e.str(a.Str)
			e.expr(a.Expr)
		}
		e.pos(x.Pos)
	default:
		e.fail("no encoding for LIR node %T", n)
	}
}

func (e *encoder) exprs(xs []air.Expr) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.expr(x)
	}
}

func (e *encoder) expr(x air.Expr) {
	if e.depth++; e.depth > maxDepth {
		e.fail("expression nests deeper than %d", maxDepth)
		e.depth--
		return
	}
	switch x := x.(type) {
	case nil:
		e.byte(tagNil)
	case *air.RefExpr:
		e.byte(tagRef)
		e.str(x.Ref.Array)
		e.ints(x.Ref.Off)
	case *air.ScalarExpr:
		e.byte(tagScalar)
		e.str(x.Name)
	case *air.IndexExpr:
		e.byte(tagIndex)
		e.int(x.Dim)
	case *air.ConstExpr:
		e.byte(tagConst)
		e.f64(x.Val)
	case *air.BinExpr:
		e.byte(tagBin)
		e.int(int(x.Op))
		e.expr(x.X)
		e.expr(x.Y)
	case *air.UnExpr:
		e.byte(tagUn)
		e.int(int(x.Op))
		e.expr(x.X)
	case *air.CallExpr:
		e.byte(tagCallExpr)
		e.str(x.Name)
		e.exprs(x.Args)
	default:
		e.fail("no encoding for expression %T", x)
	}
	e.depth--
}

// ---------------------------------------------------------------------------
// Decoder

// decoder consumes b. The first error sticks and every later read
// returns a zero value, so callers check once at the end; loops stop on
// it because a failed count is 0.
type decoder struct {
	b       []byte
	budget  int // bytes no count has claimed yet; see claim
	strs    []string
	regions []sema.Region
	depth   int
	err     error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
		d.b = nil
	}
}

// take returns the next n bytes, or nil (and fails) when fewer remain.
func (d *decoder) take(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.fail("truncated: need %d bytes, %d remain", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) bool() bool {
	switch b := d.byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad boolean byte %#x", b)
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// enum reads a varint that must lie in [lo, hi]: a peer's envelope
// may carry any integer, and the engines index tables with these.
func (d *decoder) enum(what string, lo, hi int) int {
	v := d.int()
	if d.err == nil && (v < lo || v > hi) {
		d.fail("%s %d outside [%d, %d]", what, v, lo, hi)
	}
	return v
}

func (d *decoder) reduceOp() air.ReduceOp {
	return air.ReduceOp(d.enum("reduce op", int(air.ReduceSum), int(air.ReduceMin)))
}

func (d *decoder) op() air.Op { return air.Op(d.enum("operator", int(air.OpAdd), int(air.OpNot))) }

func (d *decoder) typeKind() ast.TypeKind {
	return ast.TypeKind(d.enum("type", int(ast.InvalidType), int(ast.Boolean)))
}

func (d *decoder) f64() float64 {
	if p := d.take(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// count reads an element count and checks it before anything is
// allocated for it, against the bytes that remain and against the bytes
// no earlier count has claimed; size is the fewest bytes one element
// takes, not counting the elements of lists inside it. The second check
// is what bounds nested lists: each byte of a valid payload belongs to
// one element of one list, so counts that each fit what remains but
// together claim more than the payload are a lie, and total allocation
// stays proportional to the input at any depth.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(min(len(d.b), d.budget)/size) {
		d.fail("count %d exceeds the %d bytes that remain (%d unclaimed)", n, len(d.b), d.budget)
		return 0
	}
	d.budget -= int(n) * size
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

func (d *decoder) text() string { return string(d.take(d.count(1))) }

// stringTable reads the string table: one conversion for all the bytes,
// each entry a substring of it.
func (d *decoder) stringTable() {
	n := d.count(1)
	if n == 0 {
		return
	}
	lens := make([]int, n)
	total := 0
	for i := range lens {
		lens[i] = d.count(1)
		total += lens[i]
	}
	blob := string(d.take(total))
	if d.err != nil {
		return
	}
	d.strs = make([]string, n)
	for i, l := range lens {
		d.strs[i], blob = blob[:l], blob[l:]
	}
}

func (d *decoder) str() string {
	i := d.uvarint()
	if i >= uint64(len(d.strs)) {
		d.fail("string %d of a table of %d", i, len(d.strs))
		return ""
	}
	return d.strs[i]
}

func (d *decoder) strList() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *decoder) ints() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.int()
	}
	return vs
}

func (d *decoder) pos() source.Pos {
	return source.Pos{Line: d.int(), Col: d.int()}
}

// regionTable reads the region table into one slab; every reference to
// a region decodes as a pointer into it. Sharing is sound because
// nothing mutates a compiled program (see the package comment).
func (d *decoder) regionTable() {
	n := d.count(2)
	if n == 0 {
		return
	}
	d.regions = make([]sema.Region, n)
	for i := range d.regions {
		rank := d.count(2)
		r := &d.regions[i]
		r.Name = d.str()
		// One backing array for both bounds; rank 0 keeps them nil.
		if rank > 0 {
			bounds := make([]int, 2*rank)
			for j := range bounds {
				bounds[j] = d.int()
			}
			r.Lo, r.Hi = bounds[:rank:rank], bounds[rank:]
		}
	}
}

func (d *decoder) region() *sema.Region {
	i := d.uvarint()
	if i == 0 {
		return nil
	}
	if i > uint64(len(d.regions)) {
		d.fail("region %d of a table of %d", i, len(d.regions))
		return nil
	}
	return &d.regions[i-1]
}

func (d *decoder) meta() *ccache.Meta {
	if !d.bool() {
		return nil
	}
	m := &ccache.Meta{NestCount: d.int(), Arrays: d.int(), Contracted: d.int()}
	if d.bool() {
		m.Bounds = &ccache.BoundsMeta{Sites: d.int(), Proven: d.int(), Unknown: d.int(), Unsafe: d.int()}
	}
	if d.bool() {
		m.Races = &ccache.RaceMeta{Pairs: d.int(), Ordered: d.int(), Race: d.int(), Unknown: d.int(), Deadlocks: d.int()}
	}
	m.RemarksJSON = d.bytes()
	return m
}

// key reads a map key and requires the keys of one map to ascend, which
// is how Encode writes them: a repeated key would silently drop a value.
func (d *decoder) key(prev *string, first bool) string {
	k := d.str()
	if !first && k <= *prev {
		d.fail("map key %q after %q", k, *prev)
	}
	*prev = k
	return k
}

func (d *decoder) program() *lir.Program {
	if !d.bool() {
		return nil
	}
	p := &lir.Program{Name: d.str()}
	if d.bool() {
		s := &air.Program{Name: d.str()}
		var prev string
		n := d.count(8)
		s.Arrays = make(map[string]*air.ArrayInfo, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.Arrays[d.key(&prev, i == 0)] = &air.ArrayInfo{
				Name:       d.str(),
				Elem:       d.typeKind(),
				Declared:   d.region(),
				Alloc:      d.region(),
				Temp:       d.bool(),
				Escapes:    d.bool(),
				Contracted: d.bool(),
			}
		}
		n = d.count(12)
		s.Scalars = make(map[string]*air.ScalarInfo, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.Scalars[d.key(&prev, i == 0)] = &air.ScalarInfo{
				Name:   d.str(),
				Type:   d.typeKind(),
				Config: d.bool(),
				Init:   d.f64(),
			}
		}
		p.Source = s
	}

	var prev string
	n := d.count(5)
	p.Procs = make(map[string]*lir.Proc, n)
	procs := make([]*lir.Proc, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.key(&prev, i == 0)
		pr := &lir.Proc{Name: d.str(), Params: d.strList(), HasResult: d.bool(), Body: d.nodes()}
		p.Procs[k] = pr
		procs = append(procs, pr)
	}
	switch main := d.uvarint(); {
	case main > uint64(len(procs)):
		d.fail("main is procedure %d of %d", main, len(procs))
	case main > 0:
		p.Main = procs[main-1]
	}
	return p
}

func (d *decoder) nodes() []lir.Node {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	if d.depth++; d.depth > maxDepth {
		d.fail("nodes nest deeper than %d", maxDepth)
		return nil
	}
	ns := make([]lir.Node, n)
	for i := range ns {
		if ns[i] = d.node(); d.err != nil {
			return nil
		}
	}
	d.depth--
	return ns
}

func (d *decoder) node() lir.Node {
	switch tag := d.byte(); tag {
	case tagNest:
		x := &lir.Nest{Region: d.region(), Order: dep.LoopStructure(d.ints())}
		if n := d.count(8); n > 0 {
			stmts := make([]lir.NestStmt, n)
			x.Body = make([]*lir.NestStmt, n)
			for i := range stmts {
				stmts[i] = lir.NestStmt{
					Guard:      d.region(),
					LHS:        d.str(),
					Contracted: d.bool(),
					IsReduce:   d.bool(),
					Target:     d.str(),
					Op:         d.reduceOp(),
					RHS:        d.expr(),
					Pos:        d.pos(),
				}
				x.Body[i] = &stmts[i]
			}
		}
		if n := d.count(5); n > 0 {
			x.Preloads = make([]lir.Preload, n)
			for i := range x.Preloads {
				x.Preloads[i] = lir.Preload{Var: d.str(), Array: d.str(), Off: air.Offset(d.ints()), Pos: d.pos()}
			}
		}
		return x
	case tagScalarAssign:
		return &lir.ScalarAssign{LHS: d.str(), RHS: d.expr(), Pos: d.pos()}
	case tagPartialReduce:
		return &lir.PartialReduce{
			LHS: d.str(), Dest: d.region(), Op: d.reduceOp(),
			Region: d.region(), Body: d.expr(), Pos: d.pos(),
		}
	case tagLoop:
		return &lir.Loop{Var: d.str(), Lo: d.expr(), Hi: d.expr(), Down: d.bool(), Body: d.nodes()}
	case tagWhile:
		return &lir.While{Cond: d.expr(), Body: d.nodes()}
	case tagIf:
		return &lir.If{Cond: d.expr(), Then: d.nodes(), Else: d.nodes()}
	case tagComm:
		x := &lir.Comm{
			Array: d.str(), Off: air.Offset(d.ints()), Reg: d.region(),
			Phase: air.CommPhase(d.enum("comm phase", int(air.CommSend), int(air.CommRecv))), MsgID: d.int(),
		}
		// This byte held Piggyback, retired when every exchange became
		// a pipelined pair. It is always 0; keeping it keeps the layout.
		if b := d.byte(); b != 0 {
			d.fail("retired comm byte %#x", b)
		}
		x.Pos = d.pos()
		return x
	case tagCall:
		return &lir.Call{Target: d.str(), Proc: d.str(), Args: d.exprs(), Pos: d.pos()}
	case tagReturn:
		return &lir.Return{Value: d.expr(), Pos: d.pos()}
	case tagWriteln:
		x := &lir.Writeln{}
		if n := d.count(2); n > 0 {
			x.Args = make([]air.WriteArg, n)
			for i := range x.Args {
				x.Args[i] = air.WriteArg{Str: d.str(), Expr: d.expr()}
			}
		}
		x.Pos = d.pos()
		return x
	default:
		d.fail("unknown node tag %#x", tag)
		return nil
	}
}

func (d *decoder) exprs() []air.Expr {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]air.Expr, n)
	for i := range xs {
		xs[i] = d.expr()
	}
	return xs
}

func (d *decoder) expr() air.Expr {
	if d.depth++; d.depth > maxDepth {
		d.fail("expression nests deeper than %d", maxDepth)
		return nil
	}
	x := d.exprBody()
	d.depth--
	return x
}

func (d *decoder) exprBody() air.Expr {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		return &air.RefExpr{Ref: air.Ref{Array: d.str(), Off: air.Offset(d.ints())}}
	case tagScalar:
		return &air.ScalarExpr{Name: d.str()}
	case tagIndex:
		return &air.IndexExpr{Dim: d.int()}
	case tagConst:
		return &air.ConstExpr{Val: d.f64()}
	case tagBin:
		return &air.BinExpr{Op: d.op(), X: d.expr(), Y: d.expr()}
	case tagUn:
		return &air.UnExpr{Op: d.op(), X: d.expr()}
	case tagCallExpr:
		return &air.CallExpr{Name: d.str(), Args: d.exprs()}
	default:
		d.fail("unknown expression tag %#x", tag)
		return nil
	}
}
