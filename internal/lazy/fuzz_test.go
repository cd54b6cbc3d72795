package lazy

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/air"
	"repro/internal/ccache"
	"repro/internal/driver"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzCanonicalize from fuzzSeeds")

// A fuzz input is a small op stream, decoded byte by byte (a missing
// byte reads as 0):
//
//	header  b0: handles 1+b0%4, temp mask b0>>2 (bit i: handle i is a Temp)
//	        b1: 2 bits per handle, its declared region (handleRegions)
//	        b2: scalars (b2&3)%3, escape mask b2>>2 (bit i: Temp i escapes)
//	op      kind b&3, then by kind:
//	        assign   (kind 0 or 3) target (b>>2&3)%handles, region (b>>4)&3 (assignRegion), rhs
//	        reduce   target (b>>2&3)%scalars, operator (b>>4)&3, region b>>6 (reduceRegions), body
//	                 (with no scalars: an assign)
//	        writeln  string "w<(b>>2)&3>", one scalar expression
//	expr    tag b&7: 0 h@off (h (b>>3)&3, off (b>>5)%3-1), 1 h, 2 const (next byte as int8 / 4,
//	        -128 is -0), 3 index1, 4 scalar (b>>3), 5 binary (+ - * / by (b>>3)&3), 6 negation,
//	        7 abs (b>>3 even) or max; past depth 3 only tags 0-4. In scalar context array
//	        reads and index1 read a constant instead.
//
// At most 8 ops are decoded; everything is rank 1.
const (
	fuzzMaxOps   = 8
	fuzzMaxDepth = 3
)

var (
	handleRegions = [4][2]int{{1, 6}, {1, 6}, {1, 5}, {2, 6}}
	reduceRegions = [4][2]int{{1, 4}, {2, 5}, {1, 6}, {3, 3}}
)

// assignRegion is an assign's region within its target's [lo, hi].
func assignRegion(v, lo, hi int) (int, int) {
	switch v {
	case 1:
		return lo, hi - 1
	case 2:
		return lo + 1, hi
	}
	return lo, hi
}

type fuzzExpr struct {
	tag  int
	n    int // handle, scalar, operator or builtin index
	off  int
	val  float64
	kids []*fuzzExpr
}

type fuzzOp struct {
	kind   opKind
	target int
	region [2]int
	rop    air.ReduceOp
	str    string
	e      *fuzzExpr
}

type fuzzStream struct {
	temps, escapes []bool
	regions        [][2]int
	scalars        int
	ops            []fuzzOp
}

type fuzzDecoder struct {
	data []byte
	pos  int
}

func (d *fuzzDecoder) next() byte {
	if d.pos >= len(d.data) {
		d.pos++
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func decodeStream(data []byte) *fuzzStream {
	d := &fuzzDecoder{data: data}
	b0, b1, b2 := d.next(), d.next(), d.next()
	nh := 1 + int(b0%4)
	s := &fuzzStream{scalars: int(b2&3) % 3}
	for i := 0; i < nh; i++ {
		s.temps = append(s.temps, b0>>(2+i)&1 == 1)
		s.escapes = append(s.escapes, b2>>(2+i)&1 == 1)
		s.regions = append(s.regions, handleRegions[b1>>(2*i)&3])
	}
	for len(s.ops) < fuzzMaxOps && d.pos < len(data) {
		b := d.next()
		var o fuzzOp
		switch kind := b & 3; {
		case kind == 2:
			o = fuzzOp{kind: opWriteln, str: "w" + strconv.Itoa(int(b>>2&3)), e: d.expr(s, 0, true)}
		case kind == 1 && s.scalars > 0:
			r := reduceRegions[b>>6]
			o = fuzzOp{kind: opReduce, target: int(b>>2&3) % s.scalars, rop: air.ReduceSum + air.ReduceOp(b>>4&3),
				region: r, e: d.expr(s, 0, false)}
		default:
			t := int(b>>2&3) % nh
			lo, hi := assignRegion(int(b>>4&3), s.regions[t][0], s.regions[t][1])
			o = fuzzOp{kind: opAssign, target: t, region: [2]int{lo, hi}, e: d.expr(s, 0, false)}
		}
		s.ops = append(s.ops, o)
	}
	return s
}

func (d *fuzzDecoder) expr(s *fuzzStream, depth int, scalarCtx bool) *fuzzExpr {
	b := d.next()
	tag := int(b & 7)
	if depth >= fuzzMaxDepth {
		tag %= 5
	}
	if scalarCtx && (tag <= 1 || tag == 3) || tag == 4 && s.scalars == 0 {
		return &fuzzExpr{tag: 2, val: float64(tag)}
	}
	x := &fuzzExpr{tag: tag}
	switch tag {
	case 0:
		x.n, x.off = int(b>>3&3)%len(s.temps), int(b>>5)%3-1
	case 1:
		x.n = int(b>>3&3) % len(s.temps)
	case 2:
		if v := int8(d.next()); v == math.MinInt8 {
			x.val = math.Copysign(0, -1)
		} else {
			x.val = float64(v) / 4
		}
	case 4:
		x.n = int(b>>3) % s.scalars
	case 5:
		x.n = int(b >> 3 & 3)
		x.kids = []*fuzzExpr{d.expr(s, depth+1, scalarCtx), d.expr(s, depth+1, scalarCtx)}
	case 6:
		x.kids = []*fuzzExpr{d.expr(s, depth+1, scalarCtx)}
	case 7:
		x.n = int(b >> 3 & 1)
		x.kids = []*fuzzExpr{d.expr(s, depth+1, scalarCtx)}
		if x.n == 1 {
			x.kids = append(x.kids, d.expr(s, depth+1, scalarCtx))
		}
	}
	return x
}

// recording is one stream recorded on a fresh engine.
type recording struct {
	e       *Engine
	handles []*Handle
	scalars []*ScalarHandle
	escapes map[*Handle]bool
}

// record issues the stream's ops in the given order on a fresh engine,
// allocating its handles last to first when reversed (so that neither
// pointers nor allocation order match another recording's). stamp adds
// the op's own index to every op, which rules out structural ties.
func (s *fuzzStream) record(order []int, reversed, stamp bool) *recording {
	rc := &recording{e: NewEngine(Options{}), escapes: map[*Handle]bool{}}
	rc.handles = make([]*Handle, len(s.temps))
	for k := range s.temps {
		i := k
		if reversed {
			i = len(s.temps) - 1 - k
		}
		r := R(s.regions[i][0], s.regions[i][1])
		if s.temps[i] {
			rc.handles[i] = rc.e.Temp("", r)
		} else {
			rc.handles[i] = rc.e.Array("", r)
		}
		if s.escapes[i] {
			rc.escapes[rc.handles[i]] = true
		}
	}
	for i := 0; i < s.scalars; i++ {
		rc.scalars = append(rc.scalars, rc.e.Scalar("", 0))
	}
	for _, k := range order {
		o := s.ops[k]
		rhs := rc.expr(o.e)
		if stamp {
			rhs = Add(rhs, Const(float64(1000+k)))
		}
		switch o.kind {
		case opAssign:
			rc.handles[o.target].Assign(R(o.region[0], o.region[1]), rhs)
		case opReduce:
			rc.scalars[o.target].Reduce(o.rop, R(o.region[0], o.region[1]), rhs)
		case opWriteln:
			rc.e.Writeln(o.str, rhs)
		}
	}
	return rc
}

func (rc *recording) expr(x *fuzzExpr) Expr {
	switch x.tag {
	case 0:
		return rc.handles[x.n].At(x.off)
	case 1:
		return rc.handles[x.n]
	case 3:
		return Index(1)
	case 4:
		return rc.scalars[x.n]
	case 5:
		return []func(Expr, Expr) Expr{Add, Sub, Mul, Div}[x.n](rc.expr(x.kids[0]), rc.expr(x.kids[1]))
	case 6:
		return Neg(rc.expr(x.kids[0]))
	case 7:
		if x.n == 1 {
			return Max(rc.expr(x.kids[0]), rc.expr(x.kids[1]))
		}
		return Abs(rc.expr(x.kids[0]))
	}
	return Const(x.val)
}

// canon fingerprints the recording's pending ops as one batch and
// canonicalizes them.
func (rc *recording) canon(t *testing.T) (*shape, *canonBatch, ccache.Key) {
	t.Helper()
	if rc.e.err != nil {
		t.Fatalf("recording failed: %v", rc.e.err)
	}
	s := &shape{}
	s.of(rc.e.pending, func(h *Handle) bool { return rc.escapes[h] })
	cb := canonicalize(rc.e.pending, s, hashWords)
	return s, cb, cb.key(driver.Options{})
}

// reissue is a random order of the stream's ops that keeps every pair of
// conflicting ops (conflicts: RAW/WAR/WAW, both I/O) in issue order.
func reissue(ops []*op, rng *rand.Rand) []int {
	n := len(ops)
	var s shape
	s.of(ops, func(*Handle) bool { return false })
	acc := s.accesses()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if conflicts(acc[i], acc[j]) {
				indeg[j]++
			}
		}
	}
	var order []int
	done := make([]bool, n)
	for len(order) < n {
		var ready []int
		for j := 0; j < n; j++ {
			if !done[j] && indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
		j := ready[rng.Intn(len(ready))]
		done[j] = true
		order = append(order, j)
		for k := j + 1; k < n; k++ {
			if conflicts(acc[j], acc[k]) {
				indeg[k]--
			}
		}
	}
	return order
}

// FuzzCanonicalize holds the canonicalization memo to canonicalize on
// small op streams (at most 8 ops over 4 handles and 2 scalars):
//
//   - The memo path and canonicalize agree. A stream remembered once is
//     found again for the same stream recorded on other handles (also
//     when every shape hashes alike), and its entry names the cache key
//     and the handle and scalar binding canonicalize gives that
//     recording.
//   - Reissuing the independent ops in another order keeps the
//     canonical key. Ties between structurally identical ops fall back
//     to issue order (canon.go), so this is checked on the stream with
//     every op stamped with its own constant.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeStream(data)
		if len(s.ops) == 0 {
			return
		}
		identity := make([]int, len(s.ops))
		for i := range identity {
			identity[i] = i
		}
		a, b := s.record(identity, false, false), s.record(identity, true, false)
		shA, cbA, keyA := a.canon(t)
		shB, cbB, keyB := b.canon(t)
		for _, hash := range []func([]uint64) uint64{hashWords, collideAll} {
			m := memo{hash: hash}
			m.add(shA, keyA, cbA)
			me := m.find(shB)
			if me == nil {
				t.Fatal("the same stream on other handles missed the memo")
			}
			if me.key != keyB {
				t.Fatalf("memo key %s, canonicalize %s:\n%s", me.key, keyB, statements(t, cbB))
			}
			var bound canonBatch
			me.bind(shB, &bound)
			if !slices.Equal(bound.handles, cbB.handles) || !slices.Equal(bound.scalars, cbB.scalars) ||
				!slices.Equal(bound.escapes, cbB.escapes) {
				t.Fatalf("memo binding differs from canonicalize's:\n%s", statements(t, cbB))
			}
		}

		_, stamped, stampedKey := s.record(identity, false, true).canon(t)
		rng := rand.New(rand.NewSource(int64(hashWords(wordsOf(data)))))
		order := reissue(s.record(identity, false, true).e.pending, rng)
		if _, again, againKey := s.record(order, true, true).canon(t); againKey != stampedKey {
			t.Fatalf("reissued as %v, the canonical key changed:\n%swant:\n%s", order, statements(t, again), statements(t, stamped))
		}
	})
}

func wordsOf(data []byte) []uint64 {
	ws := make([]uint64, len(data))
	for i, b := range data {
		ws[i] = uint64(b)
	}
	return ws
}

// The seed encoder: the bytes the decoder above reads, spelled out.
func header(handles int, temps byte, regions [4]byte, scalars int, escapes byte) []byte {
	return []byte{byte(handles-1) | temps<<2, regions[0] | regions[1]<<2 | regions[2]<<4 | regions[3]<<6,
		byte(scalars) | escapes<<2}
}

func assign(target, region byte) byte        { return target<<2 | region<<4 }
func reduce(target, rop, region byte) byte   { return 1 | target<<2 | rop<<4 | region<<6 }
func writeln(str byte) byte                  { return 2 | str<<2 }
func at(h byte, off int) byte                { return h<<3 | byte(off+1)<<5 }
func ref(h byte) byte                        { return 1 | h<<3 }
func num(v int8) []byte                      { return []byte{2, byte(v)} }
func sref(s byte) byte                       { return 4 | s<<3 }
func bin(op byte) byte                       { return 5 | op<<3 }
func seed(parts ...interface{}) (out []byte) { return appendSeed(out, parts) }

func appendSeed(out []byte, parts []interface{}) []byte {
	for _, p := range parts {
		switch x := p.(type) {
		case byte:
			out = append(out, x)
		case []byte:
			out = append(out, x...)
		}
	}
	return out
}

const (
	add, sub, mul = 0, 1, 2
	index1, neg   = byte(3), byte(6)
	abs           = byte(7)
)

// fuzzSeeds is the committed corpus.
func fuzzSeeds() map[string][]byte {
	return map[string][]byte{
		"empty": {},
		// The bench solver: avg (a Temp) := 0.25 * (cur@-1 + cur@1);
		// nxt := cur + 0.8 * (avg - cur); res := max<< abs(nxt - cur).
		"jacobi": seed(header(3, 0b100, [4]byte{}, 1, 0), assign(2, 1), bin(mul), num(1), bin(add), at(0, -1), at(0, 1),
			assign(1, 1), bin(add), ref(0), bin(mul), num(3), bin(sub), ref(2), ref(0),
			reduce(0, 2, 1), abs, bin(sub), ref(1), ref(0)),
		// a := a + 1 (read and written: the _t snapshot) then b := a.
		"self-update": seed(header(2, 0, [4]byte{}, 0, 0), assign(0, 0), bin(add), ref(0), num(4), assign(1, 0), ref(0)),
		// a := 1; b := 1; c := a - b: two tied writes read asymmetrically.
		"tied-writes": seed(header(3, 0, [4]byte{}, 0, 0), assign(0, 0), num(4), assign(1, 0), num(4),
			assign(2, 0), bin(sub), ref(0), ref(1)),
		// s := +<< a; writeln("w1", s); a := -0.
		"writeln-negzero": seed(header(1, 0, [4]byte{2}, 1, 0), reduce(0, 0, 0), ref(0), writeln(1), sref(0),
			assign(0, 0), num(math.MinInt8)),
		// An escaping Temp t := index1 on a shifted region, read by a
		// := t@1 over a narrower one.
		"escaping-temp": seed(header(2, 0b01, [4]byte{3, 0}, 0, 0b01), assign(0, 2), index1, assign(1, 1), at(0, 1)),
		// Independent ops over four handles in a deliberately unsorted
		// issue order, with negation and min/max calls.
		"independent": seed(header(4, 0, [4]byte{0, 1, 2, 3}, 2, 0), assign(3, 0), neg, index1, assign(2, 0), abs, num(-8),
			assign(1, 1), byte(7|1<<3), index1, num(2), reduce(1, 3, 2), ref(0), reduce(0, 1, 0), at(1, 1)),
	}
}

const fuzzDir = "testdata/fuzz/FuzzCanonicalize"

// TestFuzzCorpusCurrent keeps the committed seeds equal to fuzzSeeds
// (go test ./internal/lazy -run TestFuzzCorpusCurrent -update rewrites
// them). Other files in the directory — a fuzzer's findings — are left
// alone, and run with the seeds.
func TestFuzzCorpusCurrent(t *testing.T) {
	if *update {
		if err := os.MkdirAll(fuzzDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, raw := range fuzzSeeds() {
		want := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(raw)) + ")\n")
		path := filepath.Join(fuzzDir, name)
		if *update {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || !bytes.Equal(have, want) {
			t.Errorf("seed %s is missing or stale (%v); regenerate with -update", name, err)
		}
	}
}
