package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/ast"
	"repro/internal/ccache"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/gogen"
	"repro/internal/lir"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/source"
)

var update = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzDecode from this build's codec")

// serviceEntry builds the entry zpld's compile path caches: the
// compilation, its remarks in wire form, and (sequential programs only)
// the generated Go source.
func serviceEntry(t testing.TB, src string, opt driver.Options) *ccache.Entry {
	t.Helper()
	comp, err := driver.Compile(src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	remarks, err := json.Marshal(comp.Plan.Remarks())
	if err != nil {
		t.Fatal(err)
	}
	e := &ccache.Entry{
		Key:    ccache.KeyOf(src, opt),
		Kind:   ccache.ArtifactIR,
		Source: src,
		Comp:   comp,
		Plan:   fmt.Sprintf("program %s at %s\n", comp.AIR.Name, comp.Plan.Level),
		Meta: &ccache.Meta{
			NestCount:   comp.LIR.CountNests(),
			Bounds:      &ccache.BoundsMeta{Sites: 3, Proven: 3},
			RemarksJSON: remarks,
		},
	}
	if opt.Comm == nil {
		if e.GoSrc, err = gogen.EmitBounds(comp.LIR, comp.Bounds); err != nil {
			t.Fatalf("emit: %v", err)
		}
	}
	return e
}

func roundTrip(t testing.TB, e *ccache.Entry) (raw []byte, got *ccache.Entry) {
	t.Helper()
	raw, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = Decode(raw); err != nil {
		t.Fatal(err)
	}
	return raw, got
}

// TestCodecRoundTripDifferential proves the envelope preserves what an
// executor reads, over the six benchmarks at every ladder level,
// sequential and distributed: the decoded program prints, runs and
// (where the entry carries Go source) emits exactly as the original,
// and the serializable fields survive untouched.
func TestCodecRoundTripDifferential(t *testing.T) {
	p2 := comm.DefaultOptions(2)
	for _, b := range programs.All() {
		for _, level := range core.AllLevels() {
			for _, co := range []*comm.Options{nil, &p2} {
				opt := driver.Options{Level: level, Configs: map[string]int64{b.SizeConfig: 16}, Comm: co}
				name := fmt.Sprintf("%s/%s/seq", b.Name, level)
				if co != nil {
					name = fmt.Sprintf("%s/%s/p2", b.Name, level)
				}
				t.Run(name, func(t *testing.T) {
					e := serviceEntry(t, b.Source, opt)
					e.BinKey = "abc123"
					e.Aux = []byte("aux-bytes")
					_, got := roundTrip(t, e)

					if got.Key != e.Key || got.Kind != e.Kind || got.Source != e.Source ||
						got.Plan != e.Plan || got.GoSrc != e.GoSrc || got.BinKey != e.BinKey ||
						string(got.Aux) != "aux-bytes" {
						t.Errorf("fields did not survive round trip: %+v", got)
					}
					if !reflect.DeepEqual(got.Meta, e.Meta) {
						t.Errorf("meta did not survive round trip: %+v", got.Meta)
					}
					if want, have := lir.EmitC(e.Comp.LIR), lir.EmitC(got.Comp.LIR); have != want {
						t.Errorf("decoded program prints differently:\nwant %s\ngot  %s", want, have)
					}
					if want, have := runVM(t, e), runVM(t, got); have != want {
						t.Errorf("decoded program output differs:\nwant %q\ngot  %q", want, have)
					}
					if e.GoSrc != "" {
						// The bounds census is not in the envelope; emit both
						// sides without it so the comparison is of the LIR.
						want, err := gogen.EmitBounds(e.Comp.LIR, nil)
						if err != nil {
							t.Fatal(err)
						}
						have, err := gogen.EmitBounds(got.Comp.LIR, nil)
						if err != nil {
							t.Fatal(err)
						}
						if have != want {
							t.Error("decoded program emits different Go source")
						}
					}
				})
			}
		}
	}
}

// TestEncodeDeterministic: disk.go relies on two writers racing on one
// key writing the same bytes. One entry always encodes to the same
// envelope, and so do two independent compiles of one source.
func TestEncodeDeterministic(t *testing.T) {
	for _, b := range programs.All() {
		opt := driver.Options{Level: core.C2F4, Configs: map[string]int64{b.SizeConfig: 16}}
		e := serviceEntry(t, b.Source, opt)
		first, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			again, err := Encode(e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, first) {
				t.Fatalf("%s: encoding %d of one entry differs from the first", b.Name, i+2)
			}
		}
		other, err := Encode(serviceEntry(t, b.Source, opt))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(other, first) {
			t.Errorf("%s: two compiles of one source encode differently", b.Name)
		}
	}
}

// TestEncodeDecodeEncodeFixedPoint: re-encoding a decoded entry (a node
// serving a peer from its memory tier does exactly this) reproduces the
// envelope byte for byte.
func TestEncodeDecodeEncodeFixedPoint(t *testing.T) {
	p2 := comm.DefaultOptions(2)
	for _, b := range programs.All() {
		for _, co := range []*comm.Options{nil, &p2} {
			e := serviceEntry(t, b.Source, driver.Options{Level: core.C2F4, Configs: map[string]int64{b.SizeConfig: 16}, Comm: co})
			raw, got := roundTrip(t, e)
			again, err := Encode(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, raw) {
				t.Errorf("%s (comm %v): Encode(Decode(raw)) != raw (%d vs %d bytes)", b.Name, co != nil, len(again), len(raw))
			}
		}
	}
}

// staysHome lists the fields reachable from lir.Program that the
// envelope deliberately does not carry (codec.go's package comment says
// why). A field added to lir, air or sema fails
// TestCodecCarriesEveryField until the codec carries it or this list
// names it.
var staysHome = map[string]bool{
	"air.Program.Procs":    true,
	"air.Program.Main":     true,
	"air.Program.NumStmts": true,
}

// filler sets every field it can reach to a distinct non-zero value.
type filler struct {
	t        *testing.T
	n        int
	nodes    int             // lir.Node nesting so far
	exprs    int             // air.Expr nesting so far
	nextExpr int             // rotation over exprKinds
	seen     map[string]bool // "pkg.Type.Field" set non-zero at least once
}

var (
	nodeType  = reflect.TypeOf((*lir.Node)(nil)).Elem()
	exprType  = reflect.TypeOf((*air.Expr)(nil)).Elem()
	nodeKinds = []reflect.Type{
		reflect.TypeOf(lir.Nest{}), reflect.TypeOf(lir.ScalarAssign{}), reflect.TypeOf(lir.PartialReduce{}),
		reflect.TypeOf(lir.Loop{}), reflect.TypeOf(lir.While{}), reflect.TypeOf(lir.If{}),
		reflect.TypeOf(lir.Comm{}), reflect.TypeOf(lir.Call{}), reflect.TypeOf(lir.Return{}),
		reflect.TypeOf(lir.Writeln{}),
	}
	// The three kinds with operands first: deep in an expression only
	// the leaves after them are used.
	exprKinds = []reflect.Type{
		reflect.TypeOf(air.BinExpr{}), reflect.TypeOf(air.UnExpr{}), reflect.TypeOf(air.CallExpr{}),
		reflect.TypeOf(air.RefExpr{}), reflect.TypeOf(air.ScalarExpr{}), reflect.TypeOf(air.IndexExpr{}),
		reflect.TypeOf(air.ConstExpr{}),
	}
	// The int types Decode range-checks, with the non-zero values the
	// filler may pick for them.
	enumRanges = map[reflect.Type][2]int{
		reflect.TypeOf(air.CommPhase(0)): {int(air.CommSend), int(air.CommRecv)},
		reflect.TypeOf(air.ReduceOp(0)):  {1, int(air.ReduceMin)},
		reflect.TypeOf(air.Op(0)):        {1, int(air.OpNot)},
		reflect.TypeOf(ast.TypeKind(0)):  {1, int(ast.Boolean)},
	}
)

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		if r, ok := enumRanges[v.Type()]; ok {
			v.SetInt(int64(r[0] + f.n%(r[1]-r[0]+1)))
			break
		}
		// Alternate signs so zigzag is exercised.
		if f.n%2 == 0 {
			v.SetInt(int64(f.n))
		} else {
			v.SetInt(-int64(f.n))
		}
	case reflect.Uint8:
		v.SetUint(uint64(f.n%255) + 1)
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.5)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(f.n%40)) // repeats, so the string table is shared
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			name := v.Type().String() + "." + sf.Name
			if staysHome[name] {
				continue
			}
			if sf.PkgPath != "" {
				f.t.Fatalf("%s is unexported: the codec cannot carry it and this test cannot fill it", name)
			}
			f.fill(v.Field(i))
			if !v.Field(i).IsZero() {
				f.seen[name] = true
			}
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			k.SetString(fmt.Sprintf("k%d.%d", f.n, i))
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Slice:
		if v.Type().Elem() == nodeType {
			// One node of each kind, until the nesting is deep enough.
			if f.nodes >= 2 {
				return
			}
			f.nodes++
			v.Set(reflect.MakeSlice(v.Type(), len(nodeKinds), len(nodeKinds)))
			for i, kind := range nodeKinds {
				x := reflect.New(kind)
				f.fill(x.Elem())
				v.Index(i).Set(x)
			}
			f.nodes--
			return
		}
		n := 2
		if v.Type().Elem() == exprType {
			n = 3
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Interface:
		if v.Type() != exprType {
			f.t.Fatalf("no implementations listed for a field of interface type %s", v.Type())
		}
		kinds := exprKinds
		if f.exprs >= 3 {
			kinds = exprKinds[3:]
		}
		x := reflect.New(kinds[f.nextExpr%len(kinds)])
		f.nextExpr++
		f.exprs++
		f.fill(x.Elem())
		f.exprs--
		v.Set(x)
	default:
		f.t.Fatalf("filler does not know kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestCodecCarriesEveryField is the completeness guard gob's reflection
// gave for free: every field of every type reachable from lir.Program
// (and ccache.Meta) is filled with a non-zero value by reflection,
// round-tripped, and must come back equal — up to staysHome.
func TestCodecCarriesEveryField(t *testing.T) {
	var root struct {
		Meta *ccache.Meta
		LIR  *lir.Program
	}
	f := &filler{t: t, seen: map[string]bool{}}
	f.fill(reflect.ValueOf(&root).Elem())
	// Main is one of Procs in every compiled program.
	root.LIR.Main = root.LIR.Procs[sortedKeys(root.LIR.Procs)[0]]

	// Every kind of node and expression must have been produced, every
	// field of each set at least once.
	for _, kinds := range [][]reflect.Type{nodeKinds, exprKinds, {
		reflect.TypeOf(lir.Program{}), reflect.TypeOf(lir.Proc{}), reflect.TypeOf(lir.NestStmt{}),
		reflect.TypeOf(lir.Preload{}), reflect.TypeOf(air.Program{}), reflect.TypeOf(air.ArrayInfo{}),
		reflect.TypeOf(air.ScalarInfo{}), reflect.TypeOf(air.WriteArg{}), reflect.TypeOf(air.Ref{}),
		reflect.TypeOf(sema.Region{}), reflect.TypeOf(source.Pos{}),
		reflect.TypeOf(ccache.Meta{}), reflect.TypeOf(ccache.BoundsMeta{}), reflect.TypeOf(ccache.RaceMeta{}),
	}} {
		for _, typ := range kinds {
			for i := 0; i < typ.NumField(); i++ {
				name := typ.String() + "." + typ.Field(i).Name
				if !f.seen[name] && !staysHome[name] {
					t.Errorf("filler never set %s", name)
				}
			}
		}
	}

	e := &ccache.Entry{
		Kind: ccache.ArtifactLazy, Source: "src", Plan: "plan", GoSrc: "go", BinKey: "bin",
		Aux: []byte{0, 1, 2}, Meta: root.Meta, Comp: &driver.Compilation{LIR: root.LIR},
	}
	for i := range e.Key {
		e.Key[i] = byte(i + 1)
	}
	raw, got := roundTrip(t, e)
	want := *e
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("entry did not survive the round trip:\n%s", firstDifference(reflect.ValueOf(&want), reflect.ValueOf(got), "entry"))
	}
	if again, err := Encode(got); err != nil || !bytes.Equal(again, raw) {
		t.Errorf("re-encoding the decoded entry: err %v, equal bytes %v", err, bytes.Equal(again, raw))
	}
}

// firstDifference names the first path at which two values differ.
func firstDifference(a, b reflect.Value, path string) string {
	if !a.IsValid() || !b.IsValid() {
		return fmt.Sprintf("%s: one side is absent", path)
	}
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: %s vs %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Ptr, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil on one side only", path)
			}
			return ""
		}
		return firstDifference(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDifference(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDifference(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d keys", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			if d := firstDifference(a.MapIndex(k), b.MapIndex(k), fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
		return ""
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return fmt.Sprintf("%s: %#v vs %#v", path, a.Interface(), b.Interface())
	}
	return ""
}

func TestCodecRejectsCorruption(t *testing.T) {
	bad := corruptions(t)
	enums := map[string]string{
		"comm-phase":        "comm phase 0 outside [1, 2]",
		"comm-retired-byte": "retired comm byte 0x1",
		"reduce-op":         "reduce op 4 outside",
		"operator":          "operator 16 outside",
		"type-kind":         "type 4 outside",
	}
	for name, raw := range bad {
		_, err := Decode(raw)
		if err == nil {
			t.Errorf("%s: Decode accepted corrupt envelope", name)
		} else if want := enums[name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want an error naming %q", name, err, want)
		}
	}
	// Damage to the framing is caught without decoding.
	for _, name := range []string{"truncated", "empty", "bad-magic", "flipped-body", "flipped-sum", "v1-magic"} {
		if err := Verify(bad[name]); err == nil {
			t.Errorf("%s: Verify accepted corrupt envelope", name)
		}
	}
}

// ---------------------------------------------------------------------------
// Fuzzing: the decoder is what a peer's POST /store/put reaches.

// seedGoSrc is the Go source of the fuzz seeds' entries. The codec
// carries GoSrc as an opaque string, so a fixed text serves as well as
// an emission and keeps the committed seeds independent of the emitter
// and of the host (a one-shot emission differs by OS).
const seedGoSrc = "// Code generated by gogen from program fig2. DO NOT EDIT.\npackage main\n\nfunc main() {}\n"

// validSeeds is one valid envelope per artifact kind, over a small
// program so the committed corpus stays small.
func validSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	src, err := os.ReadFile("../../testdata/fig2.za")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, kind := range []ccache.ArtifactKind{ccache.ArtifactIR, ccache.ArtifactNative, ccache.ArtifactLazy, ccache.ArtifactTune} {
		e := &ccache.Entry{Kind: kind, Source: string(src), Aux: []byte(`{"tuned":true}`)}
		if kind != ccache.ArtifactTune {
			e = serviceEntry(t, string(src), driver.Options{Level: core.C2F4})
			e.Kind, e.GoSrc = kind, seedGoSrc
		}
		e.Key = ccache.KeyOfKind(string(src), driver.Options{Level: core.C2F4}, kind)
		raw, err := Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		out["valid-"+string(kind)] = raw
	}
	return out
}

// v1Envelope is a well-formed envelope of the previous format: its
// checksum holds, so only the magic tells it apart.
func v1Envelope() []byte {
	e := newEncoder(0)
	e.buf = append(e.buf, "a gob stream went here"...)
	raw := e.seal()
	copy(raw, "ZPLSTORE1\n")
	return raw
}

// hostile frames a payload that is valid up to the procedure count of
// its program and then continues as rest says; the checksum is computed
// over the result, so only the decoder's own checks stand between it
// and an allocation.
func hostile(rest func(e *encoder)) []byte {
	return hostileProgram(func(e *encoder) {
		e.bool(false) // no source tables
		rest(e)
	})
}

// hostileProgram frames a payload that is valid up to the program's
// name and then continues as rest says.
func hostileProgram(rest func(e *encoder)) []byte {
	e := newEncoder(0)
	e.buf = make([]byte, 32) // key
	for i := 0; i < 5; i++ {
		e.text("") // kind, source, plan, go source, bin key
	}
	e.bytes(nil)  // aux
	e.bool(false) // no meta
	e.bool(true)  // a program
	e.str("p")
	rest(e)
	return e.seal()
}

// hostileNode is hostileBody with a body of one node, written by node.
func hostileNode(node func(e *encoder)) []byte {
	return hostileBody(func(e *encoder) {
		e.uvarint(1)
		node(e)
		e.uvarint(1) // main
	})
}

// commNode writes an exchange of A@(1) whose phase and retired byte are
// the caller's.
func commNode(e *encoder, phase int, retired byte) {
	e.byte(tagComm)
	e.str("A")
	e.ints([]int{1})
	e.region(nil)
	e.int(phase)
	e.int(1) // message id
	e.byte(retired)
	e.pos(source.Pos{Line: 1, Col: 1})
}

// hostileBody is hostile with one procedure, main, whose body is body.
func hostileBody(body func(e *encoder)) []byte {
	return hostile(func(e *encoder) {
		e.uvarint(1)
		procHeader(e, "main")
		body(e)
	})
}

func procHeader(e *encoder, name string) {
	e.str(name) // key
	e.str(name)
	e.strs(nil)
	e.bool(false)
}

// corruptions are the envelopes Decode must refuse.
func corruptions(t testing.TB) map[string][]byte {
	raw := validSeeds(t)["valid-ir"]
	return map[string][]byte{
		"truncated":    raw[:len(raw)/2],
		"empty":        {},
		"bad-magic":    append([]byte("NOTMAGIC"), raw[8:]...),
		"flipped-body": flipByte(raw, len(raw)-1),
		"flipped-sum":  flipByte(raw, len(envMagic)+3),
		"v1-magic":     v1Envelope(),
		"huge-count": hostileBody(func(e *encoder) {
			e.uvarint(1 << 31) // nodes in the body
		}),
		"nested-counts": hostileBody(func(e *encoder) {
			// Every list claims all the bytes that remain after it.
			e.uvarint(1)
			e.byte(tagCall)
			e.str("t")
			e.str("f")
			const levels = 900
			for i := 0; i < levels; i++ {
				e.uvarint(uint64(3*(levels-i) + 200))
				e.byte(tagCallExpr)
				e.str("f")
			}
			e.buf = append(e.buf, make([]byte, 200)...)
		}),
		"deep-expression": hostileBody(func(e *encoder) {
			e.uvarint(1)
			e.byte(tagReturn)
			for i := 0; i < 10000; i++ {
				e.byte(tagUn)
				e.int(int(air.OpNeg))
			}
			e.byte(tagConst)
			e.f64(1)
			e.pos(source.Pos{Line: 1, Col: 1})
			e.uvarint(1)
		}),
		"unknown-tag": hostileBody(func(e *encoder) {
			e.uvarint(1)
			e.byte(0x7f)
		}),
		"trailing-byte": hostileBody(func(e *encoder) {
			e.uvarint(0) // empty body
			e.uvarint(1) // main
			e.byte(0)
		}),
		// One envelope per enum the decoder range-checks; each is valid
		// but for that one value (TestCodecRejectsCorruption checks the
		// error names it).
		"comm-phase": hostileNode(func(e *encoder) { commNode(e, 0, 0) }),
		"comm-retired-byte": hostileNode(func(e *encoder) {
			commNode(e, int(air.CommRecv), 1)
		}),
		"reduce-op": hostileNode(func(e *encoder) {
			e.byte(tagPartialReduce)
			e.str("A")
			e.region(nil)
			e.int(int(air.ReduceMin) + 1)
			e.region(nil)
			e.byte(tagConst)
			e.f64(1)
			e.pos(source.Pos{Line: 1, Col: 1})
		}),
		"operator": hostileNode(func(e *encoder) {
			e.byte(tagReturn)
			e.byte(tagBin)
			e.int(int(air.OpNot) + 1)
			for i := 0; i < 2; i++ {
				e.byte(tagConst)
				e.f64(1)
			}
			e.pos(source.Pos{Line: 1, Col: 1})
		}),
		"type-kind": hostileProgram(func(e *encoder) {
			e.bool(true) // source tables
			e.str("p")
			e.uvarint(0) // arrays
			e.uvarint(1) // scalars
			e.str("s")
			e.str("s")
			e.int(int(ast.Boolean) + 1)
			e.bool(false)
			e.f64(0)
			e.uvarint(0) // procedures
			e.uvarint(0) // main
		}),
		"unsorted-keys": hostile(func(e *encoder) {
			e.uvarint(2)
			for _, name := range []string{"b", "a"} {
				procHeader(e, name)
				e.uvarint(0)
			}
			e.uvarint(0)
		}),
	}
}

// fuzzSeeds is the committed corpus: the valid envelopes and every
// corruption.
func fuzzSeeds(t testing.TB) map[string][]byte {
	seeds := validSeeds(t)
	for name, raw := range corruptions(t) {
		seeds[name] = raw
	}
	return seeds
}

const fuzzDir = "testdata/fuzz/FuzzDecode"

// TestFuzzCorpusCurrent keeps the committed seeds equal to what this
// build's codec produces: a layout change must bump the magic and
// regenerate them (go test ./internal/store -run TestFuzzCorpusCurrent
// -update). Other files in the directory — a fuzzer's findings — are
// left alone.
func TestFuzzCorpusCurrent(t *testing.T) {
	if *update {
		if err := os.MkdirAll(fuzzDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, raw := range fuzzSeeds(t) {
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

// FuzzDecode: Decode returns an entry or an error. It never panics,
// never allocates more than a small multiple of its input, and what it
// accepts re-encodes to an envelope that is a fixed point of
// Decode-then-Encode. A
// mutated envelope fails its checksum, so each input is also tried
// re-framed (current magic, checksum recomputed): that is what a hostile
// sender would post, and what lets the fuzzer reach past Verify.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, raw)
		if len(raw) >= envHeader {
			framed := append([]byte(nil), raw...)
			copy(framed, envMagic)
			sum := sha256.Sum256(framed[envHeader:])
			copy(framed[len(envMagic):], sum[:])
			checkDecode(t, framed)
		}
	})
}

func checkDecode(t *testing.T, raw []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := Decode(raw)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+64<<10); got > limit {
		t.Errorf("Decode of %d bytes allocated %d, more than %d", len(raw), got, limit)
	}
	if err != nil {
		if e != nil {
			t.Error("Decode returned an entry with its error")
		}
		return
	}
	again, err := Encode(e)
	if err != nil {
		t.Fatalf("an entry Decode accepted does not encode: %v", err)
	}
	// Compared as bytes: a NaN constant survives bit for bit but is not
	// DeepEqual to itself.
	e2, err := Decode(again)
	if err != nil {
		t.Fatalf("re-encoded envelope does not decode: %v", err)
	}
	if third, err := Encode(e2); err != nil || !bytes.Equal(third, again) {
		t.Errorf("re-encoding is not a fixed point (err %v)", err)
	}
}

// TestPutRefusesWhatDecodeRefuses: the same bodies POSTed to a node's
// /store/put answer 400 and store nothing.
func TestPutRefusesWhatDecodeRefuses(t *testing.T) {
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(NodeConfig{Self: "a:1", Mem: ccache.New(0), Disk: disk})
	srv := httptest.NewServer(http.HandlerFunc(node.ServePut))
	defer srv.Close()

	bad := corruptions(t)
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	var k ccache.Key
	for _, name := range names {
		resp, err := http.Post(srv.URL+"/store/put?key="+k.String(), "application/octet-stream", bytes.NewReader(bad[name]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st := node.Stats(); st.BadRequests != int64(len(bad)) || st.ServedPuts != 0 {
		t.Errorf("node stats after %d bad puts: %+v", len(bad), st)
	}
	if st := disk.Stats(); st.Entries != 0 {
		t.Errorf("%d entries reached disk", st.Entries)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: the layer numbers bench/ reports as store.encode_us,
// store.decode_us and store.envelope_bytes, over its four serve
// templates at its level and largest size.

func serveTemplates(b *testing.B) map[string]*ccache.Entry {
	heat, err := os.ReadFile("../../testdata/heat.za")
	if err != nil {
		b.Fatal(err)
	}
	out := map[string]*ccache.Entry{}
	for name, src := range map[string]string{"heat": string(heat), "frac": programs.Frac, "tomcatv": programs.Tomcatv, "fibro": programs.Fibro} {
		out[name] = serviceEntry(b, src, driver.Options{Level: core.C2F4, Configs: map[string]int64{"n": 32}})
	}
	return out
}

var benchSink any

func BenchmarkCodecEncode(b *testing.B) {
	for name, e := range serveTemplates(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var raw []byte
			for i := 0; i < b.N; i++ {
				raw, _ = Encode(e)
			}
			benchSink = raw
			b.ReportMetric(float64(len(raw)), "envelope-bytes")
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for name, e := range serveTemplates(b) {
		raw, err := Encode(e)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _ = Decode(raw)
			}
			b.ReportMetric(float64(len(raw)), "envelope-bytes")
		})
	}
}
