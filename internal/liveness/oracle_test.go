package liveness_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/air"
	"repro/internal/comm"
	"repro/internal/driver"
	"repro/internal/liveness"
	"repro/internal/programs"
	"repro/internal/sema"
	"repro/internal/source"
)

// refExplain is Explain as it was when confined re-walked the whole
// block once per array: the reference the one-walk Explain is held to.
// It reads each statement kind by hand, independently of air.Sweep.
func refExplain(prog *air.Program) (map[*air.Block][]string, []liveness.Verdict) {
	type blockRef struct {
		block    *air.Block
		reads    int
		writes   int
		firstPos source.Pos
	}
	refs := map[string][]blockRef{}
	var order []string
	note := func(b *air.Block, name string, isWrite bool, pos source.Pos) {
		lst := refs[name]
		if lst == nil {
			order = append(order, name)
		}
		if len(lst) == 0 || lst[len(lst)-1].block != b {
			lst = append(lst, blockRef{block: b, firstPos: pos})
		}
		if isWrite {
			lst[len(lst)-1].writes++
		} else {
			lst[len(lst)-1].reads++
		}
		refs[name] = lst
	}

	blocks := prog.AllBlocks()
	for _, b := range blocks {
		for _, s := range b.Stmts {
			pos := air.PosOf(s)
			switch x := s.(type) {
			case *air.ArrayStmt:
				note(b, x.LHS, true, pos)
				for _, r := range air.Refs(x.RHS) {
					note(b, r.Array, false, pos)
				}
			case *air.ReduceStmt:
				for _, r := range air.Refs(x.Body) {
					note(b, r.Array, false, pos)
				}
			case *air.PartialReduceStmt:
				note(b, x.LHS, true, pos)
				for _, r := range air.Refs(x.Body) {
					note(b, r.Array, false, pos)
				}
			case *air.CommStmt:
				note(b, x.Array, false, pos)
				note(b, x.Array, true, pos)
			}
		}
	}

	out := map[*air.Block][]string{}
	var verdicts []liveness.Verdict
	for _, name := range order {
		lst := refs[name]
		if a := prog.Arrays[name]; a != nil && a.Escapes {
			verdicts = append(verdicts, liveness.Verdict{Array: name, Reason: liveness.ReasonEscapes,
				Block:  lst[0].block,
				Pos:    lst[0].firstPos,
				Detail: "final value observable through a runtime handle"})
			continue
		}
		if len(lst) != 1 {
			v := liveness.Verdict{Array: name, Reason: liveness.ReasonMultiBlock,
				Block:  lst[0].block,
				Pos:    lst[0].firstPos,
				Detail: fmt.Sprintf("referenced in %d blocks", len(lst))}
			if len(lst) > 1 {
				v.Detail += fmt.Sprintf("; also at %s", lst[1].firstPos)
			}
			verdicts = append(verdicts, v)
			continue
		}
		b := lst[0].block
		v := refConfined(b, name)
		v.Array = name
		v.Block = b
		if v.Candidate {
			out[b] = append(out[b], name)
		}
		verdicts = append(verdicts, v)
	}
	for _, names := range out {
		sort.Strings(names)
	}
	return out, verdicts
}

// refConfined walks all of b for one array.
func refConfined(b *air.Block, name string) liveness.Verdict {
	type wrect struct{ lo, hi []int }
	var writes []wrect
	v := liveness.Verdict{Candidate: true}

	covered := func(lo, hi []int) bool {
	next:
		for _, w := range writes {
			if len(w.lo) != len(lo) {
				continue
			}
			for i := range lo {
				if w.lo[i] > lo[i] || w.hi[i] < hi[i] {
					continue next
				}
			}
			return true
		}
		return false
	}
	shifted := func(lo, hi []int, off air.Offset) ([]int, []int) {
		l := make([]int, len(lo))
		h := make([]int, len(hi))
		for i := range lo {
			d := 0
			if off != nil {
				d = off[i]
			}
			l[i] = lo[i] + d
			h[i] = hi[i] + d
		}
		return l, h
	}
	fail := func(pos source.Pos, off air.Offset, lo, hi []int) {
		v.Offending++
		if v.Candidate {
			v.Candidate = false
			v.Reason = liveness.ReasonUncoveredRead
			v.Pos = pos
			v.Off = off.Clone()
			v.Detail = fmt.Sprintf("read of %s over %v..%v not covered by an earlier write", name, lo, hi)
		}
	}
	reads := func(reg *sema.Region, refs []air.Ref, pos source.Pos) {
		for _, r := range refs {
			if r.Array != name {
				continue
			}
			lo, hi := shifted(reg.Lo, reg.Hi, r.Off)
			if !covered(lo, hi) {
				fail(pos, r.Off, lo, hi)
			}
		}
	}

	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *air.ArrayStmt:
			reads(x.Region, air.Refs(x.RHS), x.Pos)
			if x.LHS == name {
				lo, hi := shifted(x.Region.Lo, x.Region.Hi, nil)
				writes = append(writes, wrect{lo, hi})
			}
		case *air.ReduceStmt:
			reads(x.Region, air.Refs(x.Body), x.Pos)
		case *air.PartialReduceStmt:
			reads(x.Region, air.Refs(x.Body), x.Pos)
			if x.LHS == name {
				lo, hi := shifted(x.Dest.Lo, x.Dest.Hi, nil)
				writes = append(writes, wrect{lo, hi})
			}
		case *air.CommStmt:
			if x.Array == name {
				return liveness.Verdict{Reason: liveness.ReasonCommunicated, Pos: x.Pos,
					Detail: "array is the subject of a communication statement"}
			}
		}
	}
	return v
}

// oracleCase is one program the verdict oracle compares on.
type oracleCase struct {
	name  string
	src   string
	procs int
}

func oracleCases(t *testing.T) []oracleCase {
	var cs []oracleCase
	for _, b := range programs.All() {
		for _, p := range []int{1, 2} {
			cs = append(cs, oracleCase{fmt.Sprintf("%s/p=%d", b.Name, p), b.Source, p})
		}
	}
	files, err := filepath.Glob("../../testdata/*.za")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2} {
			cs = append(cs, oracleCase{fmt.Sprintf("%s/p=%d", filepath.Base(f), p), string(src), p})
		}
	}
	cs = append(cs, oracleCase{"chain/400", programs.Chain(400), 1})
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		cs = append(cs, oracleCase{fmt.Sprintf("random/%d", i), programs.Random(r), 1 + i%2})
	}
	return cs
}

// TestExplainMatchesBlockWalk holds the one-walk Explain to the
// block-walking reference on every verdict field, in order, and on the
// candidate map: the benchmarks and testdata sequential and after
// communication insertion at p=2, the generated chain, and 200 random
// programs.
func TestExplainMatchesBlockWalk(t *testing.T) {
	seen := map[string]int{}
	for _, c := range oracleCases(t) {
		prog, _, err := driver.FrontEnd(context.Background(), c.src, nil, driver.Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		comm.Insert(prog, comm.Options{Procs: c.procs})
		wantC, wantV := refExplain(prog)
		gotC, gotV := liveness.Explain(prog)
		if len(gotV) != len(wantV) {
			t.Errorf("%s: %d verdicts, reference has %d", c.name, len(gotV), len(wantV))
			continue
		}
		for i := range wantV {
			seen[wantV[i].Reason]++
			if !reflect.DeepEqual(gotV[i], wantV[i]) {
				t.Errorf("%s: verdict %d:\n got %+v\nwant %+v", c.name, i, gotV[i], wantV[i])
			}
		}
		if !reflect.DeepEqual(gotC, wantC) {
			t.Errorf("%s: candidates %v, reference %v", c.name, gotC, wantC)
		}
	}
	// The cases must reach every verdict but escapes (only a
	// programmatic caller marks an array escaping).
	for _, r := range []string{"", liveness.ReasonMultiBlock, liveness.ReasonUncoveredRead, liveness.ReasonCommunicated} {
		if seen[r] == 0 {
			t.Errorf("no case gives a %q verdict", r)
		}
	}
}
