// Package liveness determines which arrays are contraction candidates:
// arrays whose entire live range is confined to a single straight-line
// block, so that replacing them with a per-iteration scalar cannot be
// observed anywhere else (§3, Definition 6's implicit liveness
// requirement, and the §4.1 footnote about live ranges).
package liveness

import (
	"fmt"
	"sort"

	"repro/internal/air"
	"repro/internal/source"
)

// Verdict reasons for arrays whose live range forbids contraction.
const (
	// ReasonMultiBlock: the array is referenced in more than one
	// straight-line block, so its value is live across block
	// boundaries.
	ReasonMultiBlock = "multi-block"
	// ReasonUncoveredRead: a read is not covered by an earlier write
	// in the same block — the value flows in from outside (a prior
	// execution of the block, or the array's initial contents).
	ReasonUncoveredRead = "uncovered-read"
	// ReasonCommunicated: the array is the subject of a communication
	// statement; distributed halo state forbids contraction.
	ReasonCommunicated = "communicated"
	// ReasonEscapes: the array is marked as escaping (a programmatic
	// caller holds a handle and reads the storage after the program
	// ends), so it is live at exit no matter how it is referenced.
	ReasonEscapes = "escapes"
)

// Verdict explains one array's candidacy decision.
type Verdict struct {
	Array string
	// Block is the hosting block; for ReasonMultiBlock it is the first
	// referencing block (so per-block reporting still has exactly one
	// home for the verdict).
	Block     *air.Block
	Candidate bool
	Reason    string     // empty when Candidate
	Pos       source.Pos // witness: the offending read/comm statement
	Off       air.Offset // the offending read's offset, when relevant
	Detail    string
	// Offending counts the uncovered reads; when it is exactly 1 the
	// array would contract but for that single reference (fix-it).
	Offending int
}

// blockRef counts how a block touches an array.
type blockRef struct {
	block    *air.Block
	reads    int
	writes   int
	firstPos source.Pos
}

// Candidates returns, for each block, the arrays eligible for
// contraction in that block. An array qualifies when
//
//  1. every reference to it in the whole program occurs in that block,
//  2. its first access in the block is a write, and
//  3. every read in the block is covered by an earlier write in the
//     same block (the value never flows in from a previous execution
//     of the block, e.g. a prior loop iteration).
//
// Communication statements count as references, so distributed arrays
// with ghost regions are automatically excluded.
func Candidates(prog *air.Program) map[*air.Block][]string {
	cands, _ := Explain(prog)
	return cands
}

// Explain computes Candidates and additionally returns a verdict for
// every referenced array, including the ineligible ones, so callers
// can report why an array is not a contraction candidate.
func Explain(prog *air.Program) (map[*air.Block][]string, []Verdict) {
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
				for _, r := range x.Reads() {
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
	var verdicts []Verdict
	for _, name := range order {
		lst := refs[name]
		if a := prog.Arrays[name]; a != nil && a.Escapes {
			verdicts = append(verdicts, Verdict{Array: name, Reason: ReasonEscapes,
				Block:  lst[0].block,
				Pos:    lst[0].firstPos,
				Detail: "final value observable through a runtime handle"})
			continue
		}
		if len(lst) != 1 {
			// Referenced in several blocks: live across boundaries.
			v := Verdict{Array: name, Reason: ReasonMultiBlock,
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
		v := confined(b, name)
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

// confined checks conditions 2 and 3 within the block — first access
// is a write and every read is covered by an earlier write — and
// reports the evidence: the first offending reference and how many
// reads fail coverage in total.
func confined(b *air.Block, name string) Verdict {
	type wrect struct{ lo, hi []int }
	var writes []wrect
	v := Verdict{Candidate: true}

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

	// fail records one uncovered read; the first one becomes the
	// verdict's witness.
	fail := func(pos source.Pos, off air.Offset, lo, hi []int) {
		v.Offending++
		if v.Candidate {
			v.Candidate = false
			v.Reason = ReasonUncoveredRead
			v.Pos = pos
			v.Off = off.Clone()
			v.Detail = fmt.Sprintf("read of %s over %v..%v not covered by an earlier write", name, lo, hi)
		}
	}

	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *air.ArrayStmt:
			for _, r := range x.Reads() {
				if r.Array != name {
					continue
				}
				lo, hi := shifted(x.Region.Lo, x.Region.Hi, r.Off)
				if !covered(lo, hi) {
					fail(x.Pos, r.Off, lo, hi)
				}
			}
			if x.LHS == name {
				lo, hi := shifted(x.Region.Lo, x.Region.Hi, nil)
				writes = append(writes, wrect{lo, hi})
			}
		case *air.ReduceStmt:
			for _, r := range air.Refs(x.Body) {
				if r.Array != name {
					continue
				}
				lo, hi := shifted(x.Region.Lo, x.Region.Hi, r.Off)
				if !covered(lo, hi) {
					fail(x.Pos, r.Off, lo, hi)
				}
			}
		case *air.PartialReduceStmt:
			// The partial reduction's own writes and reads are never
			// contraction-relevant (it is unnormalized and cannot join
			// a cluster), but its reads still require coverage.
			for _, r := range air.Refs(x.Body) {
				if r.Array != name {
					continue
				}
				lo, hi := shifted(x.Region.Lo, x.Region.Hi, r.Off)
				if !covered(lo, hi) {
					fail(x.Pos, r.Off, lo, hi)
				}
			}
			if x.LHS == name {
				lo, hi := shifted(x.Dest.Lo, x.Dest.Hi, nil)
				writes = append(writes, wrect{lo, hi})
			}
		case *air.CommStmt:
			if x.Array == name {
				// Communication implies distribution halos; such an
				// array is never contraction-eligible. This outranks
				// any read-coverage evidence.
				return Verdict{Reason: ReasonCommunicated, Pos: x.Pos,
					Detail: "array is the subject of a communication statement"}
			}
		}
	}
	return v
}
