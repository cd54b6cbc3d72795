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
	"repro/internal/sema"
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

// blockRef is one block that references an array, with the position
// of its first reference there.
type blockRef struct {
	block    *air.Block
	firstPos source.Pos
}

// event is one access to an array, in program order. Within a
// statement the reads come before the statement's own write; a
// communication statement is one event, with a nil region.
type event struct {
	pos   source.Pos
	over  *sema.Region // the region written, or read before shifting by off
	off   air.Offset
	write bool
}

// touches is everything the program does to one array: the blocks
// that reference it and its accesses.
type touches struct {
	blocks []blockRef
	events []event
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
	arrays := map[string]*touches{}
	var order []string
	note := func(b *air.Block, name string, pos source.Pos) *touches {
		t := arrays[name]
		if t == nil {
			t = &touches{}
			arrays[name] = t
			order = append(order, name)
		}
		if n := len(t.blocks); n == 0 || t.blocks[n-1].block != b {
			t.blocks = append(t.blocks, blockRef{block: b, firstPos: pos})
		}
		return t
	}

	// One walk: each statement's arrays are noted write first, then
	// reads (the order of first notes is the order of the verdicts),
	// and each access is recorded on its array's list.
	for _, b := range prog.AllBlocks() {
		for _, s := range b.Stmts {
			pos := air.PosOf(s)
			switch x := s.(type) {
			case air.Sweep:
				w, wreg := x.Writes()
				var wt *touches
				if w != "" {
					wt = note(b, w, pos)
				}
				for _, r := range x.Reads() {
					t := note(b, r.Array, pos)
					t.events = append(t.events, event{pos: pos, over: x.Over(), off: r.Off})
				}
				if wt != nil {
					wt.events = append(wt.events, event{pos: pos, over: wreg, write: true})
				}
			case *air.CommStmt:
				t := note(b, x.Array, pos)
				t.events = append(t.events, event{pos: pos})
			}
		}
	}

	out := map[*air.Block][]string{}
	var verdicts []Verdict
	for _, name := range order {
		lst := arrays[name].blocks
		if a := prog.Arrays[name]; a != nil && a.Escapes {
			verdicts = append(verdicts, Verdict{Array: name, Reason: ReasonEscapes,
				Block:  lst[0].block,
				Pos:    lst[0].firstPos,
				Detail: "final value observable through a runtime handle"})
			continue
		}
		if len(lst) > 1 {
			// Referenced in several blocks: live across boundaries.
			verdicts = append(verdicts, Verdict{Array: name, Reason: ReasonMultiBlock,
				Block:  lst[0].block,
				Pos:    lst[0].firstPos,
				Detail: fmt.Sprintf("referenced in %d blocks; also at %s", len(lst), lst[1].firstPos)})
			continue
		}
		b := lst[0].block
		v := confined(name, arrays[name].events)
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

// confined checks conditions 2 and 3 over the array's accesses in its
// one block — first access is a write and every read is covered by an
// earlier write — and reports the evidence: the first offending
// reference and how many reads fail coverage in total. It walks only
// this array's events, so Explain is linear in statements plus
// references.
func confined(name string, events []event) Verdict {
	var writes []*sema.Region
	v := Verdict{Candidate: true}

	// covered reports whether an earlier write contains over shifted
	// by off.
	covered := func(over *sema.Region, off air.Offset) bool {
	next:
		for _, w := range writes {
			if len(w.Lo) != len(over.Lo) {
				continue
			}
			for i := range over.Lo {
				if w.Lo[i] > over.Lo[i]+off[i] || w.Hi[i] < over.Hi[i]+off[i] {
					continue next
				}
			}
			return true
		}
		return false
	}

	for _, e := range events {
		switch {
		case e.over == nil:
			// Communication implies distribution halos; such an
			// array is never contraction-eligible. This outranks
			// any read-coverage evidence.
			return Verdict{Reason: ReasonCommunicated, Pos: e.pos,
				Detail: "array is the subject of a communication statement"}
		case e.write:
			writes = append(writes, e.over)
		case !covered(e.over, e.off):
			// The first uncovered read becomes the verdict's witness.
			v.Offending++
			if v.Candidate {
				lo := make([]int, len(e.over.Lo))
				hi := make([]int, len(e.over.Hi))
				for i := range lo {
					lo[i] = e.over.Lo[i] + e.off[i]
					hi[i] = e.over.Hi[i] + e.off[i]
				}
				v.Candidate = false
				v.Reason = ReasonUncoveredRead
				v.Pos = e.pos
				v.Off = e.off.Clone()
				v.Detail = fmt.Sprintf("read of %s over %v..%v not covered by an earlier write", name, lo, hi)
			}
		}
	}
	return v
}
