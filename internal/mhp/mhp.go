// Package mhp is a static may-happen-in-parallel / happens-before
// analyzer for the SPMD communication schedule of a distributed
// compilation. It models the scalarized program (internal/lir) as the
// event sequence every processor executes — replicated scalar control
// flow means one sequence describes them all — builds the
// happens-before relation from three edge kinds
//
//	program order            (events on one processor, in sequence)
//	send → recv              (one per matched message id)
//	barrier cross-products   (everything before a barrier on any
//	                          processor precedes everything after it
//	                          on every processor)
//
// and classifies every pair of conflicting accesses — a write on one
// processor against a ghost-region read (or offsetted write) of the
// same array on a neighbor, with region overlap decided by the
// absint interval domain — as ProvenOrdered (with the ordering chain
// as evidence), Race (a positioned defect naming both events and the
// missing edge), or Unknown. It additionally proves deadlock-freedom:
// the send/recv matching must be complete (exactly one send and one
// receive per message, agreeing on array and direction), acyclic
// (every receive strictly after its send in program order), and free
// of self-sends (null directions match no neighbor and would block).
//
// Soundness rests on two SPMD facts the distributed machine
// (internal/distvm) establishes: every loop nest and partial
// reduction ends in a global synchronization (barrier or all-combine
// — BuildSchedule synthesizes an EvBarrier after each), and block
// ownership means a processor only ever writes its own slice, so a
// cross-processor conflict requires a nonzero read offset. Two
// symbolic processors therefore suffice for any processor count:
// "the writer" and "a neighbor reading across the block boundary".
//
// The analyzer is deliberately split: BuildSchedule extracts the
// event sequence from the LIR, Analyze classifies a schedule. Seeded
// faults (Inject) perturb a copied schedule between the two — drop a
// barrier, mis-pair a send, capture a send after its producing write
// — which is how the -racefault self-test proves the analyzer would
// catch a scheduling bug without teaching the compiler to emit one.
//
// Analyze computes verdicts and the compact cause behind each (a kind
// tag, the read's coverage entries, the barrier or nest it names); the
// prose — Pair.Evidence, Pair.Overlap — is a pure function of that
// cause, rendered when zpllint, zplcheck or a failed proof asks.
// Deadlock messages are worded eagerly: only a defective schedule has
// any.
package mhp

import (
	"fmt"

	"repro/internal/air"
	"repro/internal/dep"
	"repro/internal/lir"
	"repro/internal/sema"
	"repro/internal/source"
)

// EventKind enumerates the schedule event kinds.
type EventKind int

// The event kinds. EvReset is an analysis-internal marker: the halo
// validity horizon at a control-flow boundary (facts proved inside a
// branch or loop body do not survive it). It synchronizes nothing.
const (
	EvCompute EventKind = iota
	EvSend
	EvRecv
	EvBarrier
	EvReset
)

func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvBarrier:
		return "barrier"
	}
	return "reset"
}

// Access is one array access performed by a compute event. Writes
// always carry a zero offset in compiler-produced schedules (block
// ownership); hand-built schedules may declare offsetted writes, which
// the classifier treats as cross-processor write/write candidates.
type Access struct {
	Array  string
	Off    air.Offset   // nil/zero = the processor's own block
	Region *sema.Region // region of the accessing statement (nil = unknown)
	Write  bool
	Pos    source.Pos
}

// Remote reports whether the access touches a neighbor's elements.
func (a Access) Remote() bool { return len(a.Off) > 0 && !a.Off.IsZero() }

func (a Access) String() string {
	what := "read"
	if a.Write {
		what = "write"
	}
	s := fmt.Sprintf("%s of %s", what, a.Array)
	if a.Remote() {
		s += "@" + a.Off.String()
	}
	return fmt.Sprintf("%s at %s", s, a.Pos)
}

// ctxFrame records one control-flow choice an event executes under.
// If-frames with the same ID but different arms contradict (the two
// branches never execute in the same dynamic instance); loop-copy
// frames never contradict (copy 0 and copy 1 model an iteration and
// its successor).
type ctxFrame struct {
	ID   int
	Loop bool
	Arm  int
}

// Event is one entry of the per-processor event sequence.
type Event struct {
	Kind  EventKind
	Index int // position in Schedule.Events, set by BuildSchedule/Analyze
	Pos   source.Pos
	Ctx   []ctxFrame
	ctx   int // Ctx interned by reindex: equal frames, equal id

	// Compute payload.
	Accesses []Access
	Order    dep.LoopStructure // iteration order, for same-nest direction tests

	// Send/recv payload: the exchanged array, the neighbor direction,
	// and the message id (positive) pairing the two halves of the
	// exchange.
	Array string
	Off   air.Offset
	MsgID int
}

// describe renders an event for diagnostics.
func (e *Event) describe() string {
	switch e.Kind {
	case EvSend:
		return fmt.Sprintf("send of %s@%s (msg %d) at %s", e.Array, e.Off, e.MsgID, e.Pos)
	case EvRecv:
		return fmt.Sprintf("recv of %s@%s (msg %d) at %s", e.Array, e.Off, e.MsgID, e.Pos)
	case EvBarrier:
		return fmt.Sprintf("barrier at %s", e.Pos)
	}
	return fmt.Sprintf("compute at %s", e.Pos)
}

// Schedule is the per-processor event sequence of one compilation (or
// a hand-built model). Every processor executes Events in order; the
// analyzer decides what a pair of processors may interleave.
type Schedule struct {
	Procs  int
	Events []*Event
	// Faults lists the perturbations Inject applied, for diagnostics.
	Faults []string
}

// reindex renumbers Event.Index after construction or fault injection
// and interns every event's context: contexts form a tree (the builder
// pushes and pops frames), so a context's id is its node in a trie keyed
// by (parent node, frame), and a message key is two integers.
func (s *Schedule) reindex() {
	type edge struct {
		parent int
		frame  ctxFrame
	}
	nodes := map[edge]int{}
	for i, e := range s.Events {
		e.Index = i
		e.ctx = 0
		for _, f := range e.Ctx {
			k := edge{e.ctx, f}
			n, ok := nodes[k]
			if !ok {
				n = len(nodes) + 1
				nodes[k] = n
			}
			e.ctx = n
		}
	}
}

// Counts reports the schedule's event census (computes, sends, recvs,
// barriers) for tables and metrics.
func (s *Schedule) Counts() (computes, sends, recvs, barriers int) {
	for _, e := range s.Events {
		switch e.Kind {
		case EvCompute:
			computes++
		case EvSend:
			sends++
		case EvRecv:
			recvs++
		case EvBarrier:
			barriers++
		}
	}
	return
}

// BuildSchedule extracts the SPMD event sequence from a scalarized
// program: procedure calls are inlined (the call graph is acyclic
// upstream), loop and while bodies are walked twice so cross-iteration
// pairs appear as copy-0/copy-1 event pairs, if branches carry
// contradiction-tracking context frames, and a barrier event is
// synthesized after every loop nest and partial reduction — the
// distributed machine ends each in a barrier or all-combine.
func BuildSchedule(lp *lir.Program, procs int) *Schedule {
	b := &builder{sched: &Schedule{Procs: procs}, visiting: map[string]bool{}, lp: lp}
	if lp != nil && lp.Main != nil {
		b.walk(lp.Main.Body)
	}
	b.sched.reindex()
	return b.sched
}

type builder struct {
	sched    *Schedule
	lp       *lir.Program
	ctx      []ctxFrame
	nextCtl  int
	visiting map[string]bool
}

func (b *builder) emit(e *Event) {
	e.Ctx = append([]ctxFrame(nil), b.ctx...)
	b.sched.Events = append(b.sched.Events, e)
}

func (b *builder) walk(nodes []lir.Node) {
	for _, nd := range nodes {
		switch x := nd.(type) {
		case *lir.Nest:
			b.nest(x)
		case *lir.PartialReduce:
			b.partialReduce(x)
		case *lir.Comm:
			b.comm(x)
		case *lir.Call:
			b.call(x)
		case *lir.Loop:
			b.loopBody(x.Body)
		case *lir.While:
			b.loopBody(x.Body)
		case *lir.If:
			id := b.ctlID()
			b.emit(&Event{Kind: EvReset})
			b.ctx = append(b.ctx, ctxFrame{ID: id, Arm: 0})
			b.walk(x.Then)
			b.ctx = b.ctx[:len(b.ctx)-1]
			b.emit(&Event{Kind: EvReset})
			b.ctx = append(b.ctx, ctxFrame{ID: id, Arm: 1})
			b.walk(x.Else)
			b.ctx = b.ctx[:len(b.ctx)-1]
			b.emit(&Event{Kind: EvReset})
		}
	}
}

func (b *builder) ctlID() int {
	b.nextCtl++
	return b.nextCtl
}

// loopBody walks a loop body twice under distinct loop-copy frames:
// copy 0 is "some iteration", copy 1 its successor, so a halo made
// valid late in one iteration correctly covers an early read of the
// next, and a cross-iteration write/read pair shows up as an ordinary
// event pair. Validity is reset at entry and exit — the loop may run
// zero times and trip counts are dynamic.
func (b *builder) loopBody(body []lir.Node) {
	id := b.ctlID()
	b.emit(&Event{Kind: EvReset})
	for copyN := 0; copyN < 2; copyN++ {
		b.ctx = append(b.ctx, ctxFrame{ID: id, Loop: true, Arm: copyN})
		b.walk(body)
		b.ctx = b.ctx[:len(b.ctx)-1]
	}
	b.emit(&Event{Kind: EvReset})
}

// call inlines the callee's events. On (upstream-illegal) recursion it
// degrades to a conservative write-only event over the callee's
// transitively written arrays.
func (b *builder) call(c *lir.Call) {
	p := b.lp.Procs[c.Proc]
	if p == nil {
		return
	}
	if b.visiting[c.Proc] {
		ev := &Event{Kind: EvCompute, Pos: c.Pos}
		for arr := range procWrites(b.lp)[c.Proc] {
			ev.Accesses = append(ev.Accesses, Access{Array: arr, Write: true, Pos: c.Pos})
		}
		b.emit(ev)
		return
	}
	b.visiting[c.Proc] = true
	b.walk(p.Body)
	b.visiting[c.Proc] = false
}

func (b *builder) nest(n *lir.Nest) {
	pos := source.Pos{}
	ev := &Event{Kind: EvCompute, Order: n.Order}
	for _, pl := range n.Preloads {
		ev.Accesses = append(ev.Accesses, Access{
			Array: pl.Array, Off: pl.Off.Clone(), Region: n.Region, Pos: pl.Pos,
		})
	}
	for _, s := range n.Body {
		if !pos.IsValid() {
			pos = s.Pos
		}
		reg := n.Region
		if s.Guard != nil {
			reg = s.Guard
		}
		for _, r := range air.Refs(s.RHS) {
			ev.Accesses = append(ev.Accesses, Access{
				Array: r.Array, Off: r.Off.Clone(), Region: reg, Pos: s.Pos,
			})
		}
		if !s.IsReduce && !s.Contracted {
			ev.Accesses = append(ev.Accesses, Access{
				Array: s.LHS, Region: reg, Write: true, Pos: s.Pos,
			})
		}
	}
	ev.Pos = pos
	b.emit(ev)
	b.emit(&Event{Kind: EvBarrier, Pos: pos})
}

func (b *builder) partialReduce(x *lir.PartialReduce) {
	ev := &Event{Kind: EvCompute, Pos: x.Pos}
	for _, r := range air.Refs(x.Body) {
		ev.Accesses = append(ev.Accesses, Access{
			Array: r.Array, Off: r.Off.Clone(), Region: x.Region, Pos: x.Pos,
		})
	}
	ev.Accesses = append(ev.Accesses, Access{
		Array: x.LHS, Region: x.Dest, Write: true, Pos: x.Pos,
	})
	b.emit(ev)
	b.emit(&Event{Kind: EvBarrier, Pos: x.Pos})
}

func (b *builder) comm(c *lir.Comm) {
	kind := EvRecv
	if c.Phase == air.CommSend {
		kind = EvSend
	}
	b.emit(&Event{Kind: kind, Pos: c.Pos, Array: c.Array, Off: c.Off.Clone(), MsgID: c.MsgID})
}

// procWrites re-derives, per procedure, the arrays its body writes to
// memory transitively through calls (mirrors check.procWrites; kept
// local so the packages stay independent witnesses).
func procWrites(lp *lir.Program) map[string]map[string]bool {
	memo := map[string]map[string]bool{}
	visiting := map[string]bool{}
	var of func(name string) map[string]bool
	var gather func(nodes []lir.Node, out map[string]bool)
	gather = func(nodes []lir.Node, out map[string]bool) {
		for _, nd := range nodes {
			switch x := nd.(type) {
			case *lir.Nest:
				for _, s := range x.Body {
					if !s.IsReduce && !s.Contracted {
						out[s.LHS] = true
					}
				}
			case *lir.PartialReduce:
				out[x.LHS] = true
			case *lir.Call:
				for arr := range of(x.Proc) {
					out[arr] = true
				}
			case *lir.Loop:
				gather(x.Body, out)
			case *lir.While:
				gather(x.Body, out)
			case *lir.If:
				gather(x.Then, out)
				gather(x.Else, out)
			}
		}
	}
	of = func(name string) map[string]bool {
		if m, ok := memo[name]; ok {
			return m
		}
		if visiting[name] {
			return map[string]bool{}
		}
		visiting[name] = true
		out := map[string]bool{}
		if p := lp.Procs[name]; p != nil {
			gather(p.Body, out)
		}
		visiting[name] = false
		memo[name] = out
		return out
	}
	for name := range lp.Procs {
		of(name)
	}
	return memo
}

// ctxCompatible reports whether two events can occur in one dynamic
// execution pair: no shared if-frame with opposite arms.
func ctxCompatible(a, b *Event) bool {
	for _, fa := range a.Ctx {
		if fa.Loop {
			continue
		}
		for _, fb := range b.Ctx {
			if !fb.Loop && fa.ID == fb.ID && fa.Arm != fb.Arm {
				return false
			}
		}
	}
	return true
}

// ctxCovered reports whether barrier b is guaranteed to execute
// whenever both e1 and e2 do: every control-flow choice the barrier
// depends on is implied by one of the two events. A loop frame is
// implied by any frame of the same loop (the events prove the body
// runs); an if frame needs the identical arm.
func ctxCovered(b, e1, e2 *Event) bool {
	for _, fb := range b.Ctx {
		ok := false
		for _, e := range []*Event{e1, e2} {
			for _, fe := range e.Ctx {
				if fe.ID != fb.ID {
					continue
				}
				if fb.Loop || fe.Arm == fb.Arm {
					ok = true
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
