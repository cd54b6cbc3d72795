package mhp

import (
	"fmt"
	"strings"

	"repro/internal/absint"
	"repro/internal/dep"
)

// causeKind tags the fact a pair's verdict rests on; the sentence that
// words it is Pair.Evidence's business, not the analysis's.
type causeKind uint8

const (
	noBounds       causeKind = iota // regions without bounds cannot be compared (the zero cause)
	flowChains                      // each direction of cov is covered: a write→send→recv→read chain apiece
	flowUncovered                   // no exchange covers cov[at]
	brokenExchange                  // cov[at]'s exchange is already reported as a deadlock
	flowStale                       // cov[at]'s send captured the array before the write
	flowLateWrite                   // the write follows cov[at]'s send and the halo stayed valid
	nestUncovered                   // no exchange covers cov[at] ahead of the fused nest
	nestNoOrder                     // the fused nest carries no loop structure to orient the pair
	nestFlow                        // in-nest direction is flow under ev.Order
	nestAnti                        // in-nest direction is anti under ev.Order
	barrierOrders                   // barrier ev separates the accesses
	noBarrier                       // nothing does
	writesInNest                    // two writes share one nest
)

// cause is what a Pair keeps in place of prose. It may point at the
// events and exchanges its sentence names (immutable once Analyze
// returns), never at the Schedule: results live long in ccache.
type cause struct {
	kind causeKind
	cov  []covEntry // the read's halo coverage, shared by every pair of that read
	at   int        // the entry of cov the sentence is about
	ev   *Event     // the separating barrier, or the nest whose loop order orients the pair
}

// Evidence is the happens-before chain that orders the pair, or the
// missing edge that fails to. It is rendered on every call and writes
// nothing: a Result is shared by concurrent readers.
func (p Pair) Evidence() string {
	w, r, c := p.First, p.Second, p.why
	var at covEntry
	if c.at < len(c.cov) {
		at = c.cov[c.at]
	}
	switch c.kind {
	case flowChains:
		chains := make([]string, len(c.cov))
		for i, e := range c.cov {
			chains[i] = fmt.Sprintf("%s →po %s →msg %s →po %s", w, e.ex.send.describe(), e.ex.recv.describe(), r)
		}
		return strings.Join(chains, "; ")
	case flowUncovered:
		return fmt.Sprintf(
			"no send→recv edge covers the %s halo of %s: %s on one processor may happen in parallel with %s on a neighbor",
			at.dir, r.Array, w, r)
	case brokenExchange:
		return fmt.Sprintf(
			"ordering depends on message %d, whose send/recv matching is broken (see deadlock report)", at.ex.send.MsgID)
	case flowStale:
		return fmt.Sprintf(
			"%s captured %s before %s: the receive at %s delivers stale values to %s (send-time capture violated)",
			at.ex.send.describe(), r.Array, w, at.ex.recv.Pos, r)
	case flowLateWrite:
		return fmt.Sprintf(
			"%s happens after %s captured the array: no happens-before edge orders it before %s",
			w, at.ex.send.describe(), r)
	case nestUncovered:
		return fmt.Sprintf(
			"no valid exchange covers the %s halo of %s at the nest fusing %s with %s",
			at.dir, r.Array, w, r)
	case nestNoOrder:
		return fmt.Sprintf("no loop structure to orient %s against %s within one nest", r, w)
	case nestFlow:
		return fmt.Sprintf(
			"%s and %s share a nest with a flow direction (constrained distance %s is lexicographically negative under order %s): the pre-nest halo capture delivers values the neighbor has not yet written",
			w, r, dep.Constrain(r.Off, c.ev.Order), c.ev.Order)
	case nestAnti:
		return fmt.Sprintf(
			"pre-nest halo capture: the exchange precedes the nest and the in-nest direction is anti (constrained distance %s ≥ 0 under order %s), so the read's snapshot matches sequential semantics",
			dep.Constrain(r.Off, c.ev.Order), c.ev.Order)
	case barrierOrders, noBarrier:
		// Two writes are named in program order; a remote read comes
		// before the write that may overtake it.
		first, second := w.String(), r.String()
		if !p.WriteWrite {
			first, second = "the remote "+second, "the later "+first
		}
		if c.kind == noBarrier {
			return fmt.Sprintf(
				"no barrier separates %s from %s: the write may overtake the access on a neighboring processor (missing barrier edge)",
				first, second)
		}
		return fmt.Sprintf(
			"%s →po %s →sync %s: the barrier's cross-product edge orders every processor's earlier access before every later one",
			first, c.ev.describe(), second)
	case writesInNest:
		return fmt.Sprintf("%s and %s target overlapping elements in one nest with no intervening synchronization", w, r)
	}
	return p.Overlap()
}

// Overlap is the per-dimension interval intersection that makes the
// pair conflicting, rendered on every call like Evidence.
func (p Pair) Overlap() string {
	a, b := p.First, p.Second
	if a.Region == nil || b.Region == nil {
		return fmt.Sprintf("cannot compare regions of %s and %s (no bounds)", a, b)
	}
	dims := make([]string, a.Region.Rank())
	for d := range dims {
		ia, ib := a.span(d), b.span(d)
		dims[d] = fmt.Sprintf("dim %d: %s ∩ %s = %s", d+1, ia, ib, ia.Meet(ib))
	}
	return strings.Join(dims, ", ")
}

// span is the interval of elements the access touches along dimension
// d: its region shifted by its offset.
func (a Access) span(d int) absint.Interval {
	off := int64(0)
	if d < len(a.Off) {
		off = int64(a.Off[d])
	}
	return absint.Range(int64(a.Region.Lo[d])+off, int64(a.Region.Hi[d])+off)
}
