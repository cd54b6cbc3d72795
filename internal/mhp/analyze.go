package mhp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/air"
	"repro/internal/comm"
	"repro/internal/dep"
	"repro/internal/sema"
	"repro/internal/source"
)

// Verdict classifies one conflicting access pair. The zero value is
// Unknown: a pair the analyzer could not decide keeps the benefit of
// the doubt in the driver (tolerated, counted) but is surfaced by the
// check pass and the zpld census.
type Verdict int

// The three verdicts.
const (
	// Unknown: the regions could not be compared (hand-built schedule
	// without bounds) or the ordering depends on a broken exchange
	// already reported as a deadlock.
	Unknown Verdict = iota
	// ProvenOrdered: a happens-before chain orders the two accesses;
	// Evidence names it.
	ProvenOrdered
	// Race: the accesses may happen in parallel; Evidence names the
	// missing edge.
	Race
)

func (v Verdict) String() string {
	switch v {
	case ProvenOrdered:
		return "proven-ordered"
	case Race:
		return "race"
	}
	return "unknown"
}

// Pair is one classified conflicting access pair: a write on one
// processor against a ghost-region access of the same array on a
// neighbor whose regions overlap.
type Pair struct {
	Array string
	// First is the write; Second the conflicting remote access (a
	// ghost-region read, or a second write when WriteWrite). Their
	// events need not be in program order — an anti-direction pair has
	// the write after the read.
	First, Second Access
	// FirstEvent/SecondEvent index Schedule.Events.
	FirstEvent, SecondEvent int
	WriteWrite              bool
	Verdict                 Verdict
	// why is the compact fact the verdict rests on. Evidence and Overlap
	// word it when somebody asks (evidence.go); the analysis formats
	// nothing.
	why cause
}

func (p Pair) String() string {
	return fmt.Sprintf("%s vs %s: %s: %s", p.First, p.Second, p.Verdict, p.Evidence())
}

// Deadlock is one defect in the send/recv matching: an incomplete,
// mis-paired, cyclic, or self-directed exchange that would block the
// machine forever.
type Deadlock struct {
	Pos     source.Pos
	Message string
}

func (d Deadlock) String() string { return fmt.Sprintf("%s: %s", d.Pos, d.Message) }

// Result is the analysis of one schedule: every conflicting pair with
// its verdict, the deadlock findings, and the verdict census.
type Result struct {
	Pairs     []Pair
	Deadlocks []Deadlock

	NumOrdered int
	NumRace    int
	NumUnknown int

	// Schedule census, for tables and metrics.
	Computes, Sends, Recvs, Barriers int
}

// Clean reports whether every conflicting pair is ProvenOrdered and
// the matching is deadlock-free — the acceptance bar for
// compiler-produced schedules.
func (r *Result) Clean() bool {
	return r.NumRace == 0 && r.NumUnknown == 0 && len(r.Deadlocks) == 0
}

// Err returns the first deadlock or race as a positioned compile
// error, or nil. Unknown pairs are tolerated here (the check pass and
// the census surface them); compiler-produced schedules have none.
func (r *Result) Err() error {
	if len(r.Deadlocks) > 0 {
		d := r.Deadlocks[0]
		return fmt.Errorf("%s: deadlock: %s", d.Pos, d.Message)
	}
	for _, p := range r.Pairs {
		if p.Verdict == Race {
			return fmt.Errorf("%s: data race: %s may happen in parallel with %s: %s",
				p.Second.Pos, p.First, p.Second, p.Evidence())
		}
	}
	return nil
}

// exchange is one matched (or broken) message: the send/recv halves
// plus the writes observed between them (send-time capture hazards).
// send and recv are set only when the message has exactly one of each.
type exchange struct {
	send, recv   *Event
	nsend, nrecv int
	stale        []*Event // compute events that wrote the array mid-flight
	broken       bool     // matching defect; reported as a deadlock
}

// covEntry is the halo coverage of one neighbor direction of a remote
// read, snapshotted at the read.
type covEntry struct {
	dir air.Offset
	ex  *exchange // nil: no valid exchange covered the direction
}

// accessRec is one write, or one remote read with its coverage.
type accessRec struct {
	ev  *Event
	acc Access
	cov []covEntry
}

// Analyze classifies a schedule. With fewer than two processors every
// access is local and the result is trivially clean (the degenerate
// sequential case).
func Analyze(sched *Schedule) *Result {
	res := &Result{}
	res.Computes, res.Sends, res.Recvs, res.Barriers = sched.Counts()
	if sched.Procs < 2 || len(sched.Events) == 0 {
		return res
	}
	sched.reindex()

	exchanges := matchMessages(sched, res)
	reads, writes := walkCoverage(sched, exchanges)
	classify(sched, res, reads, writes)
	return res
}

// msgKey identifies one dynamic message instance: the static message
// id plus the control-flow context (Event.ctx, interned by reindex).
// Loop doubling replays each static send/recv once per copy, and the
// machine's FIFO channels pair the halves of one iteration with each
// other, so matching is per-context.
type msgKey struct{ id, ctx int }

func (e *Event) msgKey() msgKey { return msgKey{e.MsgID, e.ctx} }

// ctxString renders a context the way deadlocks have always been
// ordered by; only a defective schedule pays for it.
func ctxString(ctx []ctxFrame) string {
	var b strings.Builder
	for _, f := range ctx {
		fmt.Fprintf(&b, "%d/%v/%d;", f.ID, f.Loop, f.Arm)
	}
	return b.String()
}

// matchMessages proves the send/recv matching complete and acyclic,
// reporting every defect as a deadlock, in (message id, context)
// order. Statically identical defects from different loop copies are
// reported once.
func matchMessages(sched *Schedule, res *Result) map[msgKey]*exchange {
	out := map[msgKey]*exchange{}
	var order []*exchange // first appearance
	for _, e := range sched.Events {
		if e.Kind != EvSend && e.Kind != EvRecv {
			continue
		}
		ex := out[e.msgKey()]
		if ex == nil {
			ex = &exchange{}
			out[e.msgKey()] = ex
			order = append(order, ex)
		}
		if e.Kind == EvSend {
			if ex.nsend++; ex.send == nil {
				ex.send = e
			}
		} else if ex.nrecv++; ex.recv == nil {
			ex.recv = e
		}
	}

	type defect struct {
		at  *Event // its context orders the report, its position locates it
		msg string
	}
	var defects []defect
	for _, ex := range order {
		s, r := ex.send, ex.recv
		var d defect
		switch {
		case ex.nsend != 1 || ex.nrecv != 1:
			if d.at = s; s == nil {
				d.at = r
			}
			ex.send, ex.recv = nil, nil
			d.msg = fmt.Sprintf(
				"message %d of %s has %d send(s) and %d receive(s); an unmatched half blocks its processor forever",
				d.at.MsgID, d.at.Array, ex.nsend, ex.nrecv)
		case s.Array != r.Array || !s.Off.Equal(r.Off):
			d = defect{r, fmt.Sprintf("%s is paired with %s: the receive waits for a message the send never produces",
				s.describe(), r.describe())}
		case s.Off.IsZero():
			d = defect{s, fmt.Sprintf("%s has a null direction: a self-send matches no neighbor and blocks", s.describe())}
		case r.Index <= s.Index:
			d = defect{r, fmt.Sprintf(
				"%s precedes its %s in program order: every processor blocks receiving before any sends (happens-before cycle)",
				r.describe(), s.describe())}
		default:
			continue
		}
		ex.broken = true
		defects = append(defects, d)
	}
	sort.SliceStable(defects, func(i, j int) bool {
		a, b := defects[i].at, defects[j].at
		if a.MsgID != b.MsgID {
			return a.MsgID < b.MsgID
		}
		return ctxString(a.Ctx) < ctxString(b.Ctx)
	})
	seen := map[string]bool{}
	for _, d := range defects {
		if !seen[d.msg] {
			seen[d.msg] = true
			res.Deadlocks = append(res.Deadlocks, Deadlock{Pos: d.at.Pos, Message: d.msg})
		}
	}
	return out
}

// walkCoverage replays the schedule in program order, tracking which
// neighbor directions hold a valid halo (set by a receive, destroyed
// by a write to the array or a control-flow boundary) and which
// exchanges a write poisoned mid-flight, and snapshots the coverage of
// every remote read at its event.
func walkCoverage(sched *Schedule, exchanges map[msgKey]*exchange) (reads, writes []accessRec) {
	valid := map[string][]covEntry{} // array -> receives since its last write
	open := map[msgKey]*Event{}      // send seen, recv pending

	for _, e := range sched.Events {
		switch e.Kind {
		case EvReset:
			clear(valid)
		case EvSend:
			open[e.msgKey()] = e
		case EvRecv:
			delete(open, e.msgKey())
			valid[e.Array] = append(valid[e.Array], covEntry{e.Off, exchanges[e.msgKey()]})
		case EvCompute:
			for _, a := range e.Accesses {
				if a.Write {
					writes = append(writes, accessRec{ev: e, acc: a})
					delete(valid, a.Array)
					for k, s := range open {
						if s.Array == a.Array {
							if ex := exchanges[k]; ex != nil {
								ex.stale = append(ex.stale, e)
							}
						}
					}
					continue
				}
				if !a.Remote() {
					continue
				}
				r := accessRec{ev: e, acc: a}
				for _, dir := range comm.NeighborDirections(a.Off) {
					r.cov = append(r.cov, covEntry{dir, covering(valid[a.Array], dir)})
				}
				// Evidence words the chains with dimension 0 as the high
				// bit of the direction's mask; comm counts it as the low.
				for i := 1; i < len(r.cov); i++ {
					for j := i; j > 0 && dimMask(r.cov[j-1].dir) > dimMask(r.cov[j].dir); j-- {
						r.cov[j], r.cov[j-1] = r.cov[j-1], r.cov[j]
					}
				}
				reads = append(reads, r)
			}
		}
	}
	return reads, writes
}

// covering returns the exchange whose receive last validated direction
// dir of a halo list, or nil.
func covering(halo []covEntry, dir air.Offset) *exchange {
	for i := len(halo) - 1; i >= 0; i-- {
		if halo[i].dir.Equal(dir) {
			return halo[i].ex
		}
	}
	return nil
}

// offKey is an offset as a comparable map key: its length, then its
// components (sema.MaxRank bounds every rank the front end admits).
type offKey [1 + sema.MaxRank]int

func keyOf(off air.Offset) (k offKey) {
	k[0] = len(off)
	copy(k[1:], off)
	return k
}

// classify enumerates and classifies every conflicting pair.
func classify(sched *Schedule, res *Result, reads, writes []accessRec) {
	type pairKey struct {
		fPos, sPos   source.Pos
		array        string
		off          offKey
		ww, sameNest bool
	}
	seen := map[pairKey]int{} // key -> index into res.Pairs
	severity := [...]int{ProvenOrdered: 0, Unknown: 1, Race: 2}

	// record classifies two accesses and files the pair, unless they
	// cannot conflict (contradictory branches, disjoint regions).
	record := func(a, b accessRec, ww bool) {
		conflict, unknown := overlap(a.acc, b.acc)
		if !ctxCompatible(a.ev, b.ev) || !(conflict || unknown) {
			return
		}
		p := Pair{Array: a.acc.Array, WriteWrite: ww, First: a.acc, Second: b.acc,
			FirstEvent: a.ev.Index, SecondEvent: b.ev.Index}
		sameNest := p.FirstEvent == p.SecondEvent
		switch {
		case unknown:
			// No bounds to compare: Unknown, the zero cause.
		case ww && sameNest:
			p.Verdict, p.why = Race, cause{kind: writesInNest}
		case ww:
			p.Verdict, p.why = classifyAnti(sched, a.ev, b.ev)
		case sameNest:
			p.Verdict, p.why = classifySameNest(b)
		case p.FirstEvent < p.SecondEvent:
			p.Verdict, p.why = classifyFlow(a, b)
		default:
			p.Verdict, p.why = classifyAnti(sched, b.ev, a.ev)
		}
		k := pairKey{p.First.Pos, p.Second.Pos, p.Array, keyOf(p.Second.Off), ww, sameNest}
		if i, ok := seen[k]; !ok {
			seen[k] = len(res.Pairs)
			res.Pairs = append(res.Pairs, p)
		} else if severity[p.Verdict] > severity[res.Pairs[i].Verdict] {
			// Loop doubling visits a source pair up to four times; keep
			// the worst verdict so a racy copy is never masked.
			res.Pairs[i] = p
		}
	}

	byArray := map[string][]accessRec{}
	remoteWrite := false
	for _, w := range writes {
		byArray[w.acc.Array] = append(byArray[w.acc.Array], w)
		remoteWrite = remoteWrite || w.acc.Remote()
	}

	// Write/remote-read pairs.
	for _, r := range reads {
		for _, w := range byArray[r.acc.Array] {
			record(w, r, false)
		}
	}

	// Write/write pairs: only possible when a write is offsetted
	// (never in compiler output under block ownership; hand-built
	// schedules can model them).
	for i, w1 := range writes {
		if !remoteWrite {
			break
		}
		for _, w2 := range writes[i+1:] {
			if w1.acc.Array == w2.acc.Array && (w1.acc.Remote() || w2.acc.Remote()) {
				record(w1, w2, true)
			}
		}
	}

	for _, p := range res.Pairs {
		switch p.Verdict {
		case ProvenOrdered:
			res.NumOrdered++
		case Race:
			res.NumRace++
		default:
			res.NumUnknown++
		}
	}
}

// classifyFlow orders a write strictly before a remote read: every
// neighbor direction of the read must be covered by a valid exchange
// whose send follows the write, giving the chain
// write →po send →msg recv →po read.
func classifyFlow(w, r accessRec) (Verdict, cause) {
	for i, c := range r.cov {
		if c.ex == nil || c.ex.send == nil {
			return Race, cause{flowUncovered, r.cov, i, nil}
		}
		if c.ex.broken {
			return Unknown, cause{brokenExchange, r.cov, i, nil}
		}
		for _, st := range c.ex.stale {
			if st.Index == w.ev.Index {
				return Race, cause{flowStale, r.cov, i, nil}
			}
		}
		if w.ev.Index > c.ex.send.Index {
			// The write postdates the send but the halo stayed valid:
			// only possible mid-flight, which the stale list covers, or
			// through a model extension; be conservative.
			return Race, cause{flowLateWrite, r.cov, i, nil}
		}
	}
	return ProvenOrdered, cause{kind: flowChains, cov: r.cov}
}

// classifySameNest orders a write and a remote read fused into one
// nest: the halo is captured before the nest (coverage must hold) and
// the in-nest direction must be anti — the constrained distance of the
// read offset lexicographically nonnegative under the nest's loop
// structure — so the pre-capture matches sequential semantics.
func classifySameNest(r accessRec) (Verdict, cause) {
	for i, c := range r.cov {
		if c.ex == nil || c.ex.send == nil {
			return Race, cause{nestUncovered, r.cov, i, nil}
		}
		if c.ex.broken {
			return Unknown, cause{brokenExchange, r.cov, i, nil}
		}
	}
	ord := r.ev.Order
	if len(ord) != len(r.acc.Off) || !ord.Valid() {
		return Unknown, cause{kind: nestNoOrder}
	}
	if !dep.LexNonNegative(dep.Constrain(r.acc.Off, ord)) {
		return Race, cause{kind: nestFlow, ev: r.ev}
	}
	return ProvenOrdered, cause{kind: nestAnti, ev: r.ev}
}

// classifyAnti orders an earlier access before a later write on a
// different processor: a barrier (guaranteed to execute whenever both
// events do) must separate them, else the later write may overtake.
func classifyAnti(sched *Schedule, first, second *Event) (Verdict, cause) {
	for _, e := range sched.Events[first.Index+1 : second.Index] {
		if e.Kind == EvBarrier && ctxCovered(e, first, second) {
			return ProvenOrdered, cause{kind: barrierOrders, ev: e}
		}
	}
	return Race, cause{kind: noBarrier}
}

// overlap decides whether two accesses touch common elements — every
// dimension's (region + offset) intervals meet — or reports that it
// cannot tell (a hand-built access without bounds). Pair.Overlap words
// the intersection.
func overlap(a, b Access) (conflict, unknown bool) {
	if a.Region == nil || b.Region == nil {
		return false, true
	}
	if a.Region.Rank() != b.Region.Rank() {
		return false, false
	}
	for d := 0; d < a.Region.Rank(); d++ {
		if a.span(d).Meet(b.span(d)).IsEmpty() {
			return false, false
		}
	}
	return true, false
}

// dimMask is the set of dir's nonzero dimensions, dimension 0 the
// most significant bit.
func dimMask(dir air.Offset) int {
	m := 0
	for _, v := range dir {
		m <<= 1
		if v != 0 {
			m |= 1
		}
	}
	return m
}
