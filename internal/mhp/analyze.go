package mhp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/absint"
	"repro/internal/air"
	"repro/internal/dep"
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
	// Evidence is the happens-before chain that orders the pair, or
	// the missing edge that fails to.
	Evidence string
	// Overlap is the per-dimension interval intersection that makes
	// the pair conflicting.
	Overlap string
}

func (p Pair) String() string {
	return fmt.Sprintf("%s vs %s: %s: %s", p.First, p.Second, p.Verdict, p.Evidence)
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

// Races returns the pairs classified Race.
func (r *Result) Races() []Pair {
	var out []Pair
	for _, p := range r.Pairs {
		if p.Verdict == Race {
			out = append(out, p)
		}
	}
	return out
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
				p.Second.Pos, p.First, p.Second, p.Evidence)
		}
	}
	return nil
}

// exchange is one matched (or broken) message: the send/recv halves
// plus the writes observed between them (send-time capture hazards).
type exchange struct {
	send, recv *Event
	stale      []*Event // compute events that wrote the array mid-flight
	broken     bool     // matching defect; reported as a deadlock
}

type writeRec struct {
	ev  *Event
	acc Access
}

// covEntry is the halo coverage of one neighbor direction of a remote
// read, snapshotted at the read.
type covEntry struct {
	dir air.Offset
	ex  *exchange // nil: no valid exchange covered the direction
}

type readRec struct {
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
// id plus the control-flow context. Loop doubling replays each static
// send/recv once per copy, and the machine's FIFO channels pair the
// halves of one iteration with each other, so matching is per-context.
type msgKey struct {
	id  int
	ctx string
}

func ctxString(ctx []ctxFrame) string {
	var b strings.Builder
	for _, f := range ctx {
		fmt.Fprintf(&b, "%d/%v/%d;", f.ID, f.Loop, f.Arm)
	}
	return b.String()
}

// matchMessages proves the send/recv matching complete and acyclic,
// reporting every defect as a deadlock. Statically identical defects
// from different loop copies are reported once.
func matchMessages(sched *Schedule, res *Result) map[msgKey]*exchange {
	type halves struct{ sends, recvs []*Event }
	msgs := map[msgKey]*halves{}
	var keys []msgKey
	for _, e := range sched.Events {
		if e.Kind != EvSend && e.Kind != EvRecv {
			continue
		}
		k := msgKey{e.MsgID, ctxString(e.Ctx)}
		h := msgs[k]
		if h == nil {
			h = &halves{}
			msgs[k] = h
			keys = append(keys, k)
		}
		if e.Kind == EvSend {
			h.sends = append(h.sends, e)
		} else {
			h.recvs = append(h.recvs, e)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].ctx < keys[j].ctx
	})

	seenDead := map[string]bool{}
	report := func(pos source.Pos, msg string) {
		if seenDead[msg] {
			return
		}
		seenDead[msg] = true
		res.Deadlocks = append(res.Deadlocks, Deadlock{Pos: pos, Message: msg})
	}

	out := map[msgKey]*exchange{}
	for _, k := range keys {
		h := msgs[k]
		ex := &exchange{}
		out[k] = ex
		any := h.sends
		if len(any) == 0 {
			any = h.recvs
		}
		if len(h.sends) != 1 || len(h.recvs) != 1 {
			ex.broken = true
			report(any[0].Pos, fmt.Sprintf(
				"message %d of %s has %d send(s) and %d receive(s); an unmatched half blocks its processor forever",
				k.id, any[0].Array, len(h.sends), len(h.recvs)))
			continue
		}
		s, r := h.sends[0], h.recvs[0]
		ex.send, ex.recv = s, r
		switch {
		case s.Array != r.Array || !s.Off.Equal(r.Off):
			ex.broken = true
			res.Deadlocks = append(res.Deadlocks, Deadlock{
				Pos: r.Pos,
				Message: fmt.Sprintf("%s is paired with %s: the receive waits for a message the send never produces",
					s.describe(), r.describe()),
			})
		case s.Off.IsZero():
			ex.broken = true
			res.Deadlocks = append(res.Deadlocks, Deadlock{
				Pos:     s.Pos,
				Message: fmt.Sprintf("%s has a null direction: a self-send matches no neighbor and blocks", s.describe()),
			})
		case r.Index <= s.Index:
			ex.broken = true
			res.Deadlocks = append(res.Deadlocks, Deadlock{
				Pos: r.Pos,
				Message: fmt.Sprintf("%s precedes its %s in program order: every processor blocks receiving before any sends (happens-before cycle)",
					r.describe(), s.describe()),
			})
		}
	}
	return out
}

// walkCoverage replays the schedule in program order, tracking which
// neighbor directions hold a valid halo (set by a receive, destroyed
// by a write to the array or a control-flow boundary) and which
// exchanges a write poisoned mid-flight, and snapshots the coverage of
// every remote read at its event.
func walkCoverage(sched *Schedule, exchanges map[msgKey]*exchange) ([]readRec, []writeRec) {
	type haloKey struct{ array, dir string }
	valid := map[haloKey]*exchange{}
	open := map[msgKey]*Event{} // send seen, recv pending
	var reads []readRec
	var writes []writeRec

	for _, e := range sched.Events {
		switch e.Kind {
		case EvReset:
			valid = map[haloKey]*exchange{}
		case EvSend:
			open[msgKey{e.MsgID, ctxString(e.Ctx)}] = e
		case EvRecv:
			delete(open, msgKey{e.MsgID, ctxString(e.Ctx)})
			valid[haloKey{e.Array, e.Off.String()}] = exchanges[msgKey{e.MsgID, ctxString(e.Ctx)}]
		case EvCompute:
			for _, a := range e.Accesses {
				if a.Write {
					writes = append(writes, writeRec{ev: e, acc: a})
					for k := range valid {
						if k.array == a.Array {
							delete(valid, k)
						}
					}
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
				r := readRec{ev: e, acc: a}
				for _, dir := range neighborDirs(a.Off) {
					r.cov = append(r.cov, covEntry{dir: dir, ex: valid[haloKey{a.Array, dir.String()}]})
				}
				reads = append(reads, r)
			}
		}
	}
	return reads, writes
}

// classify enumerates and classifies every conflicting pair.
func classify(sched *Schedule, res *Result, reads []readRec, writes []writeRec) {
	type pairKey struct {
		fPos, sPos   source.Pos
		array, off   string
		ww, sameNest bool
	}
	seen := map[pairKey]int{} // key -> index into res.Pairs

	record := func(p Pair) {
		k := pairKey{p.First.Pos, p.Second.Pos, p.Array, p.Second.Off.String(),
			p.WriteWrite, p.FirstEvent == p.SecondEvent}
		if i, ok := seen[k]; ok {
			// Loop doubling visits a source pair up to four times; keep
			// the worst verdict so a racy copy is never masked.
			if worse(p.Verdict, res.Pairs[i].Verdict) {
				retally(res, res.Pairs[i].Verdict, -1)
				res.Pairs[i] = p
				retally(res, p.Verdict, 1)
			}
			return
		}
		seen[k] = len(res.Pairs)
		res.Pairs = append(res.Pairs, p)
		retally(res, p.Verdict, 1)
	}

	// Write/remote-read pairs.
	for _, r := range reads {
		for _, w := range writes {
			if w.acc.Array != r.acc.Array || !ctxCompatible(w.ev, r.ev) {
				continue
			}
			conflict, overlapEv, unknownOv := overlap(w.acc, r.acc)
			if !conflict && !unknownOv {
				continue
			}
			p := Pair{Array: r.acc.Array, Overlap: overlapEv,
				First: w.acc, Second: r.acc,
				FirstEvent: w.ev.Index, SecondEvent: r.ev.Index}
			switch {
			case unknownOv:
				p.Verdict, p.Evidence = Unknown, overlapEv
			case w.ev.Index == r.ev.Index:
				p.Verdict, p.Evidence = classifySameNest(w, r)
			case w.ev.Index < r.ev.Index:
				p.Verdict, p.Evidence = classifyFlow(w, r)
			default:
				p.Verdict, p.Evidence = classifyAnti(sched, r.ev, w.ev,
					fmt.Sprintf("the remote %s", r.acc), fmt.Sprintf("the later %s", w.acc))
			}
			record(p)
		}
	}

	// Write/write pairs: only possible when a write is offsetted
	// (never in compiler output under block ownership; hand-built
	// schedules can model them).
	for i, w1 := range writes {
		for _, w2 := range writes[i+1:] {
			if w1.acc.Array != w2.acc.Array || (!w1.acc.Remote() && !w2.acc.Remote()) {
				continue
			}
			if !ctxCompatible(w1.ev, w2.ev) {
				continue
			}
			conflict, overlapEv, unknownOv := overlap(w1.acc, w2.acc)
			if !conflict && !unknownOv {
				continue
			}
			p := Pair{Array: w1.acc.Array, Overlap: overlapEv, WriteWrite: true,
				First: w1.acc, Second: w2.acc,
				FirstEvent: w1.ev.Index, SecondEvent: w2.ev.Index}
			switch {
			case unknownOv:
				p.Verdict, p.Evidence = Unknown, overlapEv
			case w1.ev.Index == w2.ev.Index:
				p.Verdict = Race
				p.Evidence = fmt.Sprintf("%s and %s target overlapping elements in one nest with no intervening synchronization", w1.acc, w2.acc)
			default:
				p.Verdict, p.Evidence = classifyAnti(sched, w1.ev, w2.ev,
					w1.acc.String(), w2.acc.String())
			}
			record(p)
		}
	}
}

func worse(a, b Verdict) bool {
	rank := func(v Verdict) int {
		switch v {
		case Race:
			return 2
		case Unknown:
			return 1
		}
		return 0
	}
	return rank(a) > rank(b)
}

func retally(res *Result, v Verdict, d int) {
	switch v {
	case ProvenOrdered:
		res.NumOrdered += d
	case Race:
		res.NumRace += d
	default:
		res.NumUnknown += d
	}
}

// classifyFlow orders a write strictly before a remote read: every
// neighbor direction of the read must be covered by a valid exchange
// whose send follows the write, giving the chain
// write →po send →msg recv →po read.
func classifyFlow(w writeRec, r readRec) (Verdict, string) {
	var chains []string
	for _, c := range r.cov {
		if c.ex == nil || c.ex.send == nil {
			return Race, fmt.Sprintf(
				"no send→recv edge covers the %s halo of %s: %s on one processor may happen in parallel with %s on a neighbor",
				c.dir, r.acc.Array, w.acc, r.acc)
		}
		if c.ex.broken {
			return Unknown, fmt.Sprintf(
				"ordering depends on message %d, whose send/recv matching is broken (see deadlock report)", c.ex.send.MsgID)
		}
		for _, st := range c.ex.stale {
			if st.Index == w.ev.Index {
				return Race, fmt.Sprintf(
					"%s captured %s before %s: the receive at %s delivers stale values to %s (send-time capture violated)",
					c.ex.send.describe(), r.acc.Array, w.acc, c.ex.recv.Pos, r.acc)
			}
		}
		if w.ev.Index > c.ex.send.Index {
			// The write postdates the send but the halo stayed valid:
			// only possible mid-flight, which the stale list covers, or
			// through a model extension; be conservative.
			return Race, fmt.Sprintf(
				"%s happens after %s captured the array: no happens-before edge orders it before %s",
				w.acc, c.ex.send.describe(), r.acc)
		}
		chains = append(chains, fmt.Sprintf("%s →po %s →msg %s →po %s",
			w.acc, c.ex.send.describe(), c.ex.recv.describe(), r.acc))
	}
	return ProvenOrdered, strings.Join(chains, "; ")
}

// classifySameNest orders a write and a remote read fused into one
// nest: the halo is captured before the nest (coverage must hold) and
// the in-nest direction must be anti — the constrained distance of the
// read offset lexicographically nonnegative under the nest's loop
// structure — so the pre-capture matches sequential semantics.
func classifySameNest(w writeRec, r readRec) (Verdict, string) {
	for _, c := range r.cov {
		if c.ex == nil || c.ex.send == nil {
			return Race, fmt.Sprintf(
				"no valid exchange covers the %s halo of %s at the nest fusing %s with %s",
				c.dir, r.acc.Array, w.acc, r.acc)
		}
		if c.ex.broken {
			return Unknown, fmt.Sprintf(
				"ordering depends on message %d, whose send/recv matching is broken (see deadlock report)", c.ex.send.MsgID)
		}
	}
	ord := r.ev.Order
	if len(ord) != len(r.acc.Off) || !ord.Valid() {
		return Unknown, fmt.Sprintf("no loop structure to orient %s against %s within one nest", r.acc, w.acc)
	}
	d := dep.Constrain(r.acc.Off, ord)
	if !dep.LexNonNegative(d) {
		return Race, fmt.Sprintf(
			"%s and %s share a nest with a flow direction (constrained distance %s is lexicographically negative under order %s): the pre-nest halo capture delivers values the neighbor has not yet written",
			w.acc, r.acc, d, ord)
	}
	return ProvenOrdered, fmt.Sprintf(
		"pre-nest halo capture: the exchange precedes the nest and the in-nest direction is anti (constrained distance %s ≥ 0 under order %s), so the read's snapshot matches sequential semantics",
		d, ord)
}

// classifyAnti orders an earlier access before a later write on a
// different processor: a barrier (guaranteed to execute whenever both
// events do) must separate them, else the later write may overtake.
func classifyAnti(sched *Schedule, first, second *Event, firstDesc, secondDesc string) (Verdict, string) {
	for _, e := range sched.Events[first.Index+1 : second.Index] {
		if e.Kind == EvBarrier && ctxCovered(e, first, second) {
			return ProvenOrdered, fmt.Sprintf(
				"%s →po %s →sync %s: the barrier's cross-product edge orders every processor's earlier access before every later one",
				firstDesc, e.describe(), secondDesc)
		}
	}
	return Race, fmt.Sprintf(
		"no barrier separates %s from %s: the write may overtake the access on a neighboring processor (missing barrier edge)",
		firstDesc, secondDesc)
}

// overlap decides whether two accesses touch common elements: the
// per-dimension interval intersection of (region + offset) on each
// side, with the absint interval domain supplying the evidence.
func overlap(a, b Access) (conflict bool, evidence string, unknown bool) {
	if a.Region == nil || b.Region == nil {
		return false, fmt.Sprintf("cannot compare regions of %s and %s (no bounds)", a, b), true
	}
	if a.Region.Rank() != b.Region.Rank() {
		return false, "", false
	}
	rank := a.Region.Rank()
	offAt := func(off air.Offset, d int) int64 {
		if d < len(off) {
			return int64(off[d])
		}
		return 0
	}
	var dims []string
	for d := 0; d < rank; d++ {
		ia := absint.Range(int64(a.Region.Lo[d])+offAt(a.Off, d), int64(a.Region.Hi[d])+offAt(a.Off, d))
		ib := absint.Range(int64(b.Region.Lo[d])+offAt(b.Off, d), int64(b.Region.Hi[d])+offAt(b.Off, d))
		m := ia.Meet(ib)
		if m.IsEmpty() {
			return false, "", false
		}
		dims = append(dims, fmt.Sprintf("dim %d: %s ∩ %s = %s", d+1, ia, ib, m))
	}
	return true, strings.Join(dims, ", "), false
}

// neighborDirs decomposes a read offset into the per-neighbor
// direction sub-patterns the exchange machinery uses: every nonzero
// sign sub-pattern over the active dimensions.
func neighborDirs(off air.Offset) []air.Offset {
	var active []int
	for k, v := range off {
		if v != 0 {
			active = append(active, k)
		}
	}
	var out []air.Offset
	var build func(i int, cur air.Offset, any bool)
	build = func(i int, cur air.Offset, any bool) {
		if i == len(active) {
			if any {
				out = append(out, cur.Clone())
			}
			return
		}
		build(i+1, cur, any)
		cur[active[i]] = off[active[i]]
		build(i+1, cur, true)
		cur[active[i]] = 0
	}
	build(0, air.Zero(len(off)), false)
	return out
}
