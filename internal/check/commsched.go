package check

import (
	"sort"

	"repro/internal/air"
	"repro/internal/lir"
	"repro/internal/source"
)

// CommSchedule statically verifies the communication schedule of a
// scalarized program before the distributed machine ever runs it:
// every ghost-region read is covered by a still-valid exchange in the
// matching direction, every pipelined send has exactly one matching
// receive (same message id, array, and direction) that runs after it,
// and no statement rewrites an array between a send and its receive
// (the invariant that lets the send capture values early). In a
// sequential compilation it verifies the absence of communication.
func CommSchedule(prog *air.Program, lp *lir.Program, distributed bool) []Report {
	rp := &reporter{pass: PassComm}
	if lp == nil {
		return nil
	}
	st := &commWalker{
		rp:      rp,
		dist:    distributed,
		valid:   map[haloDir]bool{},
		pairs:   map[int]*msgPair{},
		written: procWrites(lp),
	}
	for _, name := range procNames(lp) {
		st.valid = map[haloDir]bool{}
		st.walk(lp.Procs[name].Body)
	}
	st.checkPairs()
	return rp.reports
}

// haloDir keys halo validity the same way insertion does: array name
// plus exact direction offset.
type haloDir struct {
	array string
	dir   string
}

// msgPair accumulates the send/recv halves observed for one message id.
type msgPair struct {
	sends, recvs []*lir.Comm
	sendSeq      int
	recvSeq      int
	wroteBetween bool
	writeBetween string
}

type commWalker struct {
	rp      *reporter
	dist    bool
	valid   map[haloDir]bool
	seq     int
	pairs   map[int]*msgPair
	written map[string]map[string]bool // proc -> arrays its body (transitively) writes
}

func procNames(lp *lir.Program) []string {
	names := make([]string, 0, len(lp.Procs))
	for n := range lp.Procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (st *commWalker) reset() { st.valid = map[haloDir]bool{} }

func (st *commWalker) walk(nodes []lir.Node) {
	for _, nd := range nodes {
		st.seq++
		switch x := nd.(type) {
		case *lir.Comm:
			st.comm(x)
		case *lir.Nest:
			st.nest(x)
		case *lir.PartialReduce:
			if x.Region != nil {
				st.reads(air.Refs(x.Body), x.Pos)
			}
			st.write(x.LHS)
		case *lir.Call:
			for arr := range st.written[x.Proc] {
				st.write(arr)
			}
		case *lir.Loop:
			st.reset()
			st.walk(x.Body)
			st.reset()
		case *lir.While:
			st.reset()
			st.walk(x.Body)
			st.reset()
		case *lir.If:
			st.reset()
			st.walk(x.Then)
			st.reset()
			st.walk(x.Else)
			st.reset()
		}
	}
}

func (st *commWalker) comm(c *lir.Comm) {
	if !st.dist {
		st.rp.errorf(c.Pos, "communication primitive %s %s@%s in a sequential compilation",
			c.Phase, c.Array, c.Off)
		return
	}
	if c.Off.IsZero() {
		st.rp.errorf(c.Pos, "exchange of %s with a null direction moves nothing", c.Array)
	}
	p := st.pair(c.MsgID, c)
	if c.Phase == air.CommSend {
		p.sends = append(p.sends, c)
		p.sendSeq = st.seq
	} else {
		p.recvs = append(p.recvs, c)
		p.recvSeq = st.seq
		st.valid[haloDir{c.Array, c.Off.String()}] = true
	}
}

func (st *commWalker) pair(id int, c *lir.Comm) *msgPair {
	if id <= 0 {
		st.rp.errorf(c.Pos, "%s of %s@%s carries no message id", c.Phase, c.Array, c.Off)
	}
	p := st.pairs[id]
	if p == nil {
		p = &msgPair{}
		st.pairs[id] = p
	}
	return p
}

// nest checks the reads of a fused loop nest in member order — the
// order the statements held when insertion placed the exchanges — then
// applies the writes.
func (st *commWalker) nest(n *lir.Nest) {
	for _, pl := range n.Preloads {
		st.readOne(pl.Array, pl.Off, pl.Pos)
	}
	for _, s := range n.Body {
		st.reads(air.Refs(s.RHS), s.Pos)
		if !s.IsReduce {
			st.write(s.LHS)
		}
	}
}

func (st *commWalker) reads(refs []air.Ref, pos source.Pos) {
	for _, r := range refs {
		st.readOne(r.Array, r.Off, pos)
	}
}

func (st *commWalker) readOne(array string, off air.Offset, pos source.Pos) {
	if !st.dist || off.IsZero() {
		return
	}
	for _, dir := range neighborDirs(off) {
		if !st.valid[haloDir{array, dir.String()}] {
			st.rp.errorf(pos,
				"read of %s@%s needs the %s halo, but no valid exchange covers it",
				array, off, dir)
		}
	}
}

// write invalidates the array's halos and poisons any open send/recv
// window on it.
func (st *commWalker) write(array string) {
	for k := range st.valid {
		if k.array == array {
			delete(st.valid, k)
		}
	}
	for _, p := range st.pairs {
		if len(p.sends) == 1 && len(p.recvs) == 0 && p.sends[0].Array == array {
			p.wroteBetween = true
			p.writeBetween = array
		}
	}
}

func (st *commWalker) checkPairs() {
	ids := make([]int, 0, len(st.pairs))
	for id := range st.pairs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := st.pairs[id]
		var pos source.Pos
		var array string
		if len(p.sends) > 0 {
			pos, array = p.sends[0].Pos, p.sends[0].Array
		} else if len(p.recvs) > 0 {
			pos, array = p.recvs[0].Pos, p.recvs[0].Array
		}
		if len(p.sends) != 1 || len(p.recvs) != 1 {
			st.rp.errorf(pos,
				"message %d of %s has %d send(s) and %d receive(s); exactly one of each required",
				id, array, len(p.sends), len(p.recvs))
			continue
		}
		s, r := p.sends[0], p.recvs[0]
		if s.Array != r.Array || !s.Off.Equal(r.Off) {
			st.rp.errorf(r.Pos,
				"message %d pairs send %s@%s with receive %s@%s", id, s.Array, s.Off, r.Array, r.Off)
		}
		if p.sendSeq >= p.recvSeq {
			st.rp.errorf(r.Pos, "message %d of %s receives before (or without) its send", id, s.Array)
		}
		if p.wroteBetween {
			st.rp.errorf(r.Pos,
				"array %s rewritten between send and receive of message %d (send-time capture violated)",
				p.writeBetween, id)
		}
	}
}

// neighborDirs re-derives the per-neighbor decomposition of a read
// offset: every nonzero sign sub-pattern over the active dimensions,
// built recursively (insertion uses a bitmask enumeration).
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
		build(i+1, cur, any) // dimension inactive in this direction
		cur[active[i]] = off[active[i]]
		build(i+1, cur, true)
		cur[active[i]] = 0
	}
	build(0, air.Zero(len(off)), false)
	return out
}

// procWrites computes, for every procedure, the set of arrays its body
// writes to memory, transitively through calls (re-derived from the
// LIR itself rather than the lowering-time effect summaries).
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
			return map[string]bool{} // defensive: recursion is illegal upstream
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
