// Package comm inserts and optimizes the compiler-generated
// communication primitives of a distributed execution (§5.5). Every
// array dimension is block-distributed (the paper's assumption), so an
// @-reference with a nonzero offset needs a ghost-cell exchange with
// the neighbor in that direction before its consuming statement runs.
//
// The optimizations match the ones the paper discusses:
//
//   - message vectorization is inherent: a primitive moves the whole
//     halo slab of an array statement, never per-element messages;
//   - redundancy elimination skips an exchange whose halo is still
//     valid (same array and offset, no intervening write);
//   - message combining is not implemented for pipelined send/recv
//     pairs, the only kind of exchange there is;
//   - pipelining splits an exchange into a send posted right after the
//     producing statement and a receive right before the consumer, so
//     intervening computation hides the latency.
//
// Communication statements are unnormalized: they are never fusion or
// contraction candidates, and any array they touch keeps its halo and
// stays in memory.
package comm

import (
	"repro/internal/air"
	"repro/internal/sema"
)

// Strategy resolves the fusion-versus-communication conflict of §5.5.
type Strategy int

// Strategies.
const (
	// FavorFusion never lets communication optimization prevent
	// fusion (the paper's recommendation).
	FavorFusion Strategy = iota
	// FavorComm forbids fusion that would shrink a pipelined
	// message's overlap window: statements may only fuse within the
	// same communication-free segment of their block.
	FavorComm
)

func (s Strategy) String() string {
	if s == FavorComm {
		return "favor-comm"
	}
	return "favor-fusion"
}

// Options configures insertion. Redundancy elimination and pipelining
// always run.
type Options struct {
	Procs    int // processor count; <=1 disables communication
	Strategy Strategy
}

// DefaultOptions is the favor-fusion strategy on procs processors, the
// configuration of the paper's main experiments.
func DefaultOptions(procs int) Options {
	return Options{Procs: procs}
}

// Result reports what insertion did.
type Result struct {
	Inserted   int // exchanges inserted, each one send/recv pair
	Eliminated int // exchanges avoided by redundancy elimination
}

// Insert rewrites every block of the program, inserting communication
// primitives before consumers of remote data. It must run before the
// fusion phase so that the primitives participate in dependence
// analysis (the paper's argument for array-level integration).
func Insert(prog *air.Program, opt Options) *Result {
	res := &Result{}
	if opt.Procs <= 1 {
		return res
	}
	msgID := 0
	for _, b := range prog.AllBlocks() {
		msgID = insertBlock(b, res, msgID)
	}
	return res
}

type haloKey struct {
	array string
	off   string
}

func insertBlock(b *air.Block, res *Result, msgID int) int {
	valid := map[haloKey]bool{}
	lastWrite := map[string]int{} // array -> original index of last write
	lastBarrier := -1             // index of the last unsummarized call
	// before[j] collects primitives to splice in before original
	// statement j; len(b.Stmts)+1 slots so sends can land anywhere.
	before := make([][]air.Stmt, len(b.Stmts)+1)

	for j, s := range b.Stmts {
		var reads []air.Ref
		reg := regionOf(s)
		switch x := s.(type) {
		case *air.ArrayStmt:
			reads = x.Reads()
		case *air.ReduceStmt:
			reads = air.Refs(x.Body)
		case *air.PartialReduceStmt:
			reads = air.Refs(x.Body)
			reg = x.Region
		}
		for _, r := range reads {
			if r.Off.IsZero() {
				continue
			}
			// Decompose the offset into per-neighbor exchanges
			// (cardinal strips plus diagonal corners), mirroring the
			// ZPL runtime: a read at (1,1) needs the north and east
			// strips and the north-east corner, each a disjoint slab.
			for _, dir := range NeighborDirections(r.Off) {
				key := haloKey{r.Array, dir.String()}
				if valid[key] {
					res.Eliminated++
					continue
				}
				valid[key] = true
				res.Inserted++
				msgID++
				pos := air.PosOf(s)
				sendPos := lastBarrier + 1
				if w, ok := lastWrite[r.Array]; ok && w+1 > sendPos {
					sendPos = w + 1
				}
				before[sendPos] = append(before[sendPos], &air.CommStmt{
					Array: r.Array, Off: dir, Region: reg,
					Phase: air.CommSend, MsgID: msgID, Pos: pos,
				})
				before[j] = append(before[j], &air.CommStmt{
					Array: r.Array, Off: dir, Region: reg,
					Phase: air.CommRecv, MsgID: msgID, Pos: pos,
				})
			}
		}
		// Writes invalidate the array's halos.
		var written string
		switch x := s.(type) {
		case *air.ArrayStmt:
			written = x.LHS
		case *air.PartialReduceStmt:
			written = x.LHS
		}
		if written != "" {
			for k := range valid {
				if k.array == written {
					delete(valid, k)
				}
			}
			lastWrite[written] = j
		}
		// Calls may rewrite global arrays, leaving halos stale: a
		// summarized callee invalidates exactly the arrays it writes,
		// an unknown (or I/O) callee invalidates everything and pins
		// later sends below itself.
		if c, ok := s.(*air.CallStmt); ok {
			if c.Effects == nil || c.Effects.IO {
				valid = map[haloKey]bool{}
				lastBarrier = j
			} else {
				for _, name := range c.Effects.ArraysWritten {
					for k := range valid {
						if k.array == name {
							delete(valid, k)
						}
					}
					lastWrite[name] = j
				}
			}
		}
	}

	var out []air.Stmt
	for j := range b.Stmts {
		out = append(out, before[j]...)
		out = append(out, b.Stmts[j])
	}
	out = append(out, before[len(b.Stmts)]...)
	b.Stmts = out
	return msgID
}

// regionOf returns the iteration region of a fusible statement.
func regionOf(s air.Stmt) *sema.Region {
	switch x := s.(type) {
	case *air.ArrayStmt:
		return x.Region
	case *air.ReduceStmt:
		return x.Region
	case *air.PartialReduceStmt:
		return x.Region
	}
	return nil
}

// NeighborDirections decomposes a read offset into the neighbor
// exchanges required to make its halo valid: every nonzero sign
// sub-pattern of the offset, carrying the offset's widths in its
// active dimensions. A cardinal offset yields itself; a rank-2
// diagonal yields two strips and a corner.
func NeighborDirections(off air.Offset) []air.Offset {
	var active []int
	for k, v := range off {
		if v != 0 {
			active = append(active, k)
		}
	}
	var out []air.Offset
	for mask := 1; mask < 1<<len(active); mask++ {
		d := air.Zero(len(off))
		for i, k := range active {
			if mask&(1<<i) != 0 {
				d[k] = off[k]
			}
		}
		out = append(out, d)
	}
	return out
}

// Segments labels each statement of a block with its communication
// segment: the index increments at every communication primitive.
// Under the FavorComm strategy fusion may not cross segments, keeping
// the statements between a send and its receive available to hide the
// message latency.
func Segments(stmts []air.Stmt) []int {
	seg := make([]int, len(stmts))
	cur := 0
	for i, s := range stmts {
		if _, ok := s.(*air.CommStmt); ok {
			cur++
		}
		seg[i] = cur
	}
	return seg
}
