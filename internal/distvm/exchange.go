package distvm

import (
	"fmt"
	"math"

	"repro/internal/air"
	"repro/internal/lir"
)

// leg is one message of an exchange as one processor sees it: the peer
// and, in this processor's storage, the rectangle that travels — rows
// of width contiguous elements starting at the offsets in rows, in
// row-major order.
type leg struct {
	peer  int
	rows  []int
	width int
}

func (l leg) elems() int { return len(l.rows) * l.width }

// legRows plans the message by which processor recv refreshes its ghost
// cells of c.Array in direction c.Off from processor owner, as rows in
// the storage of in (one of the two); nil when nothing travels. What
// travels is the halo slab on that side of recv's block, clipped to
// recv's storage, ∩ owner's block (ownership: beyond the anchor nobody
// owns it and it stays zero) ∩ owner's storage (clipped away outside the
// allocation): a rectangle, and a pure function of the static block
// geometry, so both sides derive the same one independently and
// messages carry only values, in its row-major order.
func legRows(c *lir.Comm, recv, owner, in *localArray) (rows []int, width int) {
	rank := len(c.Off)
	lo, hi := make([]int, rank), make([]int, rank)
	for k := 0; k < rank; k++ {
		lo[k], hi[k] = recv.block.Lo[k], recv.block.Hi[k]
		switch {
		case c.Off[k] > 0:
			lo[k], hi[k] = recv.block.Hi[k]+1, recv.block.Hi[k]+c.Off[k]
		case c.Off[k] < 0:
			lo[k], hi[k] = recv.block.Lo[k]+c.Off[k], recv.block.Lo[k]-1
		}
		lo[k] = max(lo[k], recv.bounds.Lo[k], owner.block.Lo[k], owner.bounds.Lo[k])
		hi[k] = min(hi[k], recv.bounds.Hi[k], owner.block.Hi[k], owner.bounds.Hi[k])
		if lo[k] > hi[k] {
			return nil, 0
		}
	}
	idx := append([]int(nil), lo...)
	for k := rank - 1; k >= 0; {
		rows = append(rows, in.at(idx))
		for k = rank - 2; k >= 0; k-- { // next row: an odometer over all but the last dimension
			if idx[k]++; idx[k] <= hi[k] {
				break
			}
			idx[k] = lo[k]
		}
	}
	return rows, hi[rank-1] - lo[rank-1] + 1
}

// Comm plans one ghost-cell exchange as message passing between the
// processor goroutines and returns the function that performs c's
// phase of it over data, this processor's storage for the array. The
// send phase captures the owner's current boundary values and posts
// them (legal because insertion guarantees the array is not rewritten
// between a send and its receive, so send-time data equals
// receive-time data); the receive phase installs the matching messages
// into this processor's halo.
func (s *shard) Comm(c *lir.Comm, data []float64) (func() error, error) {
	locals, ok := s.m.locals[c.Array]
	if !ok {
		return nil, fmt.Errorf("distvm: exchange of unknown array %s", c.Array)
	}
	// What every other receiver needs from this owner, and what this
	// receiver needs from every other owner.
	var sends, recvs []leg
	mine := locals[s.id]
	for q, other := range locals {
		if q == s.id {
			continue
		}
		if rows, w := legRows(c, other, mine, mine); rows != nil && c.Phase == air.CommSend {
			sends = append(sends, leg{q, rows, w})
		}
		if rows, w := legRows(c, mine, other, mine); rows != nil && c.Phase == air.CommRecv {
			recvs = append(recvs, leg{q, rows, w})
		}
	}
	s.inbox += len(recvs)

	array, msgID := c.Array, c.MsgID
	return func() error {
		for _, l := range sends {
			vals := make([]float64, 0, l.elems())
			for _, at := range l.rows {
				vals = append(vals, data[at:at+l.width]...)
			}
			s.traffic.HaloMessages++
			s.traffic.HaloElements += int64(len(vals))
			if err := s.sendHalo(l.peer, haloMsg{from: s.id, array: array, msgID: msgID, vals: vals}); err != nil {
				return err
			}
		}
		for _, l := range recvs {
			vals, err := s.recvHaloFrom(l.peer, array, msgID, l.elems())
			if err != nil {
				return err
			}
			for i, at := range l.rows {
				copy(data[at:at+l.width], vals[i*l.width:])
			}
		}
		return nil
	}, nil
}

// ---------------------------------------------------------------------------
// Inspection

// Gather reassembles an array's global contents from the owners'
// blocks, returned row-major over the allocation bounds with
// unowned (halo) elements zero — directly comparable with the
// sequential vm.Machine.ArrayData.
func (m *Machine) Gather(name string) []float64 {
	info := m.prog.Source.Arrays[name]
	if info == nil || info.Contracted {
		return nil
	}
	locals := m.locals[name]
	d := m.decomps[info.Declared.Rank()]
	rank := info.Declared.Rank()
	size := info.Alloc.Size()
	out := make([]float64, size)

	strides := make([]int, rank)
	s := 1
	for k := rank - 1; k >= 0; k-- {
		strides[k] = s
		s *= info.Alloc.Extent(k)
	}

	data := make([][]float64, m.procs)
	for p, sm := range m.shards {
		data[p] = sm.ArrayData(name)
	}
	idx := make([]int, rank)
	var walk func(k int)
	walk = func(k int) {
		if k == rank {
			owner := d.Owner(idx)
			if owner < 0 {
				return
			}
			la := locals[owner]
			if !la.contains(idx) {
				return
			}
			pos := 0
			for j := 0; j < rank; j++ {
				pos += (idx[j] - info.Alloc.Lo[j]) * strides[j]
			}
			out[pos] = data[owner][la.at(idx)]
			return
		}
		for i := info.Alloc.Lo[k]; i <= info.Alloc.Hi[k]; i++ {
			idx[k] = i
			walk(k + 1)
		}
	}
	walk(0)
	return out
}

// Scalar returns processor 0's value of a scalar.
func (m *Machine) Scalar(name string) (float64, bool) {
	v, ok := m.scalars[0][name]
	return v, ok
}

// ScalarsConsistent verifies the replicated-scalar invariant: every
// processor holds identical scalar state. A scalar that is missing on
// some processor is just as much a violation as one that differs —
// replication means every processor executed the same assignments.
// Returns the first discrepancy found.
func (m *Machine) ScalarsConsistent() error {
	for name, v0 := range m.scalars[0] {
		for p := 1; p < m.procs; p++ {
			v, ok := m.scalars[p][name]
			if !ok {
				return fmt.Errorf("scalar %s missing on proc %d (replicated-scalar violation)", name, p)
			}
			if v == v0 || (math.IsNaN(v) && math.IsNaN(v0)) {
				continue
			}
			return fmt.Errorf("scalar %s differs: proc0=%v proc%d=%v", name, v0, p, v)
		}
	}
	return nil
}
