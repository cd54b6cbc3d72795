package distvm

import (
	"fmt"
	"math"

	"repro/internal/air"
	"repro/internal/lir"
	"repro/internal/sema"
)

// planKey identifies one receiver's halo plan. The plan depends on the
// Comm node only through its array and direction, so the send and
// receive halves of a pipelined exchange share one.
type planKey struct {
	array, off string
	recv       int
}

// haloPlan computes, for the receiver of one exchange, the halo slab
// indices it must refresh, grouped by owning processor, in row-major
// slab order. The plan is a pure function of the static block
// geometry, so the owner and the requirer derive identical plans
// independently — messages carry only values, no index lists. Plans
// are built while the shards compile and cached for that long.
func (m *Machine) haloPlan(c *lir.Comm, recv int) map[int][][]int {
	key := planKey{c.Array, c.Off.String(), recv}
	if plan, ok := m.plans[key]; ok {
		return plan
	}
	locals := m.locals[c.Array]
	rank := len(c.Off)
	d := m.decomps[rank]
	la := locals[recv]

	// The halo slab for this direction, relative to the receiver's
	// block, clipped to the receiver's local storage.
	slab := &sema.Region{Lo: make([]int, rank), Hi: make([]int, rank)}
	for k := 0; k < rank; k++ {
		switch {
		case c.Off[k] > 0:
			slab.Lo[k] = la.block.Hi[k] + 1
			slab.Hi[k] = la.block.Hi[k] + c.Off[k]
		case c.Off[k] < 0:
			slab.Lo[k] = la.block.Lo[k] + c.Off[k]
			slab.Hi[k] = la.block.Lo[k] - 1
		default:
			slab.Lo[k] = la.block.Lo[k]
			slab.Hi[k] = la.block.Hi[k]
		}
		slab.Lo[k] = max(slab.Lo[k], la.bounds.Lo[k])
		slab.Hi[k] = min(slab.Hi[k], la.bounds.Hi[k])
	}

	plan := map[int][][]int{}
	idx := make([]int, rank)
	var walk func(k int)
	walk = func(k int) {
		if k == rank {
			owner := d.Owner(idx)
			if owner < 0 {
				return // beyond the anchor: stays zero (global halo)
			}
			if !locals[owner].contains(idx) {
				return // owner clipped it away (outside alloc)
			}
			plan[owner] = append(plan[owner], append([]int(nil), idx...))
			return
		}
		for i := slab.Lo[k]; i <= slab.Hi[k]; i++ {
			idx[k] = i
			walk(k + 1)
		}
	}
	walk(0)
	m.plans[key] = plan
	return plan
}

// leg is one message of an exchange as one processor sees it: the peer
// and the positions, in this processor's storage, of the values that
// travel.
type leg struct {
	peer int
	pos  []int
}

// Comm plans one ghost-cell exchange as message passing between the
// processor goroutines and returns the function that performs c's
// phase of it over data, this processor's storage for the array. The
// send phase captures the owner's current boundary values and posts
// them (legal because insertion guarantees the array is not rewritten
// between a send and its receive, so send-time data equals
// receive-time data); the receive phase installs the matching messages
// into this processor's halo. A whole (unpipelined) primitive does
// both at once.
func (s *shard) Comm(c *lir.Comm, data []float64) (func() error, error) {
	locals, ok := s.m.locals[c.Array]
	if !ok {
		return nil, fmt.Errorf("distvm: exchange of unknown array %s", c.Array)
	}
	mine := locals[s.id]
	legOf := func(peer int, idxs [][]int) leg {
		l := leg{peer: peer, pos: make([]int, len(idxs))}
		for i, idx := range idxs {
			l.pos[i] = mine.at(idx)
		}
		return l
	}
	// What every other receiver needs from this owner, and what this
	// receiver needs from every other owner.
	var sends, recvs []leg
	for r := 0; r < s.m.procs; r++ {
		if idxs := s.m.haloPlan(c, r)[s.id]; r != s.id && len(idxs) > 0 {
			sends = append(sends, legOf(r, idxs))
		}
	}
	plan := s.m.haloPlan(c, s.id)
	for o := 0; o < s.m.procs; o++ {
		if idxs := plan[o]; o != s.id && len(idxs) > 0 {
			recvs = append(recvs, legOf(o, idxs))
		}
	}

	array, msgID := c.Array, c.MsgID
	post := func() error {
		for _, l := range sends {
			vals := make([]float64, len(l.pos))
			for i, p := range l.pos {
				vals[i] = data[p]
			}
			if err := s.sendHalo(l.peer, haloMsg{from: s.id, array: array, msgID: msgID, vals: vals}); err != nil {
				return err
			}
		}
		return nil
	}
	accept := func() error {
		for _, l := range recvs {
			vals, err := s.recvHaloFrom(l.peer, array, msgID, len(l.pos))
			if err != nil {
				return err
			}
			for i, p := range l.pos {
				data[p] = vals[i]
			}
		}
		return nil
	}
	switch c.Phase {
	case air.CommSend:
		return post, nil
	case air.CommRecv:
		return accept, nil
	}
	return func() error {
		if err := post(); err != nil {
			return err
		}
		return accept()
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
