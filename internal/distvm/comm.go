package distvm

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/sema"
)

// haloMsg carries one slab of ghost-cell values from its owner to a
// requiring processor. The element order is the receiver's row-major
// slab enumeration, which both sides derive independently from the
// static block geometry — messages need no index lists or handshakes.
type haloMsg struct {
	from  int
	array string
	msgID int
	vals  []float64
}

// ctrlKind tags the synchronization messages.
type ctrlKind int

const (
	ctrlArrive  ctrlKind = iota // processor -> processor 0: barrier/reduce entry
	ctrlRelease                 // processor 0 -> processor: combined result
)

func (k ctrlKind) String() string {
	if k == ctrlArrive {
		return "arrive"
	}
	return "release"
}

// ctrlMsg is one barrier or reduction message. vals carries the
// reduction partials on arrival and the combined result on release;
// nil for a pure barrier.
type ctrlMsg struct {
	kind ctrlKind
	from int
	seq  int
	vals []float64
}

// shard is one processor's end of the protocol: the vm.Shard its
// executor is compiled against. All fields are owned exclusively by
// the processor's goroutine; cross-processor data moves only through
// the machine's channels.
type shard struct {
	m  *Machine
	id int

	// syncSeq numbers the barrier/reduction operations this processor
	// has entered. Replicated control flow gives every processor the
	// same sequence; a mismatch is a protocol error.
	syncSeq int

	// stash holds halo messages that arrived ahead of the receive
	// operation that consumes them (pipelined sends can overtake).
	stash []haloMsg

	// watchdog is armed around every blocking mailbox operation and
	// stopped (and drained) after it, so it is idle in between.
	watchdog *time.Timer
}

func newShard(m *Machine, id int) *shard {
	t := time.NewTimer(m.timeout)
	t.Stop()
	return &shard{m: m, id: id, watchdog: t}
}

// Local returns this processor's storage bounds for an array.
func (s *shard) Local(array string) *sema.Region {
	return s.m.locals[array][s.id].bounds
}

// Portion returns the part of a sweep region inside this processor's
// owned block, nil when there is none.
func (s *shard) Portion(r *sema.Region) *sema.Region {
	d, ok := s.m.decomps[r.Rank()]
	if !ok {
		return nil
	}
	p := dist.Intersect(r, d.Block(s.id))
	if dist.Empty(p) {
		return nil
	}
	return p
}

// arm starts the watchdog for one blocking operation.
func (s *shard) arm() <-chan time.Time {
	s.watchdog.Reset(s.m.timeout)
	return s.watchdog.C
}

// disarm stops the watchdog, draining an expiry nobody consumed so the
// next arm starts from an empty channel.
func (s *shard) disarm() {
	if !s.watchdog.Stop() {
		select {
		case <-s.watchdog.C:
		default:
		}
	}
}

// timeoutErr describes a watchdog expiry: some processor stopped
// participating in the protocol (died, diverged, or deadlocked).
func (s *shard) timeoutErr(what string) error {
	return fmt.Errorf("distvm: processor %d timed out after %v waiting for %s (sync #%d) — lost processor or protocol mismatch",
		s.id, s.m.timeout, what, s.syncSeq)
}

// send delivers v on a mailbox under the watchdog. The mailboxes are
// sized for the regular protocol, so a blocked send already means
// something is wrong; the watchdog reports it instead of deadlocking.
func send[T any](s *shard, ch chan<- T, v T, what func() string) error {
	defer s.disarm()
	select {
	case ch <- v:
		return nil
	case <-s.m.ctx.Done():
		return errAborted
	case <-s.arm():
		return s.timeoutErr(what())
	}
}

// recv blocks on a mailbox under the watchdog.
func recv[T any](s *shard, ch <-chan T, what func() string) (T, error) {
	defer s.disarm()
	var v T
	select {
	case v = <-ch:
		return v, nil
	case <-s.m.ctx.Done():
		return v, errAborted
	case <-s.arm():
		return v, s.timeoutErr(what())
	}
}

func (s *shard) recvCtrl(what string) (ctrlMsg, error) {
	return recv(s, s.m.ctrl[s.id], func() string { return what })
}

func (s *shard) sendCtrl(to int, msg ctrlMsg) error {
	return send(s, s.m.ctrl[to], msg, func() string {
		return fmt.Sprintf("space in processor %d's control mailbox", to)
	})
}

// AllCombine is the machine's gather-combine-broadcast primitive: every
// processor contributes part, processor 0 folds the parts together in
// processor order (so the result is deterministic no matter how the
// goroutines are scheduled), and every processor returns the combined
// vector. part is consumed — processor 0 folds into its own. Empty
// parts degenerate to a barrier.
func (s *shard) AllCombine(part []float64, fold func(acc, next []float64)) ([]float64, error) {
	s.syncSeq++
	seq := s.syncSeq
	if s.id != 0 {
		if err := s.sendCtrl(0, ctrlMsg{kind: ctrlArrive, from: s.id, seq: seq, vals: part}); err != nil {
			return nil, err
		}
		msg, err := s.recvCtrl("release from processor 0")
		if err != nil {
			return nil, err
		}
		if msg.kind != ctrlRelease || msg.seq != seq {
			return nil, fmt.Errorf("distvm: processor %d: protocol mismatch: got %s #%d, want release #%d",
				s.id, msg.kind, msg.seq, seq)
		}
		return msg.vals, nil
	}

	parts := make([][]float64, s.m.procs)
	seen := make([]bool, s.m.procs)
	for n := 1; n < s.m.procs; n++ {
		msg, err := s.recvCtrl("arrivals from the other processors")
		if err != nil {
			return nil, err
		}
		if msg.kind != ctrlArrive || msg.seq != seq {
			return nil, fmt.Errorf("distvm: processor 0: protocol mismatch: got %s #%d from processor %d, want arrive #%d",
				msg.kind, msg.seq, msg.from, seq)
		}
		if msg.from <= 0 || msg.from >= s.m.procs || seen[msg.from] {
			return nil, fmt.Errorf("distvm: processor 0: protocol mismatch: bad arrival from processor %d", msg.from)
		}
		seen[msg.from] = true
		parts[msg.from] = msg.vals
	}
	for p := 1; p < s.m.procs; p++ {
		if len(parts[p]) != len(part) {
			return nil, fmt.Errorf("distvm: processor 0: protocol mismatch: processor %d contributes %d values to sync #%d, want %d",
				p, len(parts[p]), seq, len(part))
		}
		if len(part) > 0 {
			fold(part, parts[p])
		}
	}
	for q := 1; q < s.m.procs; q++ {
		if err := s.sendCtrl(q, ctrlMsg{kind: ctrlRelease, seq: seq, vals: part}); err != nil {
			return nil, err
		}
	}
	return part, nil
}

// sendHalo posts one ghost-cell message under the watchdog.
func (s *shard) sendHalo(to int, msg haloMsg) error {
	return send(s, s.m.halo[to], msg, func() string {
		return fmt.Sprintf("space in processor %d's halo mailbox", to)
	})
}

// maxStash bounds the early-arrival buffer; exceeding it means the
// processors disagree about the communication schedule.
const maxStash = 1024

// recvHaloFrom returns the next halo message from the given owner for
// (array, msgID), in per-sender FIFO order. Messages that belong to a
// later receive (pipelined sends overtaking this one) are stashed.
func (s *shard) recvHaloFrom(from int, array string, msgID int, wantElems int) ([]float64, error) {
	for i, msg := range s.stash {
		if msg.from == from && msg.array == array && msg.msgID == msgID {
			s.stash = append(s.stash[:i], s.stash[i+1:]...)
			return s.checkHalo(msg, wantElems)
		}
	}
	for {
		msg, err := recv(s, s.m.halo[s.id], func() string {
			return fmt.Sprintf("halo of %s (msg %d) from processor %d", array, msgID, from)
		})
		if err != nil {
			return nil, err
		}
		if msg.from == from && msg.array == array && msg.msgID == msgID {
			return s.checkHalo(msg, wantElems)
		}
		if len(s.stash) >= maxStash {
			return nil, fmt.Errorf("distvm: processor %d: protocol mismatch: %d unexpected halo messages stashed while waiting for %s (msg %d) from processor %d",
				s.id, len(s.stash), array, msgID, from)
		}
		s.stash = append(s.stash, msg)
	}
}

// checkHalo validates a matched message's payload size.
func (s *shard) checkHalo(msg haloMsg, wantElems int) ([]float64, error) {
	if len(msg.vals) != wantElems {
		return nil, fmt.Errorf("distvm: processor %d: protocol mismatch: halo of %s from processor %d carries %d elements, want %d",
			s.id, msg.array, msg.from, len(msg.vals), wantElems)
	}
	return msg.vals, nil
}
