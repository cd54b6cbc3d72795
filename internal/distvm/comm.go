package distvm

import (
	"fmt"
	"runtime"
	"sync/atomic"
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

// slot is one processor's word in the combining barrier. Only its owner
// writes it: part and then seq when it arrives at a synchronisation
// (processor 0: when it releases one, so slot 0 is the release word and
// its part the combined result), parked around a block on wake. The
// atomic store of seq publishes part, and the load that observes it is
// what licenses reading part. The padding keeps two processors' words
// off one cache line.
type slot struct {
	seq    atomic.Int64
	parked atomic.Bool
	part   []float64
	wake   chan struct{} // capacity 1: a token nobody is waiting for is a spurious wake-up
	_      [64]byte
}

// rouse wakes the slot's owner if it has parked. The caller has just
// published what the owner waits for; the owner re-reads that after it
// raises parked, so whichever of the two is second sees the other.
func (sl *slot) rouse() {
	if sl.parked.Load() {
		select {
		case sl.wake <- struct{}{}:
		default:
		}
	}
}

// A waiter polls spinPolls times, then polls between up to spinYields
// runtime.Gosched calls, then parks; each step is needed. The spin
// (0.4 µs) outlasts the release of a round everybody had reached (0.2–
// 0.3 µs), so the busy side of a sweep stays out of the scheduler, and
// is all a waiter may burn before it knows its peer is running at all:
// with more processors than Ps, or both goroutines on one P, the peer
// runs only once the waiter yields, and a 3 µs spin made that case
// (which this sandbox's scheduler produces at p = 2 on two CPUs too)
// slower than the channels it replaced. A yield hands the P to whoever
// is runnable and costs 0.1 µs when nobody is, so the idle side of a
// row-per-nest sweep (2–4 µs a wait) never leaves it. Parking gives the
// thread away and waking it costs a futex (5–50 µs here), so a waiter
// yields for about that long first; when the P has other work, a yield
// lasts as long as that work. Chosen on BenchmarkBarrier and
// BenchmarkRun with GOMAXPROCS 1 and 2: the grid is in DESIGN.md §24.
const (
	spinPolls  = 256
	spinYields = 256
)

// shard is one processor's end of the protocol: the vm.Shard its
// executor is compiled against. All fields are owned exclusively by
// the processor's goroutine; cross-processor data moves only through
// the machine's slots and halo channels.
type shard struct {
	m  *Machine
	id int

	// syncSeq numbers the barrier/reduction operations this processor
	// has entered. Replicated control flow gives every processor the
	// same sequence; a mismatch is a protocol error.
	syncSeq int64

	// stash holds halo messages that arrived ahead of the receive
	// operation that consumes them (pipelined sends can overtake).
	stash []haloMsg

	// watchdog exists from the first blocking operation on: a halo
	// message or a parked wait. It is stopped (and drained) after each.
	watchdog *time.Timer

	inbox   int     // receive legs planned: the halo mailbox's capacity
	traffic Traffic // Barriers and Reductions are counted on processor 0 only
}

// Local returns this processor's storage bounds for an array.
func (s *shard) Local(array string) *sema.Region {
	return s.m.locals[array][s.id].bounds
}

// Portion returns the part of a sweep region inside this processor's
// owned block, nil when there is none.
func (s *shard) Portion(r *sema.Region) *sema.Region {
	blocks, ok := s.m.blocks[r.Rank()]
	if !ok {
		return nil
	}
	p := dist.Intersect(r, blocks[s.id])
	if dist.Empty(p) {
		return nil
	}
	return p
}

// arm starts the watchdog for one blocking operation.
func (s *shard) arm() <-chan time.Time {
	if s.watchdog == nil {
		s.watchdog = time.NewTimer(s.m.timeout)
	} else {
		s.watchdog.Reset(s.m.timeout)
	}
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

// sendHalo posts one ghost-cell message under the watchdog. The
// mailboxes are sized for the regular protocol, so a blocked send
// already means something is wrong; the watchdog reports it instead of
// deadlocking.
func (s *shard) sendHalo(to int, msg haloMsg) error {
	defer s.disarm()
	select {
	case s.m.halo[to] <- msg:
		return nil
	case <-s.m.ctx.Done():
		return errAborted
	case <-s.arm():
		return s.timeoutErr(fmt.Sprintf("space in processor %d's halo mailbox", to))
	}
}

// recvHalo takes the next message from this processor's mailbox, under
// the watchdog.
func (s *shard) recvHalo(what func() string) (haloMsg, error) {
	defer s.disarm()
	select {
	case msg := <-s.m.halo[s.id]:
		return msg, nil
	case <-s.m.ctx.Done():
		return haloMsg{}, errAborted
	case <-s.arm():
		return haloMsg{}, s.timeoutErr(what())
	}
}

// await returns once processor q's slot shows sync number seq: spin,
// then yield, then park (see spinPolls). A slot that is already past
// seq means the two processors' control flow diverged.
func (s *shard) await(q int, seq int64) error {
	sl := &s.m.slots[q]
	for i := 0; ; i++ {
		switch at := sl.seq.Load(); {
		case at == seq:
			return nil
		case at > seq:
			return fmt.Errorf("distvm: processor %d: protocol mismatch: processor %d is at sync #%d, want #%d", s.id, q, at, seq)
		case i < spinPolls:
			if s.m.aborted.Load() {
				return errAborted
			}
		case i < spinPolls+spinYields:
			runtime.Gosched()
		default:
			if err := s.park(sl, seq, q); err != nil {
				return err
			}
		}
	}
}

// park blocks until a publication in sl rouses this processor. One that
// lands between await's poll and the parked flag is seen by the second
// look here; one that lands after it sees the flag and sends a token.
// This is the only place a synchronisation arms the watchdog.
func (s *shard) park(sl *slot, seq int64, q int) error {
	me := &s.m.slots[s.id]
	me.parked.Store(true)
	defer me.parked.Store(false)
	if sl.seq.Load() >= seq {
		return nil
	}
	s.traffic.Parks++
	defer s.disarm()
	select {
	case <-me.wake:
		return nil
	case <-s.m.ctx.Done():
		return errAborted
	case <-s.arm():
		return s.timeoutErr(fmt.Sprintf("processor %d", q))
	}
}

// AllCombine is the machine's gather-combine-broadcast primitive: every
// processor publishes part in its slot, processor 0 folds the parts
// into its own in processor order (so the result is deterministic no
// matter how the goroutines are scheduled) and releases it through slot
// 0. The result is therefore processor 0's part, shared, and stays
// untouched until its caller's next AllCombine. Empty parts degenerate
// to a barrier.
func (s *shard) AllCombine(part []float64, fold func(acc, next []float64)) ([]float64, error) {
	s.syncSeq++
	seq, slots := s.syncSeq, s.m.slots
	if s.id != 0 {
		slots[s.id].part = part
		slots[s.id].seq.Store(seq)
		slots[0].rouse()
		if err := s.await(0, seq); err != nil {
			return nil, err
		}
		return slots[0].part, nil
	}
	if len(part) > 0 {
		s.traffic.Reductions++
	} else {
		s.traffic.Barriers++
	}
	for q := 1; q < s.m.procs; q++ {
		if err := s.await(q, seq); err != nil {
			return nil, err
		}
		next := slots[q].part
		if len(next) != len(part) {
			return nil, fmt.Errorf("distvm: processor 0: protocol mismatch: processor %d contributes %d values to sync #%d, want %d",
				q, len(next), seq, len(part))
		}
		if len(part) > 0 {
			fold(part, next)
		}
	}
	slots[0].part = part
	slots[0].seq.Store(seq)
	for q := 1; q < s.m.procs; q++ {
		slots[q].rouse()
	}
	return part, nil
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
		msg, err := s.recvHalo(func() string {
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
