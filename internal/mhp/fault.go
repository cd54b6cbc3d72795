package mhp

import (
	"fmt"
)

// The seeded schedule-fault kinds of the -racefault self-test. Each
// perturbs a copied schedule the way a comm-insertion or scalarization
// bug would, and the analyzer must reject the result with a positioned
// diagnostic naming both events.
const (
	// FaultBarrier drops a barrier that is the only synchronization
	// between a remote read and a later write of the same array.
	FaultBarrier = "barrier"
	// FaultMispair flips a send's direction so the receive waits for a
	// message the send never produces.
	FaultMispair = "mispair"
	// FaultStale moves a send before the write that produces its
	// values, so the receive delivers a stale capture.
	FaultStale = "stale"
)

// FaultKinds lists the supported kinds.
func FaultKinds() []string { return []string{FaultBarrier, FaultMispair, FaultStale} }

// Inject returns a copy of sched with one seeded fault of the given
// kind at the first structurally viable site, or an error when the
// schedule offers no site for that kind. The original is not modified.
func Inject(sched *Schedule, kind string) (*Schedule, error) {
	cp := cloneSchedule(sched)
	switch kind {
	case FaultBarrier:
		return injectBarrier(cp)
	case FaultMispair:
		return injectMispair(cp)
	case FaultStale:
		return injectStale(cp)
	}
	return nil, fmt.Errorf("unknown race fault kind %q (want %v)", kind, FaultKinds())
}

func cloneSchedule(s *Schedule) *Schedule {
	cp := &Schedule{Procs: s.Procs, Faults: append([]string(nil), s.Faults...)}
	for _, e := range s.Events {
		ec := *e
		ec.Accesses = append([]Access(nil), e.Accesses...)
		ec.Ctx = append([]ctxFrame(nil), e.Ctx...)
		ec.Off = e.Off.Clone()
		cp.Events = append(cp.Events, &ec)
	}
	cp.reindex()
	return cp
}

// injectBarrier drops the first barrier that is the sole
// synchronization between a remote read and a later overlapping write
// of the same array — the shape of a lost barrier edge.
func injectBarrier(s *Schedule) (*Schedule, error) {
	for _, re := range s.Events {
		if re.Kind != EvCompute {
			continue
		}
		for _, ra := range re.Accesses {
			if ra.Write || !ra.Remote() {
				continue
			}
			for _, we := range s.Events[re.Index+1:] {
				if we.Kind != EvCompute || !ctxCompatible(re, we) {
					continue
				}
				for _, wa := range we.Accesses {
					if !wa.Write || wa.Array != ra.Array {
						continue
					}
					if conflict, _ := overlap(wa, ra); !conflict {
						continue
					}
					var barriers []*Event
					for _, b := range s.Events[re.Index+1 : we.Index] {
						if b.Kind == EvBarrier && ctxCovered(b, re, we) {
							barriers = append(barriers, b)
						}
					}
					if len(barriers) != 1 {
						continue
					}
					b := barriers[0]
					s.Events = append(s.Events[:b.Index], s.Events[b.Index+1:]...)
					s.reindex()
					s.Faults = append(s.Faults, fmt.Sprintf(
						"dropped the %s separating the %s from the later %s", b.describe(), ra, wa))
					return s, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("no barrier separates a remote read from a later write of the same array")
}

// injectMispair negates the direction of the first send, breaking its
// pairing with the receive.
func injectMispair(s *Schedule) (*Schedule, error) {
	for _, e := range s.Events {
		if e.Kind != EvSend {
			continue
		}
		was := e.Off.String()
		for i := range e.Off {
			e.Off[i] = -e.Off[i]
		}
		s.Faults = append(s.Faults, fmt.Sprintf(
			"mis-paired %s: direction flipped from %s", e.describe(), was))
		return s, nil
	}
	return nil, fmt.Errorf("schedule has no send to mis-pair")
}

// injectStale moves the first send that follows a write of its array
// to just before that write, so the write lands between send and recv
// — the shape of a send placed before its producing statement.
func injectStale(s *Schedule) (*Schedule, error) {
	for _, e := range s.Events {
		if e.Kind != EvSend {
			continue
		}
		// Find the last write to the sent array before the send.
		var we *Event
		for _, c := range s.Events[:e.Index] {
			if c.Kind != EvCompute {
				continue
			}
			for _, a := range c.Accesses {
				if a.Write && a.Array == e.Array {
					we = c
				}
			}
		}
		if we == nil {
			continue
		}
		// Reposition the send immediately before the producing write.
		moved := s.Events[e.Index]
		copy(s.Events[we.Index+1:e.Index+1], s.Events[we.Index:e.Index])
		s.Events[we.Index] = moved
		s.reindex()
		s.Faults = append(s.Faults, fmt.Sprintf(
			"moved %s before the producing write at %s (stale send-time capture)", moved.describe(), we.Pos))
		return s, nil
	}
	return nil, fmt.Errorf("no send follows a write of its array")
}
