package mhp

import (
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/dep"
	"repro/internal/sema"
	"repro/internal/source"
)

// ---------------------------------------------------------------------------
// Hand-built schedule helpers

func reg(bounds ...int) *sema.Region {
	r := &sema.Region{}
	for i := 0; i < len(bounds); i += 2 {
		r.Lo = append(r.Lo, bounds[i])
		r.Hi = append(r.Hi, bounds[i+1])
	}
	return r
}

func at(line int) source.Pos { return source.Pos{Line: line, Col: 1} }

func wr(array string, r *sema.Region, line int) Access {
	return Access{Array: array, Region: r, Write: true, Pos: at(line)}
}

func rd(array string, off air.Offset, r *sema.Region, line int) Access {
	return Access{Array: array, Off: off, Region: r, Pos: at(line)}
}

func compute(line int, accs ...Access) *Event {
	return &Event{Kind: EvCompute, Pos: at(line), Accesses: accs}
}

func send(array string, off air.Offset, id, line int) *Event {
	return &Event{Kind: EvSend, Array: array, Off: off, MsgID: id, Pos: at(line)}
}

func recv(array string, off air.Offset, id, line int) *Event {
	return &Event{Kind: EvRecv, Array: array, Off: off, MsgID: id, Pos: at(line)}
}

func barrier(line int) *Event { return &Event{Kind: EvBarrier, Pos: at(line)} }

func sched(procs int, evs ...*Event) *Schedule {
	s := &Schedule{Procs: procs, Events: evs}
	s.reindex()
	return s
}

// ---------------------------------------------------------------------------
// Table-driven classification tests

type scheduleCase struct {
	name                   string
	sched                  *Schedule
	ordered, race, unknown int
	deadlocks              int
	wantErr                string // substring of Err(); "" = nil
}

// scheduleCases is TestAnalyzeSchedules' table; TestEvidencePinned
// pins the rendered evidence of the same schedules.
func scheduleCases() []scheduleCase {
	whole := reg(1, 64)
	interior := reg(2, 63)
	east := air.Offset{1}
	west := air.Offset{-1}

	return []scheduleCase{
		{
			name: "ordered stencil exchange",
			sched: sched(4,
				compute(1, wr("A", whole, 1)),
				barrier(1),
				send("A", east, 1, 2),
				recv("A", east, 1, 2),
				compute(3, rd("A", east, interior, 3), wr("B", interior, 3)),
				barrier(3),
			),
			ordered: 1,
		},
		{
			name: "racy missing barrier",
			sched: sched(4,
				compute(1, wr("A", whole, 1)),
				barrier(1),
				send("A", east, 1, 2),
				recv("A", east, 1, 2),
				compute(3, rd("A", east, interior, 3)),
				// No barrier after the reading event: the next write
				// may overtake the remote read.
				compute(4, wr("A", whole, 4)),
			),
			ordered: 1, race: 1,
			wantErr: "missing barrier edge",
		},
		{
			name: "deadlocked send cycle",
			sched: sched(4,
				recv("A", east, 1, 2),
				send("A", east, 1, 3),
			),
			deadlocks: 1,
			wantErr:   "happens-before cycle",
		},
		{
			name: "self-send",
			sched: sched(4,
				send("A", air.Offset{0}, 1, 2),
				recv("A", air.Offset{0}, 1, 2),
			),
			deadlocks: 1,
			wantErr:   "self-send",
		},
		{
			name: "mis-paired exchange",
			sched: sched(4,
				send("A", east, 1, 2),
				recv("A", west, 1, 3),
			),
			deadlocks: 1,
			wantErr:   "never produces",
		},
		{
			name: "unmatched receive",
			sched: sched(4,
				recv("A", east, 7, 3),
			),
			deadlocks: 1,
			wantErr:   "blocks its processor forever",
		},
		{
			name: "zero-processor degenerate",
			sched: sched(1,
				compute(1, wr("A", whole, 1)),
				compute(2, rd("A", east, interior, 2)),
			),
		},
		{
			name: "uncovered remote read races with writer",
			sched: sched(4,
				compute(1, wr("A", whole, 1)),
				barrier(1),
				compute(2, rd("A", east, interior, 2)),
			),
			race:    1,
			wantErr: "no send→recv edge",
		},
		{
			name: "stale send-time capture",
			sched: sched(4,
				compute(1, wr("A", whole, 1)),
				barrier(1),
				send("A", east, 1, 2),
				compute(3, wr("A", whole, 3)),
				barrier(3),
				recv("A", east, 1, 4),
				compute(5, rd("A", east, interior, 5)),
				barrier(5),
			),
			ordered: 1, race: 1,
			wantErr: "send-time capture violated",
		},
		{
			name: "disjoint regions do not conflict",
			sched: sched(4,
				compute(1, wr("A", reg(1, 10), 1)),
				barrier(1),
				send("A", east, 1, 2),
				recv("A", east, 1, 2),
				compute(3, rd("A", east, reg(40, 50), 3)),
				barrier(3),
			),
		},
		{
			name: "unknown without region bounds",
			sched: sched(4,
				compute(1, wr("A", nil, 1)),
				barrier(1),
				send("A", east, 1, 2),
				recv("A", east, 1, 2),
				compute(3, rd("A", east, nil, 3)),
				barrier(3),
			),
			unknown: 1,
		},
	}
}

func TestAnalyzeSchedules(t *testing.T) {
	for _, tc := range scheduleCases() {
		t.Run(tc.name, func(t *testing.T) {
			res := Analyze(tc.sched)
			if res.NumOrdered != tc.ordered || res.NumRace != tc.race || res.NumUnknown != tc.unknown {
				t.Errorf("census = %d ordered / %d race / %d unknown, want %d/%d/%d\npairs:\n%s",
					res.NumOrdered, res.NumRace, res.NumUnknown,
					tc.ordered, tc.race, tc.unknown, pairDump(res))
			}
			if len(res.Deadlocks) != tc.deadlocks {
				t.Errorf("deadlocks = %d, want %d: %v", len(res.Deadlocks), tc.deadlocks, res.Deadlocks)
			}
			err := res.Err()
			if tc.wantErr == "" {
				if err != nil {
					t.Errorf("Err() = %v, want nil", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Err() = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func pairDump(res *Result) string {
	var b strings.Builder
	for _, p := range res.Pairs {
		b.WriteString("  " + p.String() + "\n")
	}
	return b.String()
}

// A race diagnostic must name both events with their positions.
func TestRaceNamesBothEvents(t *testing.T) {
	s := sched(4,
		compute(1, wr("A", reg(1, 64), 1)),
		barrier(1),
		send("A", air.Offset{1}, 1, 2),
		recv("A", air.Offset{1}, 1, 2),
		compute(3, rd("A", air.Offset{1}, reg(2, 63), 3)),
		compute(9, wr("A", reg(1, 64), 9)),
	)
	err := Analyze(s).Err()
	if err == nil {
		t.Fatal("want race")
	}
	for _, want := range []string{"3:1", "9:1", "write of A", "read of A@(1)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("race diagnostic %q missing %q", err, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Same-nest direction tests

// sameNest fuses a remote read of A@off with a write of A into one
// nest under the given loop structure, behind a matched exchange.
func sameNest(off air.Offset, order dep.LoopStructure) *Schedule {
	interior := reg(2, 63)
	nest := compute(3, rd("A", off, interior, 3), wr("A", interior, 3))
	nest.Order = order
	return sched(4,
		send("A", off, 1, 2),
		recv("A", off, 1, 2),
		nest,
		barrier(3),
	)
}

func TestSameNestDirections(t *testing.T) {
	mk := func(off air.Offset) *Schedule { return sameNest(off, dep.LoopStructure{1}) }

	// Anti direction (read the east neighbor, ascending order): the
	// pre-nest capture matches sequential semantics.
	res := Analyze(mk(air.Offset{1}))
	if res.NumOrdered != 1 || res.NumRace != 0 {
		t.Errorf("anti: census %d/%d/%d, want 1 ordered\n%s",
			res.NumOrdered, res.NumRace, res.NumUnknown, pairDump(res))
	}

	// Flow direction (read the west neighbor, ascending order): the
	// neighbor has not written yet; fusing these is a race.
	res = Analyze(mk(air.Offset{-1}))
	if res.NumRace != 1 {
		t.Errorf("flow: census %d/%d/%d, want 1 race\n%s",
			res.NumOrdered, res.NumRace, res.NumUnknown, pairDump(res))
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "flow direction") {
		t.Errorf("flow race diagnostic = %v", err)
	}
}

// ---------------------------------------------------------------------------
// Branch-context tests

// branchSchedules are TestBranchContexts' three schedules: a write and
// a remote read in sibling arms, a barrier inside one arm between a
// read and a later write, and the same barrier unconditioned.
func branchSchedules() (siblings, conditional, unconditional *Schedule) {
	whole := reg(1, 64)
	interior := reg(2, 63)
	east := air.Offset{1}

	w := compute(2, wr("A", whole, 2))
	w.Ctx = []ctxFrame{{ID: 1, Arm: 0}}
	r := compute(4, rd("A", east, interior, 4))
	r.Ctx = []ctxFrame{{ID: 1, Arm: 1}}
	siblings = sched(4, w, &Event{Kind: EvReset}, r)

	b := barrier(3)
	b.Ctx = []ctxFrame{{ID: 1, Arm: 0}}
	conditional = sched(4,
		send("A", east, 1, 1),
		recv("A", east, 1, 1),
		compute(2, rd("A", east, interior, 2)), b, compute(4, wr("A", whole, 4)),
	)
	unconditional = sched(4,
		send("A", east, 1, 1),
		recv("A", east, 1, 1),
		compute(2, rd("A", east, interior, 2)), barrier(3), compute(4, wr("A", whole, 4)),
	)
	return
}

func TestBranchContexts(t *testing.T) {
	siblings, conditional, unconditional := branchSchedules()

	// Write in the then-arm, remote read in the else-arm: never in one
	// dynamic execution, so no conflicting pair at all.
	res := Analyze(siblings)
	if len(res.Pairs) != 0 {
		t.Errorf("sibling branches: %d pairs, want 0\n%s", len(res.Pairs), pairDump(res))
	}

	// A barrier inside one arm of an if does not order events outside
	// it: the read/write pair stays racy.
	res = Analyze(conditional)
	if res.NumRace != 1 {
		t.Errorf("conditional barrier: census %d/%d/%d, want 1 race\n%s",
			res.NumOrdered, res.NumRace, res.NumUnknown, pairDump(res))
	}

	// The same barrier unconditioned orders the pair.
	res = Analyze(unconditional)
	if res.NumRace != 0 || res.NumOrdered == 0 {
		t.Errorf("unconditional barrier: census %d/%d/%d, want 0 races\n%s",
			res.NumOrdered, res.NumRace, res.NumUnknown, pairDump(res))
	}
}

// ---------------------------------------------------------------------------
// Write/write pairs (hand-built: compiler output never writes remotely)

// writeWriteSchedules are an offsetted write against an owned write of
// the same array, without and with a barrier between them.
func writeWriteSchedules() (unsynchronized, barriered *Schedule) {
	whole := reg(1, 64)
	remote := Access{Array: "A", Off: air.Offset{1}, Region: whole, Write: true, Pos: at(5)}
	unsynchronized = sched(4,
		compute(1, wr("A", whole, 1)),
		compute(5, remote),
	)
	barriered = sched(4,
		compute(1, wr("A", whole, 1)),
		barrier(1),
		compute(5, remote),
	)
	return
}

func TestWriteWritePairs(t *testing.T) {
	unsynchronized, barriered := writeWriteSchedules()

	// Unsynchronized offsetted write against an owned write: race.
	res := Analyze(unsynchronized)
	if res.NumRace != 1 {
		t.Errorf("unsynchronized: census %d/%d/%d, want 1 race\n%s",
			res.NumOrdered, res.NumRace, res.NumUnknown, pairDump(res))
	}

	// With a barrier between them: ordered.
	res = Analyze(barriered)
	if res.NumRace != 0 || res.NumOrdered != 1 {
		t.Errorf("barriered: census %d/%d/%d, want 1 ordered\n%s",
			res.NumOrdered, res.NumRace, res.NumUnknown, pairDump(res))
	}
}

// ---------------------------------------------------------------------------
// Fault injection

func cleanStencil() *Schedule {
	whole := reg(1, 64)
	interior := reg(2, 63)
	east := air.Offset{1}
	return sched(4,
		compute(1, wr("A", whole, 1)),
		barrier(1),
		send("A", east, 1, 2),
		recv("A", east, 1, 2),
		compute(3, rd("A", east, interior, 3), wr("B", interior, 3)),
		barrier(3),
		compute(4, wr("A", whole, 4)),
		barrier(4),
	)
}

func TestInjectFaultsDetected(t *testing.T) {
	for _, kind := range FaultKinds() {
		t.Run(kind, func(t *testing.T) {
			orig := cleanStencil()
			if res := Analyze(orig); !res.Clean() {
				t.Fatalf("baseline schedule not clean:\n%s%v", pairDump(res), res.Deadlocks)
			}
			faulted, err := Inject(cleanStencil(), kind)
			if err != nil {
				t.Fatalf("Inject(%s): %v", kind, err)
			}
			res := Analyze(faulted)
			if res.Clean() {
				t.Fatalf("seeded %s fault not detected (faults: %v)", kind, faulted.Faults)
			}
		})
	}
}

func TestInjectDoesNotMutateOriginal(t *testing.T) {
	orig := cleanStencil()
	n := len(orig.Events)
	for _, kind := range FaultKinds() {
		if _, err := Inject(orig, kind); err != nil {
			t.Fatalf("Inject(%s): %v", kind, err)
		}
	}
	if len(orig.Events) != n {
		t.Fatalf("original schedule mutated: %d events, want %d", len(orig.Events), n)
	}
	if !Analyze(orig).Clean() {
		t.Fatal("original schedule no longer clean after injections")
	}
}

func TestInjectNoSite(t *testing.T) {
	empty := sched(4, compute(1, wr("A", reg(1, 8), 1)), barrier(1))
	for _, kind := range FaultKinds() {
		if _, err := Inject(empty, kind); err == nil {
			t.Errorf("Inject(%s) on a comm-free schedule: want no-site error", kind)
		}
	}
	if _, err := Inject(cleanStencil(), "bogus"); err == nil || !strings.Contains(err.Error(), "unknown race fault kind") {
		t.Errorf("unknown kind: err = %v", err)
	}
}
