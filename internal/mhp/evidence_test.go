package mhp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/air"
	"repro/internal/dep"
)

var update = flag.Bool("update", false, "rewrite testdata/evidence_hashes.json")

// pinnedSchedules are the hand-built schedules whose rendered evidence
// is pinned: the other tests' schedules plus one per cause no compiler
// output reaches (a compiled schedule is always ProvenOrdered through a
// flow chain or a barrier; the root package's TestEvidencePinned pins
// those).
func pinnedSchedules(t *testing.T) map[string]*Schedule {
	whole, interior := reg(1, 64), reg(2, 63)
	east, west := air.Offset{1}, air.Offset{-1}
	cells := map[string]*Schedule{}
	for _, tc := range scheduleCases() {
		cells["analyze/"+tc.name] = tc.sched
	}
	asc := dep.LoopStructure{1}
	cells["same-nest/anti"] = sameNest(east, asc)
	cells["same-nest/flow"] = sameNest(west, asc)
	cells["same-nest/no loop structure"] = sameNest(east, nil)
	cells["branch/siblings"], cells["branch/conditional barrier"], cells["branch/unconditional barrier"] = branchSchedules()
	cells["write-write/unsynchronized"], cells["write-write/barriered"] = writeWriteSchedules()

	nest := func(off air.Offset) *Event {
		n := compute(4, rd("A", off, interior, 4), wr("A", interior, 4))
		n.Order = asc
		return n
	}
	cells["same-nest/uncovered"] = sched(4, nest(east), barrier(4))
	// A read whose only covering exchange is mis-paired: the ordering
	// rests on a message already reported as a deadlock.
	cells["broken exchange/flow"] = sched(4,
		compute(1, wr("A", whole, 1)),
		barrier(1),
		send("A", east, 1, 2),
		recv("A", west, 1, 3),
		compute(4, rd("A", west, interior, 4)),
		barrier(4),
	)
	cells["broken exchange/same nest"] = sched(4,
		send("A", east, 1, 2),
		recv("A", west, 1, 3),
		nest(west),
		barrier(4),
	)
	remote := Access{Array: "A", Off: east, Region: whole, Write: true, Pos: at(5)}
	cells["write-write/one nest"] = sched(4, compute(5, wr("A", whole, 5), remote))
	cells["write-write/no bounds"] = sched(4,
		compute(1, wr("A", nil, 1)),
		barrier(1),
		compute(5, Access{Array: "A", Off: east, Write: true, Pos: at(5)}),
	)

	// Defects in both copies of a loop, listed copy 1 first, and in two
	// branches: deadlocks are reported in (message id, context) order
	// whatever order the events arrive in.
	inLoop := func(e *Event, copyN int) *Event {
		e.Ctx = []ctxFrame{{ID: 1, Loop: true, Arm: copyN}}
		return e
	}
	inArm := func(e *Event, id int) *Event {
		e.Ctx = []ctxFrame{{ID: id}}
		return e
	}
	cells["deadlock order"] = sched(4,
		inLoop(recv("B", east, 2, 7), 1),
		inLoop(recv("A", east, 1, 6), 1),
		inLoop(recv("A", east, 1, 5), 0),
		inLoop(recv("B", east, 2, 4), 0),
		// Mis-paired in both copies, at different positions.
		inLoop(send("C", east, 3, 12), 1),
		inLoop(recv("C", west, 3, 13), 1),
		inLoop(send("C", east, 3, 10), 0),
		inLoop(recv("C", west, 3, 11), 0),
		// Contexts order as their rendered text does: 10 before 2.
		inArm(recv("D", east, 4, 20), 2),
		inArm(recv("E", east, 4, 21), 10),
	)

	for _, kind := range FaultKinds() {
		bad, err := Inject(cleanStencil(), kind)
		if err != nil {
			t.Fatalf("Inject(%s): %v", kind, err)
		}
		cells["fault/"+kind] = bad
	}
	return cells
}

func TestEvidencePinned(t *testing.T) {
	path := filepath.Join("testdata", "evidence_hashes.json")
	got := map[string]string{}
	for cell, s := range pinnedSchedules(t) {
		r := Analyze(s)
		var b bytes.Buffer
		fmt.Fprintf(&b, "seeded %s\n", strings.Join(s.Faults, "; "))
		for _, p := range r.Pairs {
			fmt.Fprintf(&b, "pair %d %d %s ww=%t\n  %s\n  %s\n",
				p.FirstEvent, p.SecondEvent, p.Verdict, p.WriteWrite, p, p.Overlap())
		}
		for _, d := range r.Deadlocks {
			fmt.Fprintf(&b, "deadlock %s\n", d)
		}
		fmt.Fprintf(&b, "census %d ordered %d race %d unknown; %d computes %d sends %d recvs %d barriers\n",
			r.NumOrdered, r.NumRace, r.NumUnknown, r.Computes, r.Sends, r.Recvs, r.Barriers)
		fmt.Fprintf(&b, "err %v\n", r.Err())
		sum := sha256.Sum256(b.Bytes())
		got[cell] = hex.EncodeToString(sum[:])
		if testing.Verbose() {
			t.Logf("%s:\n%s", cell, b.String())
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (refresh with go test -run TestEvidencePinned -update)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cells rendered, %d pinned", len(got), len(want))
	}
	for cell, g := range got {
		if w, ok := want[cell]; !ok {
			t.Errorf("%s: not pinned (refresh deliberately with -update)", cell)
		} else if g != w {
			t.Errorf("%s: rendered evidence changed: %s, pinned %s (-v prints the text)", cell, g[:12], w[:12])
		}
	}
}
