package distvm

// White-box tests of the parallel engine: the replicated-scalar
// validator and the watchdog that turns a lost processor into an
// error instead of a deadlock.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/air"
	"repro/internal/lir"
)

func machineWithScalars(scalars []map[string]float64) *Machine {
	return &Machine{
		geometry: geometry{
			prog:  &lir.Program{Source: &air.Program{Arrays: map[string]*air.ArrayInfo{}}},
			procs: len(scalars),
		},
		scalars: scalars,
	}
}

func TestScalarsConsistentDetectsDifference(t *testing.T) {
	m := machineWithScalars([]map[string]float64{
		{"s": 1, "t": 2},
		{"s": 1, "t": 3},
	})
	err := m.ScalarsConsistent()
	if err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("want differing-scalar error, got %v", err)
	}
}

// Regression test: a scalar that is missing on some processor used to
// be reported as consistent (the !ok lookup was skipped); it is a
// replicated-scalar violation just like a differing value.
func TestScalarsConsistentDetectsMissingScalar(t *testing.T) {
	m := machineWithScalars([]map[string]float64{
		{"s": 1, "t": 2},
		{"s": 1}, // t never assigned on proc 1
	})
	err := m.ScalarsConsistent()
	if err == nil {
		t.Fatal("missing scalar reported as consistent")
	}
	if !strings.Contains(err.Error(), "missing") || !strings.Contains(err.Error(), "replicated-scalar violation") {
		t.Fatalf("want missing-scalar violation, got %v", err)
	}
}

func TestScalarsConsistentAccepts(t *testing.T) {
	m := machineWithScalars([]map[string]float64{
		{"s": 1, "t": 2},
		{"s": 1, "t": 2},
	})
	if err := m.ScalarsConsistent(); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}

// testMachine is a machine with its barrier connected and no program:
// the shards' AllCombine can be driven directly.
func testMachine(procs int, timeout time.Duration) (*Machine, []*shard) {
	m := &Machine{geometry: geometry{procs: procs}, timeout: timeout}
	m.connect(nil)
	ends := make([]*shard, procs)
	for p := range ends {
		ends[p] = &shard{m: m, id: p}
	}
	return m, ends
}

// runAll drives every shard through body on its own goroutine the way
// Run does — a failure aborts the machine — and returns each one's
// error.
func runAll(m *Machine, ends []*shard, body func(s *shard) error) []error {
	errs := make([]error, len(ends))
	var wg sync.WaitGroup
	for p, s := range ends {
		wg.Add(1)
		go func(p int, s *shard) {
			defer wg.Done()
			errs[p] = body(s)
			m.abort(errs[p])
		}(p, s)
	}
	wg.Wait()
	return errs
}

// waitFor polls cond, failing the test if it stays false for 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWatchdogTimeout: a processor waiting at a barrier its peer never
// reaches must get a descriptive timeout error, not hang forever. The
// watchdog belongs to the parked wait alone: a round that completes
// while the waiter still spins never creates the timer.
func TestWatchdogTimeout(t *testing.T) {
	m, ends := testMachine(2, 50*time.Millisecond)
	_, err := ends[1].AllCombine(nil, nil) // a barrier processor 0 never reaches
	if err == nil {
		t.Fatal("lone barrier arrival did not time out")
	}
	if !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "lost processor or protocol mismatch") {
		t.Fatalf("want watchdog timeout error, got: %v", err)
	}
	if ends[1].traffic.Parks == 0 {
		t.Error("the timed-out wait was not counted as a park")
	}

	// Processor 1 has arrived by the time processor 0 looks, so
	// processor 0's wait ends at its first poll.
	m, ends = testMachine(2, 30*time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := ends[1].AllCombine(nil, nil)
		done <- err
	}()
	waitFor(t, "processor 1's arrival", func() bool { return m.slots[1].seq.Load() == 1 })
	if _, err := ends[0].AllCombine(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ends[0].watchdog != nil || ends[0].traffic.Parks != 0 {
		t.Errorf("a wait that ended in the spin path armed the watchdog (timer %v, parks %d)", ends[0].watchdog, ends[0].traffic.Parks)
	}
}

// TestAbortUnblocksPeers: when one processor fails, a peer waiting in a
// collective must unwind with errAborted well before the watchdog —
// whether the abort finds it parked (it wakes on the cancelled context)
// or still spinning (its poll sees the abort flag: it neither parks nor
// arms a timer).
func TestAbortUnblocksPeers(t *testing.T) {
	for _, parked := range []bool{true, false} {
		m, ends := testMachine(2, 30*time.Second)
		w := ends[1]
		if !parked {
			m.abort(errTest)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := w.AllCombine(nil, nil)
			errc <- err
		}()
		if parked {
			waitFor(t, "the peer to park", m.slots[1].parked.Load)
			m.abort(errTest)
		}
		select {
		case err := <-errc:
			if err != errAborted {
				t.Fatalf("parked=%v: want errAborted, got %v", parked, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("parked=%v: peer stayed blocked after abort", parked)
		}
		if m.failErr != errTest {
			t.Fatalf("recorded failure = %v, want the aborting error", m.failErr)
		}
		if !parked && (w.watchdog != nil || w.traffic.Parks != 0) {
			t.Errorf("a spinning waiter left the spin path before it saw the abort (parks %d)", w.traffic.Parks)
		}
	}
}

var errTest = &protocolTestError{}

type protocolTestError struct{}

func (*protocolTestError) Error() string { return "simulated processor failure" }
