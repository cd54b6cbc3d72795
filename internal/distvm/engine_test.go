package distvm

// White-box tests of the parallel engine: the replicated-scalar
// validator and the watchdog that turns a lost processor into an
// error instead of a deadlock.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/air"
	"repro/internal/lir"
)

func machineWithScalars(scalars []map[string]float64) *Machine {
	return &Machine{
		prog:    &lir.Program{Source: &air.Program{Arrays: map[string]*air.ArrayInfo{}}},
		procs:   len(scalars),
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

// TestWatchdogTimeout: a processor waiting at a barrier its peer never
// reaches must get a descriptive timeout error, not hang forever.
func TestWatchdogTimeout(t *testing.T) {
	m := &Machine{procs: 2, timeout: 50 * time.Millisecond}
	m.openChannels(nil)
	w := newShard(m, 1)
	_, err := w.AllCombine(nil, nil) // a barrier processor 0 never reaches
	if err == nil {
		t.Fatal("lone barrier arrival did not time out")
	}
	if !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "lost processor or protocol mismatch") {
		t.Fatalf("want watchdog timeout error, got: %v", err)
	}
}

// TestAbortUnblocksPeers: when one processor fails, a peer blocked in
// a collective must unwind with errAborted well before the watchdog.
func TestAbortUnblocksPeers(t *testing.T) {
	m := &Machine{procs: 2, timeout: 30 * time.Second}
	m.openChannels(nil)
	w := newShard(m, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := w.AllCombine(nil, nil)
		errc <- err
	}()
	m.abort(errTest)
	select {
	case err := <-errc:
		if err != errAborted {
			t.Fatalf("want errAborted, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer stayed blocked after abort")
	}
	if m.failErr != errTest {
		t.Fatalf("recorded failure = %v, want the aborting error", m.failErr)
	}
}

var errTest = &protocolTestError{}

type protocolTestError struct{}

func (*protocolTestError) Error() string { return "simulated processor failure" }
