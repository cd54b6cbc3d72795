package distvm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
)

// cancelSrc iterates the stencil long enough that a cancellation fired
// a few milliseconds in lands mid-run, between ghost-cell exchanges.
const cancelSrc = `
program dcancel;
config n : integer = 32;
config iters : integer = 5000;
region R = [1..n, 1..n];
region I = [2..n-1, 2..n-1];
direction north = (-1, 0); west = (0, -1);
var X, Y, T : [R] double;
proc main()
begin
  [R] X := index1 * 0.5 + index2 * 0.25;
  [R] Y := 0.0;
  for it := 1 to iters do
    [I] T := (X@north + X@west) * 0.5;
    [I] Y := T + X;
    [I] X := X@north + Y;
  end;
end;
`

func compileCancel(t *testing.T, procs int) *driver.Compilation {
	t.Helper()
	co := comm.DefaultOptions(procs)
	c, err := driver.Compile(cancelSrc, driver.Options{Level: core.C2F3, Comm: &co})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// TestCancelMidExchange cancels a long-running distributed execution a
// few milliseconds in — while the processors are deep in the
// iteration's ghost-cell exchanges — and asserts the run aborts
// promptly with the context's error, with every worker goroutine
// released (wg.Wait returning at all proves no send or receive stayed
// blocked). Run under -race this doubles as the shutdown-ordering
// check of the race-smoke CI target.
func TestCancelMidExchange(t *testing.T) {
	c := compileCancel(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := distvm.Run(c.LIR, distvm.Options{Procs: 4, Ctx: ctx, Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error is %v, want context.Canceled", err)
	}
	// Abort must come from the cancellation path, not the watchdog: the
	// blocked channel operations all select on the machine's done
	// channel, so the unwind is immediate.
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled run took %v to unwind", d)
	}
}

// TestDeadlineMidExchange is the deadline variant: the error must be
// errors.Is-testable for context.DeadlineExceeded, as the Options.Ctx
// contract promises.
func TestDeadlineMidExchange(t *testing.T) {
	c := compileCancel(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := distvm.Run(c.LIR, distvm.Options{Procs: 4, Ctx: ctx, Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("deadlined run succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run error is %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelBeforeRun: a context cancelled before the run starts never
// lets a worker past its first synchronization.
func TestCancelBeforeRun(t *testing.T) {
	c := compileCancel(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := distvm.Run(c.LIR, distvm.Options{Procs: 4, Ctx: ctx, Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("pre-cancelled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error is %v, want context.Canceled", err)
	}
}

// TestLongShardSweepStopsAtDeadline: one arrayless reduction of 3.6e9
// element-statements is one charge per processor followed by seconds
// of sweeping; a 50 ms deadline stops every shard's sweep within a
// second through the sweep's per-row polls. Each shard's 1.8e9 steps
// fit the VM's default budget, which MaxSteps 0 gives distvm too.
func TestLongShardSweepStopsAtDeadline(t *testing.T) {
	const src = "program longsweep;\nregion R = [1..60000, 1..60000];\nvar s : double;\n" +
		"proc main()\nbegin\n  s := +<< [R] index1;\n  writeln(s);\nend;\n"
	co := comm.DefaultOptions(2)
	c, err := driver.Compile(src, driver.Options{Level: core.C2F4, Comm: &co})
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int64{0, 1 << 40} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err = distvm.Run(c.LIR, distvm.Options{Procs: 2, Ctx: ctx, MaxSteps: max, Timeout: 30 * time.Second})
		if d := time.Since(start); d > time.Second {
			t.Errorf("MaxSteps %d: the run stopped %v after starting, want within 1s", max, d)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("MaxSteps %d: Run = %v, want the deadline", max, err)
		}
		cancel()
	}
}
