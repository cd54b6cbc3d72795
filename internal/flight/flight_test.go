package flight

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// caller is one Do on the shared key: its ctx, what its fn does once
// the test lets it go, and what it must get back.
type caller struct {
	timeout time.Duration // 0: no deadline
	cancel  bool          // the test cancels this caller's ctx instead of releasing its fn
	panics  bool          // fn panics
	ctxErr  bool          // fn fails with its ctx's error once that ends (a compile that polls ctx)

	wantV     int // fn of the run that served this caller returned its 1-based run number
	wantErr   error
	wantPanic bool // a *PanicError: re-raised in a leader, returned to a joiner
}

// TestGroup drives one Group through each guarantee. In every case the
// first caller leads: the rest start only once its fn is running, and
// the leader's fn is released only when they are all waiting (a joiner
// that must time out has done so by then).
func TestGroup(t *testing.T) {
	followers := func(n int, c caller) []caller {
		cs := make([]caller, n)
		for i := range cs {
			cs[i] = c
		}
		return cs
	}
	cases := []struct {
		name    string
		callers []caller
		runs    int64
		after   int // a later caller on the same key must lead a fresh run with this number
	}{
		{name: "panic then a second caller",
			callers: []caller{{panics: true, wantPanic: true}, {wantPanic: true}}, runs: 1, after: 2},
		{name: "joiner deadline before the leader finishes",
			callers: []caller{{wantV: 1}, {timeout: 20 * time.Millisecond, wantErr: context.DeadlineExceeded}}, runs: 1, after: 2},
		{name: "cancelled leader, live joiner retries once",
			callers: []caller{{cancel: true, ctxErr: true, wantErr: context.Canceled}, {wantV: 2}}, runs: 2, after: 3},
		{name: "100 callers, one run",
			callers: append([]caller{{wantV: 1}}, followers(99, caller{wantV: 1})...), runs: 1, after: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Group[string, int]
			var runs atomic.Int64
			leading := make(chan struct{}) // closed when the first fn is running
			release := make(chan struct{}) // closed to let the first fn end
			var wg sync.WaitGroup
			var waiting, leaders atomic.Int64

			do := func(c caller) (v int, joined bool, err error, panicked any) {
				ctx, cancel := context.WithCancel(context.Background())
				if c.timeout > 0 {
					ctx, cancel = context.WithTimeout(context.Background(), c.timeout)
				}
				defer cancel()
				defer func() { panicked = recover() }()
				v, joined, err = g.Do(ctx, "k", func() (int, error) {
					n := int(runs.Add(1))
					if n == 1 {
						close(leading)
						<-release
						if c.cancel {
							cancel()
						}
					}
					if c.panics {
						panic("boom")
					}
					if c.ctxErr && ctx.Err() != nil {
						return 0, ctx.Err()
					}
					return n, nil
				})
				return
			}
			check := func(i int, c caller, v int, err error, panicked any) {
				var pe *PanicError
				switch {
				case c.wantPanic:
					if i == 0 {
						pe, _ = panicked.(*PanicError)
					} else {
						errors.As(err, &pe)
					}
					if pe == nil || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "flight_test.go") {
						t.Errorf("caller %d: panic %v, err %v; want a *PanicError with value and stack", i, panicked, err)
					}
				case panicked != nil:
					t.Errorf("caller %d panicked: %v", i, panicked)
				case !errors.Is(err, c.wantErr) || v != c.wantV:
					t.Errorf("caller %d: got (%d, %v), want (%d, %v)", i, v, err, c.wantV, c.wantErr)
				}
			}

			for i, c := range tc.callers {
				if i == 1 {
					<-leading
				}
				wg.Add(1)
				go func(i int, c caller) {
					defer wg.Done()
					if i > 0 {
						waiting.Add(1)
					}
					v, joined, err, panicked := do(c)
					if !joined {
						leaders.Add(1)
					}
					check(i, c, v, err, panicked)
				}(i, c)
			}
			<-leading
			// Followers are either parked in Do or about to be: give the
			// stragglers (and a joiner's deadline) time, then end the flight.
			for waiting.Load() < int64(len(tc.callers)-1) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond)
			close(release)
			wg.Wait()
			if n, l := runs.Load(), leaders.Load(); n != tc.runs || l != n {
				t.Fatalf("fn ran %d times for %d callers that report !joined, want %d of each", n, l, tc.runs)
			}
			// The key is free again however the flight ended.
			v, joined, err, panicked := do(caller{})
			if v != tc.after || joined || err != nil || panicked != nil {
				t.Errorf("later caller: got (%d, joined %v, %v, panic %v), want a fresh run %d", v, joined, err, panicked, tc.after)
			}
		})
	}
}
